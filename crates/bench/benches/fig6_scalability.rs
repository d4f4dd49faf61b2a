//! Figure 6 — scalability with growing RSS.
//!
//! Graph500's RSS grows from 128 GB to 690 GB (scaled 1/64) while the fast
//! tier stays fixed at 64 GB (scaled: 1 GiB). The paper reports MEMTIS
//! beating the second-best by 8.1–60.5% as the RSS grows, with HeMem second
//! at the larger sizes — sampling scales where page-table scanning and
//! fault-based tracking do not.

use memtis_bench::{geomean, normalized, run_default, System, Table, TIME_COMPRESSION};
use memtis_sim::prelude::{MachineConfig, HUGE_PAGE_SIZE};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let bench = Benchmark::Graph500;
    let systems = [
        System::AutoNuma,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
    ];
    let rss_points_gb = [128.0, 192.0, 336.0, 690.0];
    let fast_bytes = 1u64 << 30; // 64 GB / 64.

    let mut header: Vec<String> = vec!["paper RSS (GB)".into(), "scaled RSS (GB)".into()];
    header.extend(systems.iter().map(|s| s.name().to_string()));
    header.push("memtis/2nd".into());
    let mut table = Table::new(header);
    let mut advantage = Vec::new();

    for rss_gb in rss_points_gb {
        // Scale chosen so the workload's total footprint hits the target.
        let scale = Scale(rss_gb / bench.paper_rss_gb() / 64.0);
        let rss = bench.spec(scale, 1).total_bytes();
        let capacity = rss * 2 + 64 * HUGE_PAGE_SIZE;
        let baseline = run_default(
            bench,
            scale,
            MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, capacity)
                .with_bandwidth_scale(TIME_COMPRESSION),
            System::AllNvm.build(),
            memtis_bench::access_budget(),
        )
        .0;
        let mut row = vec![
            format!("{rss_gb:.0}"),
            format!("{:.2}", rss as f64 / (1u64 << 30) as f64),
        ];
        let mut scores = Vec::new();
        for sys in systems {
            let machine = MachineConfig::dram_nvm(fast_bytes, capacity)
                .with_bandwidth_scale(TIME_COMPRESSION);
            let r = run_default(
                bench,
                scale,
                machine,
                sys.build(),
                memtis_bench::access_budget(),
            )
            .0;
            let n = normalized(&baseline, &r);
            scores.push(n);
            row.push(format!("{n:.3}"));
        }
        let memtis = *scores.last().unwrap();
        let second = scores[..scores.len() - 1]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        advantage.push(memtis / second);
        row.push(format!("{:+.1}%", (memtis / second - 1.0) * 100.0));
        table.row(row);
    }
    memtis_bench::emit(
        "fig6_scalability",
        "Graph500 with growing RSS, fixed fast tier (paper Fig. 6: MEMTIS +8.1%..+60.5%)",
        &table,
    );
    println!(
        "geomean MEMTIS advantage over second-best: {:+.1}%",
        (geomean(&advantage) - 1.0) * 100.0
    );
}
