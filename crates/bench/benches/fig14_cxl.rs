//! Figure 14 — emulated CXL memory as the capacity tier: MEMTIS vs TPP.
//!
//! With the smaller latency gap (177 ns vs 300 ns loads) the margins shrink
//! relative to the NVM case, but the paper still finds MEMTIS ahead of TPP
//! on every benchmark (up to +102.9% on PageRank).

use memtis_bench::{
    access_budget, normalized, run_baseline, run_system, CapacityKind, Ratio, System, Table,
};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let mut table = Table::new(vec!["benchmark", "ratio", "TPP", "MEMTIS", "memtis vs tpp"]);
    let mut worst: f64 = f64::MAX;
    let mut best: f64 = f64::MIN;
    for bench in Benchmark::ALL {
        let base = run_baseline(bench, scale, CapacityKind::Cxl, access_budget());
        for ratio in Ratio::MAIN {
            let tpp = run_system(bench, scale, ratio, CapacityKind::Cxl, System::Tpp);
            let memtis = run_system(bench, scale, ratio, CapacityKind::Cxl, System::Memtis);
            let (nt, nm) = (normalized(&base, &tpp), normalized(&base, &memtis));
            let adv = nm / nt - 1.0;
            worst = worst.min(adv);
            best = best.max(adv);
            table.row(vec![
                bench.name().to_string(),
                ratio.label(),
                format!("{nt:.3}"),
                format!("{nm:.3}"),
                format!("{:+.1}%", adv * 100.0),
            ]);
        }
    }
    memtis_bench::emit(
        "fig14_cxl",
        "CXL capacity tier: MEMTIS vs TPP across ratios (paper Fig. 14)",
        &table,
    );
    println!(
        "MEMTIS vs TPP advantage range: {:+.1}% .. {:+.1}%",
        worst * 100.0,
        best * 100.0
    );
}
