//! Figure 11 — Silo and Btree throughput over time with and without the
//! skewness-aware split (1:8 configuration).
//!
//! MEMTIS detects the skewed huge pages in the fast tier partway through
//! the run and starts splintering them; after a short dip the throughput
//! overtakes both MEMTIS-NS (no split) and the best fault-based system.
//! For Btree, splitting also reclaims THP bloat (RSS 38.3 → 27.2 GB in the
//! paper).

use memtis_bench::{machine_for, run_default, run_system, CapacityKind, Ratio, System, Table};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut summary = Table::new(vec![
        "benchmark",
        "MEMTIS thpt (M/s)",
        "MEMTIS-NS thpt (M/s)",
        "Tiering-0.8 thpt (M/s)",
        "split gain",
        "splits",
        "RSS MEMTIS (MB)",
        "RSS MEMTIS-NS (MB)",
    ]);
    for bench in [Benchmark::Silo, Benchmark::Btree] {
        let machine = machine_for(bench, scale, ratio, CapacityKind::Nvm);
        let (memtis_r, memtis_sim) = run_default(
            bench,
            scale,
            machine.clone(),
            MemtisPolicy::new(MemtisConfig::sim_scaled()),
            memtis_bench::access_budget(),
        );
        let ns_r = run_system(bench, scale, ratio, CapacityKind::Nvm, System::MemtisNs);
        let t08_r = run_system(bench, scale, ratio, CapacityKind::Nvm, System::Tiering08);

        // Throughput-over-time CSV (the paper's line chart), from the
        // shared telemetry window collector.
        let mut csv = Table::new(vec![
            "time_ns",
            "memtis_mps",
            "memtis_ns_mps",
            "tiering08_mps",
            "memtis_splits",
        ]);
        let series = |r: &memtis_sim::driver::RunReport, i: usize| {
            r.windows.get(i).map(|w| w.window_throughput / 1e6)
        };
        let splits_at = |i: usize| memtis_r.windows.get(i).and_then(|w| w.gauge("splits"));
        let len = memtis_r
            .windows
            .len()
            .max(ns_r.windows.len())
            .max(t08_r.windows.len());
        for i in 0..len {
            csv.row(vec![
                memtis_r
                    .windows
                    .get(i)
                    .map(|w| format!("{:.0}", w.wall_ns))
                    .unwrap_or_default(),
                series(&memtis_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                series(&ns_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                series(&t08_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                splits_at(i).map(|v| format!("{v:.0}")).unwrap_or_default(),
            ]);
        }
        memtis_bench::emit(
            &format!("fig11_timeline_{}", bench.name().to_lowercase()),
            &format!("throughput over time, {} 1:8", bench.name()),
            &csv,
        );

        summary.row(vec![
            bench.name().to_string(),
            format!("{:.1}", memtis_r.throughput() / 1e6),
            format!("{:.1}", ns_r.throughput() / 1e6),
            format!("{:.1}", t08_r.throughput() / 1e6),
            format!(
                "{:+.1}%",
                (memtis_r.throughput() / ns_r.throughput() - 1.0) * 100.0
            ),
            memtis_sim.policy().stats.splits.to_string(),
            format!("{:.0}", memtis_r.rss_final_bytes as f64 / (1 << 20) as f64),
            format!("{:.0}", ns_r.rss_final_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    memtis_bench::emit(
        "fig11_split_timeline",
        "Silo/Btree over time: MEMTIS vs MEMTIS-NS vs Tiering-0.8 (paper Fig. 11: +10.6%/+10.4%)",
        &summary,
    );
}
