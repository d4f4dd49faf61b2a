//! Figure 10 — impact of the warm set and the huge-page split on
//! performance and migration traffic.
//!
//! Three MEMTIS variants per benchmark (1:8, NVM): vanilla (no split, no
//! warm set), +split, and +split+T_warm (full MEMTIS). The paper reports
//! the warm set cutting migration traffic by 2.7–64.8% and the split adding
//! performance on the skewed workloads (with a known regression on
//! 603.bwaves, where a large warm set delays freeing space for short-lived
//! allocations).

use memtis_bench::{
    access_budget, normalized, run_baseline, run_default, run_system, CapacityKind, Ratio, System,
    Table,
};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "vanilla perf",
        "w/ split perf",
        "w/ split+Twarm perf",
        "vanilla traffic (4K pages)",
        "w/ split traffic",
        "w/ split+Twarm traffic",
        "traffic vs vanilla",
    ]);
    for bench in Benchmark::ALL {
        let base = run_baseline(bench, scale, CapacityKind::Nvm, access_budget());
        let vanilla = run_system(
            bench,
            scale,
            ratio,
            CapacityKind::Nvm,
            System::MemtisVanilla,
        );
        // "w/ Split": split enabled, warm set still disabled.
        let split_only = {
            use memtis_core::{MemtisConfig, MemtisPolicy};
            let mut cfg = MemtisConfig::sim_scaled();
            cfg.warm_set = false;
            let machine = memtis_bench::machine_for(bench, scale, ratio, CapacityKind::Nvm);
            run_default(
                bench,
                scale,
                machine,
                MemtisPolicy::new(cfg),
                memtis_bench::access_budget(),
            )
            .0
        };
        let full = run_system(bench, scale, ratio, CapacityKind::Nvm, System::Memtis);
        let t0 = vanilla.stats.migration.traffic_4k().max(1);
        let t1 = split_only.stats.migration.traffic_4k();
        let t2 = full.stats.migration.traffic_4k();
        table.row(vec![
            bench.name().to_string(),
            format!("{:.3}", normalized(&base, &vanilla)),
            format!("{:.3}", normalized(&base, &split_only)),
            format!("{:.3}", normalized(&base, &full)),
            t0.to_string(),
            t1.to_string(),
            t2.to_string(),
            format!("{:+.1}%", (t2 as f64 / t0 as f64 - 1.0) * 100.0),
        ]);
    }
    memtis_bench::emit(
        "fig10_ablation",
        "warm set + huge-page split ablation at 1:8 (paper Fig. 10)",
        &table,
    );
}
