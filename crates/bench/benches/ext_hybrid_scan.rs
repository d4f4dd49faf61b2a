//! §8 extension ablation — hybrid page-table scanning + PEBS sampling.
//!
//! The paper's stated limitation: event sampling cannot distinguish rarely
//! accessed pages from never-accessed ones, so demotion among them is
//! blind; it proposes supplementing sampling with page-table scanning. This
//! bench runs MEMTIS with and without the extension and reports the
//! performance delta, the number of scan-supplemented pages, and the extra
//! daemon cost the paper warns about ("runtime overhead without yielding
//! performance benefits" when the workload doesn't need it).

use memtis_bench::{machine_for, run_default, CapacityKind, Ratio, Table};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let mut table = Table::new(vec![
        "benchmark",
        "base wall (ms)",
        "hybrid wall (ms)",
        "perf delta",
        "scan-supplemented pages",
        "extra daemon (ms)",
    ]);
    for bench in Benchmark::ALL {
        let (base, _) = run_default(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled()),
            memtis_bench::access_budget(),
        );
        let (hybrid, hsim) = run_default(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled().with_hybrid_scan(16)),
            memtis_bench::access_budget(),
        );
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", base.wall_ns / 1e6),
            format!("{:.2}", hybrid.wall_ns / 1e6),
            format!("{:+.2}%", (base.wall_ns / hybrid.wall_ns - 1.0) * 100.0),
            hsim.policy().stats.scan_supplements.to_string(),
            format!("{:.2}", (hybrid.daemon_ns - base.daemon_ns) / 1e6),
        ]);
    }
    memtis_bench::emit(
        "ext_hybrid_scan",
        "§8 extension: PT scanning supplementing PEBS (future work, off by default)",
        &table,
    );
}
