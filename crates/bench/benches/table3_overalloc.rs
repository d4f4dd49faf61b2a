//! Table 3 — HeMem over-allocation sizes.
//!
//! HeMem places small (non-huge-mmap) allocations directly in the fast
//! tier, bypassing tiering; the paper measures this "over-allocation" per
//! benchmark and shrinks HeMem's configured fast tier to compensate. Here
//! the same quantity is read from the HeMem policy's own accounting.

use memtis_baselines::{HememConfig, HememPolicy};
use memtis_bench::{machine_for, run_default, CapacityKind, Ratio, Table};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 2,
    };
    let mut t = Table::new(vec![
        "benchmark",
        "paper over-allocation (MB)",
        "measured (MB, 1/64 scale)",
        "measured x64 (MB, paper scale)",
    ]);
    let paper_mb: [(Benchmark, u64); 8] = [
        (Benchmark::Graph500, 60),
        (Benchmark::PageRank, 500),
        (Benchmark::XsBench, 420),
        (Benchmark::Liblinear, 90),
        (Benchmark::Silo, 1400),
        (Benchmark::Btree, 9800),
        (Benchmark::Bwaves, 1900),
        (Benchmark::Roms, 900),
    ];
    for (bench, paper) in paper_mb {
        let (_report, sim) = run_default(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            HememPolicy::new(HememConfig::default()),
            300_000,
        );
        let measured = sim.policy().overallocated_bytes;
        t.row(vec![
            bench.name().to_string(),
            format!("{paper}"),
            format!("{:.1}", measured as f64 / (1 << 20) as f64),
            format!("{:.0}", measured as f64 * 64.0 / (1 << 20) as f64),
        ]);
    }
    memtis_bench::emit(
        "table3_overalloc",
        "HeMem small-allocation over-allocation sizes (paper Table 3)",
        &t,
    );
}
