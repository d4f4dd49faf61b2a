//! Table 2 — benchmark characteristics: RSS and huge-page ratio (RHP),
//! measured in the simulator and compared against the paper's testbed
//! values (sizes scaled 1/64).

use memtis_bench::{machine_all_fast, run_default, Table};
use memtis_sim::prelude::{NoopPolicy, HUGE_PAGE_SIZE};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let mut t = Table::new(vec![
        "benchmark",
        "paper RSS (GB)",
        "scaled RSS (MB)",
        "measured RSS (MB)",
        "paper RHP",
        "measured RHP",
        "description",
    ]);
    for bench in Benchmark::ALL {
        // Enough accesses to get through all allocation phases.
        let (report, sim) = run_default(
            bench,
            scale,
            machine_all_fast(bench, scale),
            NoopPolicy,
            400_000,
        );
        let huge_bytes = sim.machine().mapped_huge_pages() * HUGE_PAGE_SIZE;
        let rss = report.rss_peak_bytes.max(sim.machine().rss_bytes());
        let rhp = huge_bytes as f64 / sim.machine().rss_bytes().max(1) as f64;
        t.row(vec![
            bench.name().to_string(),
            format!("{:.1}", bench.paper_rss_gb()),
            format!("{:.0}", bench.paper_rss_gb() * 1024.0 / 64.0),
            format!("{:.0}", rss as f64 / (1 << 20) as f64),
            format!("{:.1}%", bench.paper_rhp() * 100.0),
            format!("{:.1}%", rhp * 100.0),
            bench.description().to_string(),
        ]);
    }
    memtis_bench::emit(
        "table2_benchmarks",
        "benchmark characteristics (paper Table 2, sizes scaled 1/64)",
        &t,
    );
}
