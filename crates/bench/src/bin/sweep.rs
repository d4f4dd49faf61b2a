//! `sweep` — parallel experiment sweep CLI.
//!
//! ```text
//! sweep [--jobs N] [--systems memtis,tpp,...] [--benches roms,btree,...]
//!       [--ratios 1:8,1:16] [--seeds K] [--accesses N] [--window EVENTS]
//!       [--cxl] [--test-scale] [--migration-bw BYTES_PER_NS]
//!       [--migration-queue DEPTH] [--faults SPEC] [--chunk N] [--shards S|auto]
//!       [--shadow] [--hysteresis on|WINDOW:BASE:MAX]
//! ```
//!
//! Runs the (policy × workload × ratio × seed) matrix across worker
//! threads, prints the merged table, writes `sweep.csv` and
//! `BENCH_sweep.json` under `target/experiments/`, and reports the
//! parallel-scaling numbers. Defaults: the paper's Fig. 5 systems over all
//! benchmarks at 1:8, one seed, `--jobs` = available cores. A malformed
//! flag exits 2 before anything runs.

use memtis_bench::sweep::{emit_sweep, matrix, run_sweep, SweepConfig};
use memtis_bench::{
    access_budget, benchmark_from_name, cli, driver_config, CapacityKind, Ratio, System,
};
use memtis_workloads::Benchmark;

const USAGE: &str = "usage: sweep [--jobs N] [--systems a,b,..] [--benches x,y,..] \
     [--ratios F:C,..] [--seeds K] [--accesses N] [--window EVENTS] \
     [--cxl] [--test-scale] [--migration-bw BYTES_PER_NS] \
     [--migration-queue DEPTH] [--faults SPEC] [--chunk N] [--shards S|auto] \
     [--shadow] [--hysteresis on|WINDOW:BASE:MAX]";

/// The shared flags `sweep` accepts.
const SHARED: [&str; 9] = [
    "--window",
    "--test-scale",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--shards",
    "--shadow",
    "--hysteresis",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut systems: Vec<System> = System::FIG5.to_vec();
    let mut benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
    let mut ratios = vec![Ratio::DEFAULT];
    let mut seeds: u32 = 1;
    let mut kind = CapacityKind::Nvm;
    let mut accesses = cli::or_exit(access_budget(), USAGE);
    let flags = cli::parse(&args, &SHARED, driver_config(), |arg, a| {
        match arg {
            "--jobs" => jobs = a.value(arg)?,
            "--systems" => systems = a.with(arg, |v| cli::list(v, System::from_name))?,
            "--benches" => benches = a.with(arg, |v| cli::list(v, benchmark_from_name))?,
            "--ratios" => ratios = a.with(arg, |v| cli::list(v, Ratio::parse))?,
            "--seeds" => seeds = a.value(arg)?,
            "--accesses" => accesses = a.value(arg)?,
            "--cxl" => kind = CapacityKind::Cxl,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let flags = cli::or_exit(flags, USAGE);

    // `--shards auto` falls back to serial whenever the cells would
    // (active fault plans, migration bandwidth caps, shadow migration,
    // batch-unsafe policies, per-event chunks, or a single-core host).
    let driver = flags.driver(systems.iter().all(|s| s.build().batch_safe()));
    // Intra-run sharding multiplies the sweep's thread demand: warn when
    // jobs x shards oversubscribes the host (results are unchanged, only
    // slower than a better-matched combination).
    let shards = driver.shards.unwrap_or(1).max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total_threads = jobs.max(1) * shards;
    if total_threads > host_cores {
        eprintln!(
            "warning: --jobs {} x --shards {} = {} threads oversubscribes {} host core(s); \
             consider lowering one of them",
            jobs.max(1),
            shards,
            total_threads,
            host_cores
        );
    }
    let cfg = SweepConfig {
        scale: flags.scale,
        accesses,
        driver,
    };
    let cells = matrix(&systems, &benches, &ratios, kind, seeds.max(1), &cfg);
    println!(
        "sweep: {} cells ({} systems x {} benches x {} ratios x {} seeds), {} jobs, {} accesses/cell",
        cells.len(),
        systems.len(),
        benches.len(),
        ratios.len(),
        seeds.max(1),
        jobs,
        accesses
    );
    if let Some(banner) = flags.modes_banner() {
        println!("{banner}");
    }
    let result = run_sweep(&cells, jobs);
    emit_sweep("sweep", &result);
}
