//! Property test: the sharded burst pipeline is byte-identical to the
//! single-shard run over random benchmark cells.
//!
//! Each case picks a workload, system, shard count, chunk size, window
//! length, and optionally an active fault plan and a migration bandwidth
//! cap, then runs the same cell twice — once at `--shards 1` (the serial
//! oracle: same burst boundaries, one lane group) and once at the sampled
//! shard count — under a tracing observer. The `RunReport` (with host
//! wall-clock zeroed), the full exported JSONL event/window trace, and the
//! window series must render byte-for-byte identically.
//!
//! The oracle is `--shards 1` at the *same* chunk, not `shards: None`: the
//! sharded pipeline hoists tick/stretch boundaries to burst granularity
//! (a documented semantic deviation, see DESIGN.md §12), so its results
//! are compared shard-count-to-shard-count, where determinism is the claim.
//! Faulted and bandwidth-capped cases route through the serial fallback
//! gate, so they double as a regression check that the gate itself is
//! shard-count-invariant.

use memtis_bench::{machine_for, run_cell, CapacityKind, Ratio, SnapshotOpts, System, SEED};
use memtis_sim::obs::export_jsonl;
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale};
use proptest::prelude::*;

const BENCHES: [Benchmark; 4] = [
    Benchmark::Roms,
    Benchmark::Btree,
    Benchmark::Silo,
    Benchmark::XsBench,
];
// Every policy runs sharded bursts on quiet runs: MEMTIS and HeMem sample
// from the burst's records, the rest migrate from hint faults and ticks
// between bursts.
const SYSTEMS: [System; 11] = System::ALL;
const CHUNKS: [usize; 4] = [2, 7, 64, DEFAULT_CHUNK];

/// Render a report for comparison, ignoring only host wall-clock.
fn signature(mut report: RunReport) -> String {
    report.host_elapsed_ns = 0;
    format!("{report:?}")
}

#[allow(clippy::too_many_arguments)]
fn run_with_shards(
    bench: Benchmark,
    sys: System,
    shards: usize,
    chunk: usize,
    accesses: u64,
    window: u64,
    seed: u64,
    faults: Option<&str>,
    migration_bw: Option<f64>,
) -> (String, String, String) {
    let machine = machine_for(bench, Scale::TEST, Ratio::DEFAULT, CapacityKind::Nvm);
    let mut driver = DriverConfig {
        window_events: window,
        chunk,
        shards: Some(shards),
        migration_bw,
        ..memtis_bench::driver_config()
    };
    driver.faults = faults.map(|s| {
        memtis_sim::faults::FaultPlan::parse(s).expect("fault spec used by the test is valid")
    });
    let (report, sim) = run_cell(
        bench.spec(Scale::TEST, accesses),
        machine,
        sys.build(),
        TracingObserver::new(),
        driver,
        seed,
        &SnapshotOpts::default(),
    )
    .expect("run");
    let trace = export_jsonl(sim.observer(), &report.windows);
    let windows = format!("{:?}", report.windows);
    (signature(report), trace, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sharded_run_matches_serial_bit_exactly(
        bench_idx in 0usize..BENCHES.len(),
        sys_idx in 0usize..SYSTEMS.len(),
        chunk_idx in 0usize..CHUNKS.len(),
        shards in 1usize..9,
        accesses in 2_000u64..8_000,
        window in 500u64..3_000,
        seed_salt in 0u64..1_000_000,
        with_faults in proptest::bool::ANY,
        fault_seed in 1u64..100,
        with_bw in proptest::bool::ANY,
    ) {
        let bench = BENCHES[bench_idx];
        let sys = SYSTEMS[sys_idx];
        let chunk = CHUNKS[chunk_idx];
        let seed = SEED ^ seed_salt;
        let spec = format!("seed={fault_seed},abort=0.05,dirty=0.1,drop=0.05,outage=60000:20000");
        let faults = with_faults.then_some(spec.as_str());
        let migration_bw = with_bw.then_some(0.5);

        let (serial_report, serial_trace, serial_windows) = run_with_shards(
            bench, sys, 1, chunk, accesses, window, seed, faults, migration_bw,
        );
        let (sharded_report, sharded_trace, sharded_windows) = run_with_shards(
            bench, sys, shards, chunk, accesses, window, seed, faults, migration_bw,
        );

        prop_assert_eq!(serial_report, sharded_report);
        prop_assert_eq!(serial_trace, sharded_trace);
        prop_assert_eq!(serial_windows, sharded_windows);
    }
}
