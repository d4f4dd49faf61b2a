//! Property test: the chunked driver pipeline is byte-identical to the
//! legacy per-event loop over random benchmark cells.
//!
//! Each case picks a workload, system, chunk size, window length, and
//! optionally a fault plan and a migration bandwidth cap, then runs the
//! same cell twice — once at `chunk = 1` (the per-event oracle) and once
//! at the sampled chunk size — under a tracing observer. The `RunReport`
//! (with host wall-clock zeroed) and the full exported JSONL event/window
//! trace must render byte-for-byte identically.

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
// Memtis exercises the deferred batch-safe path; TPP and HeMem run their
// samples inline through the chunked-but-per-event dispatch.
const SYSTEMS: [System; 3] = [System::Memtis, System::Tpp, System::Hemem];
const CHUNKS: [usize; 4] = [2, 7, 64, DEFAULT_CHUNK];

/// Render a report for comparison, ignoring only host wall-clock.
fn signature(mut report: RunReport) -> String {
    report.host_elapsed_ns = 0;
    format!("{report:?}")
}

#[allow(clippy::too_many_arguments)]
fn run_with_chunk(
    bench: Benchmark,
    sys: System,
    chunk: usize,
    accesses: u64,
    window: u64,
    seed: u64,
    faults: Option<&str>,
    migration_bw: Option<f64>,
) -> (String, String) {
    let machine = machine_for(bench, Scale::TEST, Ratio::DEFAULT, CapacityKind::Nvm);
    let mut driver = DriverConfig {
        window_events: window,
        chunk,
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
    (signature(report), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_pipeline_matches_per_event_oracle(
        bench_idx in 0usize..BENCHES.len(),
        sys_idx in 0usize..SYSTEMS.len(),
        chunk_idx in 0usize..CHUNKS.len(),
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

        let (oracle_report, oracle_trace) =
            run_with_chunk(bench, sys, 1, accesses, window, seed, faults, migration_bw);
        let (batched_report, batched_trace) =
            run_with_chunk(bench, sys, chunk, accesses, window, seed, faults, migration_bw);

        prop_assert_eq!(oracle_report, batched_report);
        prop_assert_eq!(oracle_trace, batched_trace);
    }
}
