//! Batched bursts under a migration bandwidth cap: the chunked driver must
//! reproduce the per-event loop (`chunk = 1`) byte for byte while the
//! asynchronous engine starts, completes, re-copies and aborts transfers.
//!
//! The cell is the benchmark's drifting-zipf shape (512 MiB, zipf 0.99, 16
//! phases, drift 0.5, base pages, 1:8 DRAM:NVM, copy bandwidth scaled by
//! 64 as the harness does), cut to a test-sized access budget. Each case
//! runs twice under a tracing observer; the reports (host time zeroed) and
//! the exported JSONL traces must be identical, and the engine must have
//! done real work, so a cell where no transfer runs cannot pass.

use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::obs::{export_jsonl, TracingObserver};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{SpecStream, SynthBuilder};

const SEED: u64 = 20231023;
const ACCESSES: u64 = 250_000;

struct Case {
    bandwidth: f64,
    stores: f64,
    hysteresis: bool,
}

struct Run {
    report: String,
    trace: String,
    migration: MigrationStats,
    cancels: u64,
}

fn run(case: &Case, chunk: usize) -> Run {
    let spec = SynthBuilder::new("zipf")
        .footprint(512 << 20)
        .zipf(0.99)
        .thp(false)
        .phases(16)
        .drift(0.5)
        .stores(case.stores)
        .build(ACCESSES);
    let rss = spec.total_bytes();
    let machine = MachineConfig::dram_nvm(
        (rss / 9).max(2 * HUGE_PAGE_SIZE),
        rss * 2 + 64 * HUGE_PAGE_SIZE,
    )
    .with_bandwidth_scale(64.0);
    let driver = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 150_000.0,
        window_events: 25_000,
        migration_bw: Some(case.bandwidth),
        hysteresis: case.hysteresis.then(HysteresisConfig::default),
        chunk,
        ..Default::default()
    };
    let mut sim = Simulation::with_observer(
        machine,
        MemtisPolicy::new(MemtisConfig::sim_scaled()),
        driver,
        TracingObserver::with_ring_capacity(1 << 20),
    );
    let mut report = sim
        .run(&mut SpecStream::new(spec, SEED))
        .expect("simulation should complete");
    report.host_elapsed_ns = 0;
    Run {
        trace: export_jsonl(sim.observer(), &report.windows),
        migration: report.stats.migration.clone(),
        cancels: sim.policy().stats.inflight_cancels,
        report: format!("{report:?}"),
    }
}

fn assert_batched_matches_per_event(case: Case) -> Run {
    let oracle = run(&case, 1);
    let batched = run(&case, DEFAULT_CHUNK);
    assert_eq!(oracle.report, batched.report, "reports diverge");
    assert!(oracle.trace == batched.trace, "JSONL traces diverge");

    let m = &oracle.migration;
    assert!(
        m.promoted_4k + m.demoted_4k > 0,
        "no transfer completed: {m:?}"
    );
    assert!(m.cancelled > 0, "no queued migration was cancelled: {m:?}");
    assert!(
        m.recopies + m.aborted > 0,
        "no copy pass was dirtied or aborted: {m:?}"
    );
    oracle
}

#[test]
fn batched_bursts_match_per_event_at_8_bytes_per_ns() {
    let oracle = assert_batched_matches_per_event(Case {
        bandwidth: 8.0,
        stores: 0.2,
        hysteresis: false,
    });
    // A policy abort mid-copy frees the link between two pumps.
    assert!(oracle.cancels > 0, "no in-flight transfer was cancelled");
}

#[test]
fn batched_bursts_match_per_event_on_a_slow_store_heavy_link() {
    assert_batched_matches_per_event(Case {
        bandwidth: 0.5,
        stores: 0.4,
        hysteresis: false,
    });
}

#[test]
fn batched_bursts_match_per_event_with_hysteresis() {
    let oracle = assert_batched_matches_per_event(Case {
        bandwidth: 8.0,
        stores: 0.2,
        hysteresis: true,
    });
    assert!(
        oracle.migration.promotion_backoffs > 0,
        "hysteresis never backed off"
    );
}
