//! Observability integration: tracing must never change simulation results,
//! traces must be deterministic, and the exporters must produce output that
//! passes their own validators.

use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::obs::{
    export_jsonl, export_perfetto, validate_jsonl, validate_perfetto, CounterId, EventKind,
    TracingObserver,
};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};

const SEED: u64 = 1234;
const ACCESSES: u64 = 300_000;

fn machine_for(bench: Benchmark, ratio: u64) -> MachineConfig {
    let rss = (bench.paper_rss_gb() / 1024.0 * (1u64 << 30) as f64) as u64;
    let fast = (rss / (1 + ratio)).max(2 * HUGE_PAGE_SIZE);
    let mut cfg = MachineConfig::dram_nvm(fast, rss * 2 + 64 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    cfg
}

fn driver() -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        window_events: 25_000,
        ..Default::default()
    }
}

fn memtis_cfg() -> MemtisConfig {
    MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 500,
        cooling_interval: 10_000,
        min_estimate_samples: 2_000,
        control_interval: 1_000,
        sample_cost_ns: 2.0,
        ..MemtisConfig::sim_scaled()
    }
}

fn run_untraced(bench: Benchmark) -> RunReport {
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, ACCESSES), SEED);
    let mut sim = Simulation::new(
        machine_for(bench, 8),
        MemtisPolicy::new(memtis_cfg()),
        driver(),
    );
    sim.run(&mut wl).expect("simulation should complete")
}

fn run_traced(bench: Benchmark) -> (RunReport, TracingObserver) {
    run_traced_with(bench, TracingObserver::new())
}

fn run_traced_with(bench: Benchmark, obs: TracingObserver) -> (RunReport, TracingObserver) {
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, ACCESSES), SEED);
    let mut sim = Simulation::with_observer(
        machine_for(bench, 8),
        MemtisPolicy::new(memtis_cfg()),
        driver(),
        obs,
    );
    let report = sim.run(&mut wl).expect("simulation should complete");
    (report, sim.into_observer())
}

#[test]
fn tracing_does_not_change_simulation_results() {
    let plain = run_untraced(Benchmark::XsBench);
    let (traced, obs) = run_traced(Benchmark::XsBench);
    assert_eq!(plain.wall_ns.to_bits(), traced.wall_ns.to_bits());
    assert_eq!(plain.accesses, traced.accesses);
    assert_eq!(
        format!("{:?}", plain.stats),
        format!("{:?}", traced.stats),
        "machine stats must be identical with and without an observer"
    );
    assert_eq!(plain.windows, traced.windows);
    // The windowed series is produced even without an observer.
    assert!(!plain.windows.is_empty());
    // And the traced run actually recorded something.
    assert!(obs.registry.counter(CounterId::EventsRecorded) > 0);
    // The flight recorder exists only on the traced run; the untraced
    // report is unchanged from the pre-flight-recorder format.
    assert!(plain.lat.is_empty());
    assert!(plain.lat_windows.is_empty());
    assert!(!traced.lat.is_empty());
    assert_eq!(traced.lat_windows.len(), traced.windows.len());
}

/// Without an observer the machine must not even allocate a flight
/// recorder — the untraced hot path stays a single `Option` branch.
#[test]
fn untraced_run_attaches_no_flight_recorder() {
    let mut wl = SpecStream::new(Benchmark::XsBench.spec(Scale::TEST, 50_000), SEED);
    let mut sim = Simulation::new(
        machine_for(Benchmark::XsBench, 8),
        MemtisPolicy::new(memtis_cfg()),
        driver(),
    );
    sim.run(&mut wl).expect("simulation should complete");
    assert!(sim.flight().is_none());
    assert!(sim.observer().profiler().is_none());
}

/// The per-window latency series must tile the whole-run histograms: counts
/// sum across windows to the run totals, and percentiles are ordered.
#[test]
fn flight_recorder_windows_tile_the_run() {
    let (report, _) = run_traced(Benchmark::XsBench);
    let whole: std::collections::BTreeMap<&str, f64> =
        report.lat.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert!(whole["demand_count"] > 0.0);
    assert!(whole["demand_p50_ns"] <= whole["demand_p90_ns"]);
    assert!(whole["demand_p90_ns"] <= whole["demand_p99_ns"]);
    assert!(whole["demand_p99_ns"] <= whole["demand_p999_ns"]);
    assert!(whole["demand_p999_ns"] <= whole["demand_max_ns"]);
    for class in ["demand", "transfer", "queue_wait", "abort_retry"] {
        let key = format!("{class}_count");
        let windowed: f64 = report
            .lat_windows
            .iter()
            .flat_map(|rows| rows.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum();
        // Accesses after the final window cut are only in the run total.
        assert!(
            windowed <= whole[key.as_str()],
            "{key}: windowed {windowed} > whole-run {}",
            whole[key.as_str()]
        );
    }
}

/// Sharded execution records demand latencies through the coordinator fold;
/// the resulting histograms must match the single-shard oracle exactly (the
/// repo's determinism contract: `--shards N` reproduces `--shards 1` at the
/// same chunk), so every derived report row is bit-equal.
#[test]
fn sharded_flight_histograms_match_serial_oracle() {
    let run = |shards: Option<usize>| {
        let mut wl = SpecStream::new(Benchmark::XsBench.spec(Scale::TEST, ACCESSES), SEED);
        let mut cfg = driver();
        cfg.shards = shards;
        let mut sim = Simulation::with_observer(
            machine_for(Benchmark::XsBench, 8),
            MemtisPolicy::new(memtis_cfg()),
            cfg,
            TracingObserver::new(),
        );
        sim.run(&mut wl).expect("simulation should complete")
    };
    let oracle = run(Some(1));
    for n in [2usize, 3] {
        let sharded = run(Some(n));
        assert_eq!(
            format!("{:?}", oracle.lat),
            format!("{:?}", sharded.lat),
            "shards={n}: flight-recorder rows must match the single-shard oracle"
        );
        assert_eq!(
            format!("{:?}", oracle.lat_windows),
            format!("{:?}", sharded.lat_windows),
            "shards={n}: per-window latency series must match the single-shard oracle"
        );
    }
}

/// With a ring large enough to drop nothing, every registry counter must
/// equal the count of the events that feed it.
#[test]
fn trace_contains_the_expected_event_kinds() {
    let (_, obs) = run_traced_with(
        Benchmark::XsBench,
        TracingObserver::with_ring_capacity(1 << 20),
    );
    let counter = |id: CounterId| obs.registry.counter(id);
    assert_eq!(
        counter(CounterId::EventsDropped),
        0,
        "ring must retain every event"
    );
    let mut promotions = 0u64;
    let mut coolings = 0u64;
    let mut recomputes = 0u64;
    let mut batches = 0u64;
    let mut shootdowns = 0u64;
    for e in obs.ring.iter() {
        assert!(e.t_ns >= 0.0);
        match e.kind {
            EventKind::Promotion { .. } => promotions += 1,
            EventKind::MigrationCompleted { from, to, .. } if to < from => promotions += 1,
            EventKind::CoolingTick { .. } => coolings += 1,
            EventKind::ThresholdRecompute { .. } => recomputes += 1,
            EventKind::SampleBatch { .. } => batches += 1,
            EventKind::TlbShootdown { .. } => shootdowns += 1,
            _ => {}
        }
    }
    assert_eq!(counter(CounterId::EventsRecorded), obs.ring.len() as u64);
    assert_eq!(counter(CounterId::Promotions), promotions);
    assert_eq!(counter(CounterId::CoolingTicks), coolings);
    assert_eq!(counter(CounterId::ThresholdRecomputes), recomputes);
    assert_eq!(counter(CounterId::SampleBatches), batches);
    assert_eq!(counter(CounterId::TlbShootdowns), shootdowns);
    // The run exercises every kind checked above.
    for (kind, n) in [
        ("promotion", promotions),
        ("cooling", coolings),
        ("threshold recompute", recomputes),
        ("sample batch", batches),
        ("shootdown", shootdowns),
    ] {
        assert!(n > 0, "no {kind} events recorded");
    }
}

#[test]
fn jsonl_export_is_byte_identical_across_same_seed_runs() {
    let (r1, o1) = run_traced(Benchmark::Silo);
    let (r2, o2) = run_traced(Benchmark::Silo);
    let t1 = export_jsonl(&o1, &r1.windows);
    let t2 = export_jsonl(&o2, &r2.windows);
    assert_eq!(t1, t2, "same seed must produce a byte-identical trace");
    let summary = validate_jsonl(&t1).expect("exported JSONL must validate");
    assert!(summary.events > 0);
    assert_eq!(summary.windows, r1.windows.len());
}

/// A traced, faulted run with both engine modes on emits the mode event
/// kinds, and its JSONL export passes the validator.
#[test]
fn engine_mode_trace_validates() {
    let bench = Benchmark::Graph500;
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, ACCESSES), SEED);
    let cfg = DriverConfig {
        migration_bw: Some(8.0),
        shadow: true,
        hysteresis: Some(HysteresisConfig::default()),
        faults: Some(FaultPlan {
            seed: 7,
            abort_per_pump: 0.02,
            dirty_per_pump: 0.05,
            sample_drop: 0.05,
            ..FaultPlan::default()
        }),
        ..driver()
    };
    let mut sim = Simulation::with_observer(
        machine_for(bench, 8).with_bandwidth_scale(64.0),
        MemtisPolicy::new(memtis_cfg()),
        cfg,
        TracingObserver::with_ring_capacity(1 << 20),
    );
    let report = sim.run(&mut wl).expect("simulation should complete");
    let trace = export_jsonl(sim.observer(), &report.windows);
    for kind in ["shadow_reclaimed", "promotion_backoff", "fault_injected"] {
        assert!(
            trace.contains(&format!(r#""kind":"{kind}""#)),
            "no {kind} events in the trace"
        );
    }
    let summary = validate_jsonl(&trace).expect("engine-mode JSONL must validate");
    assert_eq!(summary.windows, report.windows.len());
}

#[test]
fn perfetto_export_validates() {
    let (r, o) = run_traced(Benchmark::Liblinear);
    let trace = export_perfetto(&o, &r.windows);
    let n = validate_perfetto(&trace).expect("exported Perfetto JSON must validate");
    assert!(n > 0);
}

// ---- Flight-recorder merge properties (proptest) ----

use memtis_repro::obs::LatHist;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-window histograms is bit-exactly the whole-run
    /// histogram, for arbitrary latency streams and window boundaries —
    /// the property the per-window percentile series rests on.
    #[test]
    fn per_window_lathist_merge_equals_whole_run(
        lats in prop::collection::vec(0u64..3_000_000u64, 1..512),
        cuts in prop::collection::vec(0usize..513, 0..8),
    ) {
        let mut cuts = cuts;
        cuts.retain(|&c| c <= lats.len());
        cuts.sort_unstable();
        let mut whole = LatHist::new();
        for &v in &lats {
            whole.record_ns(v as f64);
        }
        let mut merged = LatHist::new();
        let mut start = 0usize;
        for end in cuts.into_iter().chain(std::iter::once(lats.len())) {
            let mut w = LatHist::new();
            for &v in &lats[start..end] {
                w.record_ns(v as f64);
            }
            merged.merge(&w);
            start = end;
        }
        prop_assert_eq!(merged, whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded runs feed the flight recorder through the coordinator fold;
    /// for arbitrary shard counts and window sizes the recorded rows (and
    /// the per-window series) must be bit-equal to the `--shards 1` oracle
    /// — the same determinism contract the report/trace byte-compares pin.
    #[test]
    fn sharded_lathists_merge_to_serial_oracle_prop(
        shards in 2usize..9,
        window in prop_oneof![Just(10_000u64), Just(25_000u64)],
    ) {
        let run = |s: Option<usize>| {
            let mut wl =
                SpecStream::new(Benchmark::XsBench.spec(Scale::TEST, 100_000), SEED);
            let mut cfg = driver();
            cfg.window_events = window;
            cfg.shards = s;
            let mut sim = Simulation::with_observer(
                machine_for(Benchmark::XsBench, 8),
                MemtisPolicy::new(memtis_cfg()),
                cfg,
                TracingObserver::new(),
            );
            sim.run(&mut wl).expect("simulation should complete")
        };
        let oracle = run(Some(1));
        let sharded = run(Some(shards));
        prop_assert_eq!(
            format!("{:?}", oracle.lat),
            format!("{:?}", sharded.lat)
        );
        prop_assert_eq!(
            format!("{:?}", oracle.lat_windows),
            format!("{:?}", sharded.lat_windows)
        );
    }
}
