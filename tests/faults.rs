//! Fault-injection integration: seeded fault plans must be deterministic,
//! inert plans must leave runs bit-exact, and faulted runs must preserve
//! every page-conservation invariant the fault-free engine guarantees.

use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::obs::{export_jsonl, validate_jsonl, CounterId, EventKind, TracingObserver};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};
use proptest::prelude::*;

const SEED: u64 = 1234;
const ACCESSES: u64 = 200_000;

fn machine_for(bench: Benchmark, ratio: u64) -> MachineConfig {
    let rss = (bench.paper_rss_gb() / 1024.0 * (1u64 << 30) as f64) as u64;
    let fast = (rss / (1 + ratio)).max(2 * HUGE_PAGE_SIZE);
    let mut cfg = MachineConfig::dram_nvm(fast, rss * 2 + 64 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    // Bandwidth-limit the link so transfers stay in flight long enough for
    // forced aborts / dirty injection / outages to have something to hit.
    cfg.migration.bandwidth_limit = Some(8.0);
    cfg
}

fn driver(faults: Option<FaultPlan>) -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        window_events: 25_000,
        faults,
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

fn spicy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        abort_per_pump: 0.02,
        dirty_per_pump: 0.05,
        sample_drop: 0.05,
        sample_dup: 0.05,
        tick_skip: 0.05,
        tick_delay: 0.05,
        outage: Some(OutageSpec {
            period_ns: 400_000.0,
            duration_ns: 50_000.0,
        }),
        pressure: Some(PressureSpec {
            period_ns: 600_000.0,
            duration_ns: 100_000.0,
            bytes: 2 * HUGE_PAGE_SIZE,
        }),
        ..FaultPlan::default()
    }
}

fn run_traced(bench: Benchmark, faults: Option<FaultPlan>) -> (RunReport, TracingObserver) {
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, ACCESSES), SEED);
    let mut sim = Simulation::with_observer(
        machine_for(bench, 8),
        MemtisPolicy::new(memtis_cfg()),
        driver(faults),
        TracingObserver::new(),
    );
    let report = sim.run(&mut wl).expect("simulation should complete");
    (report, sim.into_observer())
}

/// The deterministic signature of a run: everything except host wall time.
fn signature(r: &RunReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{:?}",
        r.wall_ns.to_bits(),
        r.stats,
        r.faults,
        r.hist_underflows,
        r.accesses,
        r.windows,
    )
}

#[test]
fn same_seed_same_plan_is_bit_identical() {
    let plan = spicy_plan(42);
    let (r1, o1) = run_traced(Benchmark::Silo, Some(plan));
    let (r2, o2) = run_traced(Benchmark::Silo, Some(plan));
    assert_eq!(
        signature(&r1),
        signature(&r2),
        "same seed + same fault plan must reproduce the run exactly"
    );
    let t1 = export_jsonl(&o1, &r1.windows);
    let t2 = export_jsonl(&o2, &r2.windows);
    assert_eq!(t1, t2, "traces must be byte-identical too");
}

#[test]
fn inert_plan_matches_no_plan_bit_exactly() {
    let (none, o_none) = run_traced(Benchmark::XsBench, None);
    // An all-zero plan is never installed, so this must take the exact same
    // code path as no plan at all.
    let (inert, o_inert) = run_traced(Benchmark::XsBench, Some(FaultPlan::default()));
    assert_eq!(signature(&none), signature(&inert));
    assert_eq!(
        export_jsonl(&o_none, &none.windows),
        export_jsonl(&o_inert, &inert.windows)
    );
    assert_eq!(none.faults, FaultCounters::default());
    assert_eq!(none.hist_underflows, 0);
}

#[test]
fn different_fault_seeds_diverge() {
    let (r1, _) = run_traced(Benchmark::Silo, Some(spicy_plan(1)));
    let (r2, _) = run_traced(Benchmark::Silo, Some(spicy_plan(2)));
    assert!(r1.faults.total() > 0, "plan 1 must inject something");
    assert!(r2.faults.total() > 0, "plan 2 must inject something");
    assert_ne!(
        signature(&r1),
        signature(&r2),
        "different fault seeds should perturb the run differently"
    );
}

#[test]
fn faulted_run_reaches_every_fault_class_and_stays_sound() {
    let (r, obs) = run_traced(Benchmark::Silo, Some(spicy_plan(7)));
    assert!(r.faults.sample_drops > 0, "{:?}", r.faults);
    assert!(r.faults.sample_dups > 0, "{:?}", r.faults);
    assert!(r.faults.tick_skips > 0, "{:?}", r.faults);
    assert!(r.faults.tick_delays > 0, "{:?}", r.faults);
    assert!(r.faults.link_outages > 0, "{:?}", r.faults);
    assert!(r.faults.pressure_spikes > 0, "{:?}", r.faults);
    // Aborts and dirty injections need in-flight transfers to hit; the
    // bandwidth-limited link guarantees some exist, but whether a given
    // roll lands on one is plan-dependent — require at least the attempt
    // counters to be plausible rather than every class.
    assert!(r.faults.total() > 0);
    // The run must stay internally consistent under fire.
    assert_eq!(r.hist_underflows, 0, "faults must not desync the histogram");
    assert!(r.accesses > 0);
    // Fault events made it into the trace pipeline.
    assert!(obs.registry.counter(CounterId::FaultsInjected) > 0);
    let seen_fault_event = obs
        .ring
        .iter()
        .any(|e| matches!(e.kind, EventKind::FaultInjected { .. }));
    assert!(seen_fault_event, "ring should retain fault events");
    let trace = export_jsonl(&obs, &r.windows);
    validate_jsonl(&trace).expect("faulted trace must still validate");
}

#[test]
fn policy_retries_aborted_promotions() {
    // Aggressive abort injection: any promotion that dies while its page is
    // still hot must be re-queued rather than forgotten.
    let plan = FaultPlan {
        seed: 11,
        abort_per_pump: 0.4,
        ..FaultPlan::default()
    };
    let mut wl = SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), SEED);
    let mut sim = Simulation::new(
        machine_for(Benchmark::Silo, 8),
        MemtisPolicy::new(memtis_cfg()),
        driver(Some(plan)),
    );
    let report = sim.run(&mut wl).expect("simulation should complete");
    assert!(report.faults.forced_aborts > 0, "{:?}", report.faults);
    let stats = sim.policy().stats.clone();
    assert!(
        stats.abort_retries > 0,
        "still-hot aborted promotions must be retried (aborts={})",
        report.faults.forced_aborts
    );
    assert!(
        stats.promoted_4k > 0,
        "promotions must still land despite the abort storm"
    );
}

// ---------------------------------------------------------------------------
// Faulted machine-level conservation (the PR 3 proptest, under fire).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AsyncOp {
    Enqueue(u64, bool),
    Pump(u64),
    Store(u64),
}

proptest! {
    /// With a randomized fault plan installed on the machine, arbitrary
    /// enqueue/pump/store interleavings still conserve pages: tier usage
    /// equals RSS plus in-flight reservations plus fault-injected pressure
    /// reservations, and draining returns usage to RSS + pressure.
    #[test]
    fn faulted_async_migrations_conserve_pages(
        plan_seed in 0u64..1_000_000,
        abort in 0.0f64..0.5,
        dirty in 0.0f64..0.5,
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..6, prop::bool::ANY).prop_map(|(p, f)| AsyncOp::Enqueue(p, f)),
                (1_000u64..3_000_000).prop_map(AsyncOp::Pump),
                (0u64..6).prop_map(AsyncOp::Store),
            ],
            1..80,
        )
    ) {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        let mut m = Machine::new(cfg);
        let plan = FaultPlan {
            seed: plan_seed,
            abort_per_pump: abort,
            dirty_per_pump: dirty,
            outage: Some(OutageSpec { period_ns: 500_000.0, duration_ns: 80_000.0 }),
            pressure: Some(PressureSpec {
                period_ns: 700_000.0,
                duration_ns: 200_000.0,
                bytes: HUGE_PAGE_SIZE,
            }),
            ..FaultPlan::default()
        };
        m.install_faults(&plan);
        for i in 0..6u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY).unwrap();
        }
        let rss = m.rss_bytes();
        let mut now = 0.0f64;
        let check = |m: &Machine| -> Result<(), TestCaseError> {
            prop_assert_eq!(m.rss_bytes(), rss);
            prop_assert_eq!(m.check_page_accounting(), Ok(()));
            prop_assert!(m.used_bytes(TierId::FAST) <= m.capacity_bytes(TierId::FAST));
            let mut frames = std::collections::HashSet::new();
            for i in 0..6u64 {
                let vp = VirtPage(i * 512);
                prop_assert!(m.locate(vp).is_some(), "page lost");
                let tr = m.translate(vp).expect("mapped");
                prop_assert!(frames.insert(tr.frame), "frame double-mapped");
            }
            Ok(())
        };
        for op in ops {
            match op {
                AsyncOp::Enqueue(p, to_fast) => {
                    let dst = if to_fast { TierId::FAST } else { TierId::CAPACITY };
                    let _ = m.enqueue_migration(VirtPage(p * 512), dst, 0, now);
                }
                AsyncOp::Pump(dt) => {
                    now += dt as f64;
                    let _ = m.pump_transfers(now);
                }
                AsyncOp::Store(p) => {
                    let _ = m.access(Access::store(p * HUGE_PAGE_SIZE + 64)).unwrap();
                }
            }
            check(&m)?;
        }
        // Drain. Forced aborts may keep firing, but every pump must make
        // the engine strictly emptier or leave it idle.
        for _ in 0..256 {
            if m.transfers_idle() {
                break;
            }
            now += 10_000_000.0;
            let _ = m.pump_transfers(now);
        }
        prop_assert!(m.transfers_idle(), "engine failed to drain under faults");
        check(&m)?;
    }
}

// ---------------------------------------------------------------------------
// Always-run mini chaos soak (the full ≥100-plan soak lives in the
// `chaos` bench binary; this keeps a slice of it in the test suite).
// ---------------------------------------------------------------------------

#[test]
fn chaos_soak_small() {
    let mut rng = FaultRng::new(0xC0FFEE);
    for i in 0..20 {
        let plan = FaultPlan {
            seed: rng.next_u64(),
            abort_per_pump: rng.next_f64() * 0.2,
            dirty_per_pump: rng.next_f64() * 0.2,
            sample_drop: rng.next_f64() * 0.2,
            sample_dup: rng.next_f64() * 0.2,
            tick_skip: rng.next_f64() * 0.2,
            tick_delay: rng.next_f64() * 0.2,
            outage: (rng.next_u64().is_multiple_of(2)).then(|| OutageSpec {
                period_ns: 200_000.0 + rng.next_f64() * 400_000.0,
                duration_ns: 20_000.0 + rng.next_f64() * 80_000.0,
            }),
            pressure: (rng.next_u64().is_multiple_of(2)).then(|| PressureSpec {
                period_ns: 300_000.0 + rng.next_f64() * 400_000.0,
                duration_ns: 50_000.0 + rng.next_f64() * 150_000.0,
                bytes: HUGE_PAGE_SIZE * (1 + rng.next_u64() % 3),
            }),
            ..FaultPlan::default()
        };
        let mut wl = SpecStream::new(Benchmark::Silo.spec(Scale::TEST, 60_000), SEED + i);
        let mut sim = Simulation::new(
            machine_for(Benchmark::Silo, 8),
            MemtisPolicy::new(memtis_cfg()),
            driver(Some(plan)),
        );
        let r = sim.run(&mut wl).expect("faulted run must complete");
        assert_eq!(r.hist_underflows, 0, "plan {i}: histogram desync {plan:?}");
        if let Err(e) = sim.machine().check_page_accounting() {
            panic!("plan {i}: {e} {plan:?}");
        }
    }
}
