//! Checkpoint/restore oracle: a run interrupted at an arbitrary event
//! boundary, snapshotted, restored into a freshly built simulation, and
//! resumed must produce a byte-identical [`RunReport`] (windows and timeline
//! included) versus the uninterrupted run — across every stateful policy,
//! batched and sharded execution, and active fault injection.

use memtis_repro::baselines::{
    AutoNumaConfig, AutoNumaPolicy, AutoTieringConfig, AutoTieringPolicy, HememConfig, HememPolicy,
    NimbleConfig, NimblePolicy, StaticPolicy, Tiering08Config, Tiering08Policy, TppConfig,
    TppPolicy,
};
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};
use proptest::prelude::*;

const SEED: u64 = 0x5EED_CAFE;
const ACCESSES: u64 = 30_000;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 256 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    // Slow link: transfers stay in flight across checkpoints, so snapshots
    // must carry the migration engine's state to resume bit-exactly.
    cfg.migration.bandwidth_limit = Some(4.0);
    cfg
}

fn driver(chunk: usize, shards: Option<usize>, faults: Option<FaultPlan>) -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 150_000.0,
        window_events: 7_000,
        chunk,
        shards,
        faults,
        ..Default::default()
    }
}

fn plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        abort_per_pump: 0.05,
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

fn memtis_policy() -> Box<dyn TieringPolicy> {
    Box::new(MemtisPolicy::new(MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 500,
        cooling_interval: 5_000,
        min_estimate_samples: 1_000,
        control_interval: 1_000,
        sample_cost_ns: 2.0,
        ..MemtisConfig::sim_scaled()
    }))
}

fn tpp_policy() -> Box<dyn TieringPolicy> {
    Box::new(TppPolicy::new(TppConfig {
        sweep_rounds: 8,
        ..Default::default()
    }))
}

fn hemem_policy() -> Box<dyn TieringPolicy> {
    Box::new(HememPolicy::new(HememConfig {
        load_period: 4,
        store_period: 64,
        hot_threshold: 4,
        cool_threshold: 16,
        ..Default::default()
    }))
}

fn autonuma_policy() -> Box<dyn TieringPolicy> {
    Box::new(AutoNumaPolicy::new(AutoNumaConfig { sweep_rounds: 8 }))
}

fn autotiering_policy() -> Box<dyn TieringPolicy> {
    Box::new(AutoTieringPolicy::new(AutoTieringConfig {
        sweep_rounds: 8,
        shift_every_ticks: 2,
        ..Default::default()
    }))
}

fn tiering08_policy() -> Box<dyn TieringPolicy> {
    Box::new(Tiering08Policy::new(Tiering08Config {
        sweep_rounds: 8,
        ..Default::default()
    }))
}

fn nimble_policy() -> Box<dyn TieringPolicy> {
    Box::new(NimblePolicy::new(NimbleConfig {
        scan_every_ticks: 2,
        ..Default::default()
    }))
}

type MkPolicy = fn() -> Box<dyn TieringPolicy>;

/// Every policy with mutable state, in a fixed order.
const STATEFUL: [(&str, MkPolicy); 7] = [
    ("memtis", memtis_policy),
    ("tpp", tpp_policy),
    ("hemem", hemem_policy),
    ("autonuma", autonuma_policy),
    ("autotiering", autotiering_policy),
    ("tiering08", tiering08_policy),
    ("nimble", nimble_policy),
];

fn stream() -> SpecStream {
    SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), SEED)
}

/// Everything in the report except host wall-clock time must match.
fn report_sig(mut r: RunReport) -> String {
    r.host_elapsed_ns = 0;
    format!("{r:?}")
}

/// Runs the full matrix cell once uninterrupted and once interrupted at
/// `pause_at` events (snapshot → fresh sim → restore → resume), asserting
/// byte-identical reports.
fn oracle(
    mk_policy: &dyn Fn() -> Box<dyn TieringPolicy>,
    chunk: usize,
    shards: Option<usize>,
    faults: Option<FaultPlan>,
    pause_at: u64,
) -> Result<(), TestCaseError> {
    let full = {
        let mut sim = Simulation::new(machine(), mk_policy(), driver(chunk, shards, faults));
        report_sig(sim.run(&mut stream()).expect("uninterrupted run completes"))
    };

    let mut sim = Simulation::new(machine(), mk_policy(), driver(chunk, shards, faults));
    let mut wl = stream();
    let resumed_report = match sim
        .run_until(&mut wl, Some(pause_at))
        .expect("run to pause")
    {
        // Pause point landed past the end of the stream: nothing to resume.
        Some(report) => report,
        None => {
            prop_assert!(sim.is_paused());
            let bytes = sim.snapshot();
            drop(sim);
            drop(wl);
            let mut resumed =
                Simulation::new(machine(), mk_policy(), driver(chunk, shards, faults));
            resumed.restore(&bytes).expect("restore succeeds");
            // A fresh stream from event zero: run_until fast-forwards it to
            // the snapshot's position before executing anything.
            resumed
                .run_until(&mut stream(), None)
                .expect("resumed run completes")
                .expect("resumed run reaches the end")
        }
    };
    prop_assert_eq!(
        full,
        report_sig(resumed_report),
        "interrupt at {} diverged (chunk={}, shards={:?})",
        pause_at,
        chunk,
        shards
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random pause points across the policy × chunked × sharded × faulted
    /// matrix: every interruption must be invisible in the final report.
    #[test]
    fn interrupted_runs_resume_bit_exactly(
        pause_frac in 0.05f64..0.95,
        policy_ix in 0usize..STATEFUL.len(),
        chunked in prop::bool::ANY,
        sharded in prop::bool::ANY,
        faulted in prop::bool::ANY,
    ) {
        let mk_policy = STATEFUL[policy_ix].1;
        let chunk = if chunked { DEFAULT_CHUNK } else { 1 };
        // Sharding requires batched execution.
        let shards = (chunked && sharded).then_some(2);
        let faults = faulted.then(plan);
        let pause_at = (ACCESSES as f64 * pause_frac) as u64;
        oracle(&mk_policy, chunk, shards, faults, pause_at.max(1))?;
    }
}

/// Every policy — the seven stateful ones and the stateless static and
/// first-touch ones — resumes bit-exactly from a mid-run checkpoint, in a
/// serial cell and in a batched + sharded + faulted one. The proptest above
/// samples policies at random; this pins each of them deterministically.
#[test]
fn every_policy_interrupted_run_resumes_bit_exactly() {
    let stateless: [(&str, MkPolicy); 3] = [
        ("first-touch", || Box::new(NoopPolicy)),
        ("all-fast", || Box::new(StaticPolicy::all_fast())),
        ("all-slow", || Box::new(StaticPolicy::all_slow())),
    ];
    for (name, mk_policy) in STATEFUL.into_iter().chain(stateless) {
        for (chunk, shards, faults) in [(1, None, None), (DEFAULT_CHUNK, Some(2), Some(plan()))] {
            if let Err(e) = oracle(&mk_policy, chunk, shards, faults, 15_000) {
                panic!("{name}: {e}");
            }
        }
    }
}

/// A run interrupted twice — resume from the first snapshot, pause again,
/// snapshot again, resume from the second — still matches the straight run.
#[test]
fn double_interruption_resumes_bit_exactly() {
    let dcfg = || driver(DEFAULT_CHUNK, Some(2), Some(plan()));
    let full = {
        let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
        report_sig(sim.run(&mut stream()).unwrap())
    };

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    assert!(sim.run_until(&mut stream(), Some(8_000)).unwrap().is_none());
    let first = sim.snapshot();
    drop(sim);

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    sim.restore(&first).unwrap();
    assert!(sim
        .run_until(&mut stream(), Some(20_000))
        .unwrap()
        .is_none());
    let second = sim.snapshot();
    drop(sim);

    let mut sim = Simulation::new(machine(), memtis_policy(), dcfg());
    sim.restore(&second).unwrap();
    let r = sim
        .run_until(&mut stream(), None)
        .unwrap()
        .expect("final leg completes");
    assert_eq!(full, report_sig(r));
}

/// Pausing with `run_until` and going on over the same live stream, as
/// `--snapshot-every` does, reports exactly what the straight run does:
/// the stream hands the driver the rest of its events, wherever a pause
/// lands in a fill.
#[test]
fn pausing_on_one_live_stream_reports_the_straight_run() {
    for chunk in [1, DEFAULT_CHUNK] {
        let run = |pauses: &[u64]| {
            let mut sim = Simulation::new(machine(), memtis_policy(), driver(chunk, None, None));
            let mut wl = stream();
            for &at in pauses {
                assert!(sim.run_until(&mut wl, Some(at)).unwrap().is_none());
            }
            let r = sim.run_until(&mut wl, None).unwrap();
            report_sig(r.expect("the last leg completes"))
        };
        assert_eq!(run(&[]), run(&[7_001, 19_999, 20_000]), "chunk {chunk}");
    }
}

/// Restoring a TPP snapshot into a TPP policy with different tuning is
/// rejected up front instead of silently diverging.
#[test]
fn restore_rejects_mismatched_policy() {
    let dcfg = || driver(DEFAULT_CHUNK, None, None);
    let mut sim = Simulation::new(machine(), tpp_policy(), dcfg());
    assert!(sim.run_until(&mut stream(), Some(5_000)).unwrap().is_none());
    let bytes = sim.snapshot();
    drop(sim);

    let other: Box<dyn TieringPolicy> = Box::new(TppPolicy::new(TppConfig {
        promote_faults: 7,
        ..Default::default()
    }));
    let mut sim = Simulation::new(machine(), other, dcfg());
    assert!(
        sim.restore(&bytes).is_err(),
        "mismatched policy config must be rejected"
    );
}
