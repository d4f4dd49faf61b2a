//! `chaos` — randomized fault-plan soak.
//!
//! ```text
//! chaos [--plans N] [--accesses N] [--seed MASTER] [--systems memtis,tpp,...]
//!       [--shards S] [--heartbeat EVENTS] [--snapshot-every EVENTS]
//!       [--shadow] [--hysteresis on|WINDOW:BASE:MAX]
//! ```
//!
//! Derives `N` randomized [`FaultPlan`]s from a master seed and runs each
//! against a bandwidth-limited machine at test scale, checking after every
//! run that the invariants the fault-free engine guarantees survived the
//! abuse:
//!
//! - page conservation: tier usage == RSS + in-flight reservations +
//!   retained shadow frames + fault-injected pressure reservations;
//! - zero histogram underflows (policy metadata never desyncs);
//! - determinism: every 10th plan is re-run and must reproduce the same
//!   wall clock, stats, and fault schedule bit-for-bit.
//!
//! With `--snapshot-every N`, every run is additionally driven through
//! pause/checkpoint cycles every N events, and the periodic determinism
//! re-run *resumes from the last mid-run checkpoint* instead of starting
//! over — proving that snapshot/restore reproduces the uninterrupted run
//! byte-for-byte even while fault injection is rewriting schedules.
//!
//! Exits non-zero if any plan violates an invariant, printing the plan so
//! it can be pinned as a regression. A malformed flag exits 2 before any
//! plan runs.

use memtis_bench::{cli, machine_for, CapacityKind, Ratio, System};
use memtis_sim::faults::{FaultCounters, FaultPlan, FaultRng, OutageSpec, PressureSpec};
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale, SpecStream};

const WORKLOAD_SEED: u64 = 20231023;

const USAGE: &str = "usage: chaos [--plans N] [--accesses N] [--seed MASTER] \
     [--systems memtis,tpp,...] [--shards S] [--heartbeat EVENTS] \
     [--snapshot-every EVENTS] [--shadow] [--hysteresis on|WINDOW:BASE:MAX]";

/// The shared flags `chaos` accepts. Every run draws its own fault plan and
/// keeps its checkpoints in memory, so the fault, trace and snapshot-file
/// flags do not apply.
const SHARED: [&str; 5] = [
    "--shards",
    "--heartbeat",
    "--snapshot-every",
    "--shadow",
    "--hysteresis",
];

/// A randomized-but-reproducible plan: index `i` under one master seed
/// always yields the same plan.
fn random_plan(rng: &mut FaultRng) -> FaultPlan {
    FaultPlan {
        seed: rng.next_u64(),
        abort_per_pump: rng.next_f64() * 0.25,
        dirty_per_pump: rng.next_f64() * 0.25,
        sample_drop: rng.next_f64() * 0.25,
        sample_dup: rng.next_f64() * 0.25,
        tick_skip: rng.next_f64() * 0.25,
        tick_delay: rng.next_f64() * 0.25,
        outage: (!rng.next_u64().is_multiple_of(3)).then(|| OutageSpec {
            period_ns: 150_000.0 + rng.next_f64() * 500_000.0,
            duration_ns: 10_000.0 + rng.next_f64() * 100_000.0,
        }),
        pressure: (!rng.next_u64().is_multiple_of(3)).then(|| PressureSpec {
            period_ns: 200_000.0 + rng.next_f64() * 600_000.0,
            duration_ns: 30_000.0 + rng.next_f64() * 200_000.0,
            bytes: HUGE_PAGE_SIZE * (1 + rng.next_u64() % 4),
        }),
        ..FaultPlan::default()
    }
}

struct SoakOutcome {
    signature: String,
    faults: FaultCounters,
    violations: Vec<String>,
    /// The last mid-run checkpoint, when driven with `--snapshot-every`.
    snapshot: Option<Vec<u8>>,
}

/// How one soak run is driven to completion.
enum SoakMode<'a> {
    /// One uninterrupted `run` call.
    Straight,
    /// Pause/checkpoint every N events; the outcome carries the last
    /// mid-run snapshot.
    Checkpointed(u64),
    /// Restore this checkpoint into the fresh simulation, then run to
    /// completion (the stream fast-forwards past the cursor).
    Resume(&'a [u8]),
}

fn soak_one(
    system: System,
    bench: Benchmark,
    plan: FaultPlan,
    accesses: u64,
    driver: &DriverConfig,
    mode: SoakMode<'_>,
) -> SoakOutcome {
    let mut machine = machine_for(bench, Scale::TEST, Ratio::DEFAULT, CapacityKind::Nvm);
    // Keep transfers in flight long enough for abort/dirty/outage faults to
    // find targets.
    machine.migration.bandwidth_limit = Some(8.0);
    let driver = DriverConfig {
        faults: Some(plan),
        ..driver.clone()
    };
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, accesses), WORKLOAD_SEED);
    let mut sim = Simulation::new(machine, system.build(), driver);
    let mut snapshot = None;
    let fail = |e: String| SoakOutcome {
        signature: String::new(),
        faults: FaultCounters::default(),
        violations: vec![e],
        snapshot: None,
    };
    let run_result = match mode {
        SoakMode::Straight => sim.run(&mut wl),
        SoakMode::Resume(bytes) => match sim.restore(bytes) {
            Ok(()) => sim.run(&mut wl),
            Err(e) => return fail(format!("restore failed: {e:?}")),
        },
        SoakMode::Checkpointed(every) => loop {
            let target = (sim.sim_events() / every + 1) * every;
            match sim.run_until(&mut wl, Some(target)) {
                Ok(Some(r)) => break Ok(r),
                Ok(None) => snapshot = Some(sim.snapshot()),
                Err(e) => break Err(e),
            }
        },
    };
    let report = match run_result {
        Ok(r) => r,
        Err(e) => return fail(format!("run failed: {e:?}")),
    };

    let mut violations = Vec::new();
    if report.hist_underflows != 0 {
        violations.push(format!(
            "histogram underflowed {} pages",
            report.hist_underflows
        ));
    }
    let m = sim.machine();
    if let Err(e) = m.check_page_accounting() {
        violations.push(e);
    }
    if m.used_bytes(TierId::FAST) > m.capacity_bytes(TierId::FAST) {
        violations.push("fast tier over capacity".into());
    }
    let signature = format!(
        "{:x}|{:?}|{:?}|{}",
        report.wall_ns.to_bits(),
        report.stats,
        report.faults,
        report.accesses,
    );
    SoakOutcome {
        signature,
        faults: report.faults,
        violations,
        snapshot,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut plans: usize = 120;
    let mut accesses: u64 = 60_000;
    let mut master_seed: u64 = 0xC4A0_5000;
    let mut systems = vec![System::Memtis];
    let base = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        window_events: 25_000,
        ..Default::default()
    };
    let flags = cli::parse(&args, &SHARED, base, |arg, a| {
        match arg {
            "--plans" => plans = a.value(arg)?,
            "--accesses" => accesses = a.value(arg)?,
            "--seed" => master_seed = a.value(arg)?,
            "--systems" => systems = a.with(arg, |v| cli::list(v, System::from_name))?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let flags = cli::or_exit(flags, USAGE);

    let benches = [Benchmark::Silo, Benchmark::XsBench, Benchmark::Btree];
    let mut rng = FaultRng::new(master_seed);
    let mut failures = 0usize;
    let mut totals = FaultCounters::default();
    println!(
        "chaos soak: {} plans x {} systems, {} accesses/plan, master seed {master_seed}",
        plans,
        systems.len(),
        accesses
    );
    if let Some(banner) = flags.modes_banner() {
        println!("{banner}");
    }
    for p in 0..plans {
        let plan = random_plan(&mut rng);
        let bench = benches[p % benches.len()];
        for &system in &systems {
            let mode = match flags.snap.every {
                Some(n) => SoakMode::Checkpointed(n),
                None => SoakMode::Straight,
            };
            let out = soak_one(system, bench, plan, accesses, &flags.driver, mode);
            totals.merge(&out.faults);
            for v in &out.violations {
                failures += 1;
                eprintln!("FAIL plan {p} ({} on {}): {v}", system.name(), bench.name());
                eprintln!("  plan: {plan:?}");
            }
            // Every 10th plan doubles as a determinism check; with
            // --snapshot-every the replay resumes from the last mid-run
            // checkpoint instead of starting over, so the comparison also
            // proves snapshot/restore bit-exactness under faults.
            if p % 10 == 0 && out.violations.is_empty() {
                let again_mode = match &out.snapshot {
                    Some(bytes) => SoakMode::Resume(bytes),
                    None => SoakMode::Straight,
                };
                let again = soak_one(system, bench, plan, accesses, &flags.driver, again_mode);
                if again.signature != out.signature {
                    failures += 1;
                    let kind = if out.snapshot.is_some() {
                        "nondeterministic resume from checkpoint"
                    } else {
                        "nondeterministic replay"
                    };
                    eprintln!(
                        "FAIL plan {p} ({} on {}): {kind}",
                        system.name(),
                        bench.name()
                    );
                    eprintln!("  plan: {plan:?}");
                }
            }
        }
        if (p + 1) % 20 == 0 {
            println!(
                "  {}/{} plans done, {} faults injected",
                p + 1,
                plans,
                totals.total()
            );
        }
    }
    println!(
        "chaos soak finished: {} plans, faults injected: {totals:?}",
        plans
    );
    if failures > 0 {
        eprintln!("chaos soak FAILED: {failures} violation(s)");
        std::process::exit(1);
    }
    println!("all invariants held");
}
