//! Deterministic snapshot mutation harness: real mid-run checkpoints,
//! damaged by truncation, seeded single-bit flips, and `0x7FFFFFFF` length
//! inflations, must every one be rejected by `restore` with an error —
//! never accepted, never a panic.
//!
//! Cells: MEMTIS, TPP and HeMem, each modes-off unsharded and modes-on
//! (shadow + hysteresis) with two shards, all traced and
//! faulted.

mod common;

use memtis_repro::baselines::{HememConfig, HememPolicy, TppConfig, TppPolicy};
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0x5EED_CAFE;
const ACCESSES: u64 = 20_000;
const PAUSE_AT: u64 = 12_000;
const FLIPS: usize = 300;
const INFLATIONS: usize = 100;

type Sim = Simulation<Box<dyn TieringPolicy>, TracingObserver>;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 256 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024;
    cfg.migration.bandwidth_limit = Some(4.0);
    cfg
}

fn driver(modes: bool) -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        window_events: 5_000,
        chunk: DEFAULT_CHUNK,
        shards: modes.then_some(2),
        shadow: modes,
        hysteresis: modes.then(HysteresisConfig::default),
        faults: Some(FaultPlan {
            seed: 7,
            abort_per_pump: 0.05,
            dirty_per_pump: 0.05,
            sample_drop: 0.05,
            tick_delay: 0.05,
            ..FaultPlan::default()
        }),
        ..Default::default()
    }
}

fn policy(name: &str) -> Box<dyn TieringPolicy> {
    match name {
        "memtis" => Box::new(MemtisPolicy::new(MemtisConfig {
            load_period: 4,
            store_period: 64,
            adapt_interval: 500,
            cooling_interval: 5_000,
            min_estimate_samples: 1_000,
            ..MemtisConfig::sim_scaled()
        })),
        "tpp" => Box::new(TppPolicy::new(TppConfig {
            sweep_rounds: 8,
            ..Default::default()
        })),
        _ => Box::new(HememPolicy::new(HememConfig {
            load_period: 4,
            store_period: 64,
            ..Default::default()
        })),
    }
}

fn fresh(name: &str, modes: bool) -> Sim {
    Simulation::with_observer(
        machine(),
        policy(name),
        driver(modes),
        TracingObserver::new(),
    )
}

/// A real checkpoint taken mid-run.
fn checkpoint(name: &str, modes: bool) -> Vec<u8> {
    let mut sim = fresh(name, modes);
    let mut wl = SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), SEED);
    let done = sim
        .run_until(&mut wl, Some(PAUSE_AT))
        .expect("run to pause");
    assert!(done.is_none(), "{name}: the pause must land mid-run");
    sim.snapshot()
}

#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    accepted: Vec<String>,
    panicked: Vec<String>,
}

impl Tally {
    /// Restores `bytes` into a fresh simulation; anything but an error is
    /// recorded against `case`.
    fn check(&mut self, name: &str, modes: bool, case: String, bytes: &[u8]) {
        self.cases += 1;
        let mut sim = fresh(name, modes);
        match catch_unwind(AssertUnwindSafe(|| sim.restore(bytes).is_err())) {
            Ok(true) => {}
            Ok(false) => self.accepted.push(case),
            Err(_) => self.panicked.push(case),
        }
    }
}

#[test]
fn damaged_checkpoints_are_always_rejected() {
    let mut rng = FaultRng::new(0xF11F_5EED);
    let mut tally = Tally::default();
    common::quiet_panics(|| {
        for name in ["memtis", "tpp", "hemem"] {
            for modes in [false, true] {
                let good = checkpoint(name, modes);
                fresh(name, modes)
                    .restore(&good)
                    .unwrap_or_else(|e| panic!("{name} modes={modes}: intact restore failed: {e}"));
                let cell = format!("{name} modes={modes}");
                common::damage(&good, &mut rng, FLIPS, INFLATIONS, |case, bad| {
                    tally.check(name, modes, format!("{cell} {case}"), bad)
                });
            }
        }
    });
    assert!(tally.cases > 6 * (100 + FLIPS));
    assert!(
        tally.accepted.is_empty() && tally.panicked.is_empty(),
        "{} of {} damaged checkpoints accepted ({:?}), {} panicked ({:?})",
        tally.accepted.len(),
        tally.cases,
        tally.accepted.iter().take(5).collect::<Vec<_>>(),
        tally.panicked.len(),
        tally.panicked.iter().take(5).collect::<Vec<_>>(),
    );
}
