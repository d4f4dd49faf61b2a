//! Seeded, deterministic fault injection.
//!
//! MEMTIS's design premise is that tiering work tolerates lossy inputs:
//! dropped PEBS samples, aborted migrations, delayed daemon wakeups. Those
//! failure paths exist in this repo (engine aborts, dirty re-copies, queue
//! back-pressure) but are exercised only incidentally. This module makes
//! them reproducible on demand: a [`FaultPlan`] describes *what* to perturb
//! and *how often*, and a [`FaultInjector`] applies the plan with a
//! counter-based RNG derived from the plan seed, so the same seed and plan
//! produce bit-identical runs.
//!
//! Fault classes and where they fire:
//!
//! | fault            | site                                   | mechanism |
//! |------------------|----------------------------------------|-----------|
//! | forced abort     | `Machine::pump_transfers`              | abort a random queued/active transfer (`AbortCause::Cancelled`) |
//! | injected dirty   | `Machine::pump_transfers`              | `note_store` on an active copy pass |
//! | link outage      | `Machine::pump_transfers`              | active passes and links lose `duration_ns` of bandwidth |
//! | pressure spike   | `Machine::pump_transfers`              | steal fast-tier frames for a window |
//! | sample drop/dup  | driver `handle_access`                 | skip or double-deliver a sample to the policy |
//! | tick skip/delay  | driver `run_due_ticks`                 | skip a wakeup, or run it late |
//!
//! Determinism rules: time-driven faults (outages, pressure) fire on the
//! simulated clock only; probability-driven faults consume the RNG only
//! when their probability is non-zero, so an inert plan never perturbs the
//! RNG stream — and an inert plan is never installed at all, keeping
//! zero-fault runs bit-exact with no-plan runs by construction.

use crate::addr::{Frame, PageSize};
use memtis_obs::FaultKind;

/// Retained [`FaultRecord`]s per injector; later faults still count but are
/// not individually logged.
const FAULT_LOG_CAP: usize = 4096;

/// A transient migration-link outage: every `period_ns`, all links lose
/// `duration_ns` of bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// Interval between outages (simulated ns).
    pub period_ns: f64,
    /// Bandwidth lost per outage (simulated ns of link time).
    pub duration_ns: f64,
}

/// A tier-capacity pressure spike: every `period_ns`, up to `bytes` of
/// fast-tier frames are stolen for `duration_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureSpec {
    /// Interval between spikes (simulated ns).
    pub period_ns: f64,
    /// How long stolen frames are held (simulated ns).
    pub duration_ns: f64,
    /// Fast-tier bytes to steal (rounded down to whole huge pages).
    pub bytes: u64,
}

/// What to perturb and how often. All probabilities are per-opportunity:
/// `abort_per_pump` is rolled once per engine pump, `sample_drop` once per
/// observed sample, and so on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed every injector RNG derives from.
    pub seed: u64,
    /// Probability per pump of forcibly aborting a random transfer.
    pub abort_per_pump: f64,
    /// Probability per pump of dirtying a random active copy pass.
    pub dirty_per_pump: f64,
    /// Probability of dropping a PEBS sample before the policy sees it.
    pub sample_drop: f64,
    /// Probability of delivering a PEBS sample twice.
    pub sample_dup: f64,
    /// Probability of skipping a `kmigrated` wakeup outright.
    pub tick_skip: f64,
    /// Probability of delaying a `kmigrated` wakeup.
    pub tick_delay: f64,
    /// How late a delayed wakeup runs (simulated ns).
    pub tick_delay_ns: f64,
    /// Periodic link outages, if any.
    pub outage: Option<OutageSpec>,
    /// Periodic tier-capacity pressure spikes, if any.
    pub pressure: Option<PressureSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            abort_per_pump: 0.0,
            dirty_per_pump: 0.0,
            sample_drop: 0.0,
            sample_dup: 0.0,
            tick_skip: 0.0,
            tick_delay: 0.0,
            tick_delay_ns: 200_000.0,
            outage: None,
            pressure: None,
        }
    }
}

impl FaultPlan {
    /// Whether the plan perturbs nothing. Inert plans are never installed,
    /// so they are bit-exact with running no plan at all.
    pub fn is_inert(&self) -> bool {
        self.abort_per_pump == 0.0
            && self.dirty_per_pump == 0.0
            && self.sample_drop == 0.0
            && self.sample_dup == 0.0
            && self.tick_skip == 0.0
            && self.tick_delay == 0.0
            && self.outage.is_none()
            && self.pressure.is_none()
    }

    /// Parses the `--faults` CLI spec: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed=N`, `abort=P`, `dirty=P`, `drop=P`, `dup=P`, `skip=P`,
    /// `delay=P`, `delay-ns=NS`, `outage=PERIOD:DURATION` (ns),
    /// `pressure=PERIOD:DURATION:BYTES`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |field: &mut f64| -> Result<(), String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("bad probability {value:?} for {key}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {key}={p} outside [0, 1]"));
                }
                *field = p;
                Ok(())
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "abort" => prob(&mut plan.abort_per_pump)?,
                "dirty" => prob(&mut plan.dirty_per_pump)?,
                "drop" => prob(&mut plan.sample_drop)?,
                "dup" => prob(&mut plan.sample_dup)?,
                "skip" => prob(&mut plan.tick_skip)?,
                "delay" => prob(&mut plan.tick_delay)?,
                "delay-ns" => {
                    plan.tick_delay_ns = value
                        .parse()
                        .map_err(|_| format!("bad delay-ns {value:?}"))?;
                }
                "outage" => {
                    let (p, d) = value
                        .split_once(':')
                        .ok_or_else(|| format!("outage wants PERIOD:DURATION, got {value:?}"))?;
                    plan.outage = Some(OutageSpec {
                        period_ns: p.parse().map_err(|_| format!("bad outage period {p:?}"))?,
                        duration_ns: d
                            .parse()
                            .map_err(|_| format!("bad outage duration {d:?}"))?,
                    });
                }
                "pressure" => {
                    let mut it = value.splitn(3, ':');
                    let (p, d, b) = match (it.next(), it.next(), it.next()) {
                        (Some(p), Some(d), Some(b)) => (p, d, b),
                        _ => {
                            return Err(format!(
                                "pressure wants PERIOD:DURATION:BYTES, got {value:?}"
                            ))
                        }
                    };
                    plan.pressure = Some(PressureSpec {
                        period_ns: p
                            .parse()
                            .map_err(|_| format!("bad pressure period {p:?}"))?,
                        duration_ns: d
                            .parse()
                            .map_err(|_| format!("bad pressure duration {d:?}"))?,
                        bytes: b.parse().map_err(|_| format!("bad pressure bytes {b:?}"))?,
                    });
                }
                _ => return Err(format!("unknown fault key {key:?}")),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64: a tiny, dependency-free, statistically solid generator. The
/// whole fault layer keys off it so runs replay exactly from the plan seed.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial. A zero probability consumes no randomness, so
    /// disabled fault classes leave the RNG stream untouched.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform index in `[0, n)`. `n` must be non-zero.
    pub fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Per-class fault tallies, surfaced in `RunReport` and the soak summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transfers forcibly aborted.
    pub forced_aborts: u64,
    /// Dirty stores injected into active copy passes.
    pub injected_dirty: u64,
    /// Link outage windows applied.
    pub link_outages: u64,
    /// PEBS samples dropped.
    pub sample_drops: u64,
    /// PEBS samples duplicated.
    pub sample_dups: u64,
    /// Daemon wakeups skipped.
    pub tick_skips: u64,
    /// Daemon wakeups delayed.
    pub tick_delays: u64,
    /// Pressure spikes begun.
    pub pressure_spikes: u64,
}

impl FaultCounters {
    /// Total perturbations applied.
    pub fn total(&self) -> u64 {
        self.forced_aborts
            + self.injected_dirty
            + self.link_outages
            + self.sample_drops
            + self.sample_dups
            + self.tick_skips
            + self.tick_delays
            + self.pressure_spikes
    }

    /// Accumulates another tally (driver + machine injectors).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.forced_aborts += other.forced_aborts;
        self.injected_dirty += other.injected_dirty;
        self.link_outages += other.link_outages;
        self.sample_drops += other.sample_drops;
        self.sample_dups += other.sample_dups;
        self.tick_skips += other.tick_skips;
        self.tick_delays += other.tick_delays;
        self.pressure_spikes += other.pressure_spikes;
    }
}

/// One applied perturbation, drained by the driver into the trace ring as
/// an `EventKind::FaultInjected`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Simulated time the fault was applied.
    pub t_ns: f64,
    /// What was perturbed.
    pub kind: FaultKind,
    /// Virtual page the fault targeted (0 when not page-scoped).
    pub vpage: u64,
}

/// What to do with one observed PEBS sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFate {
    /// Deliver normally.
    Deliver,
    /// Drop before the policy sees it.
    Drop,
    /// Deliver twice.
    Duplicate,
}

/// What to do with one due daemon wakeup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TickFate {
    /// Run on time.
    Run,
    /// Skip outright.
    Skip,
    /// Run this many ns late.
    Delay(f64),
}

/// Applies a [`FaultPlan`]: rolls the probability faults, tracks the
/// time-driven schedules, tallies counters, and keeps a bounded record log.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: FaultRng,
    /// Tallies by fault class.
    pub counters: FaultCounters,
    log: Vec<FaultRecord>,
    next_outage_ns: f64,
    next_pressure_ns: f64,
    pressure_off_ns: f64,
    /// Fast-tier huge frames currently stolen by a pressure spike.
    pub(crate) pressure_frames: Vec<Frame>,
}

impl FaultInjector {
    /// Builds an injector whose RNG stream is `plan.seed ^ salt`. Distinct
    /// salts keep the machine-level and driver-level streams independent.
    pub fn new(plan: FaultPlan, salt: u64) -> Self {
        let rng = FaultRng::new(plan.seed ^ salt);
        let next_outage_ns = plan.outage.map_or(f64::INFINITY, |o| o.period_ns);
        let next_pressure_ns = plan.pressure.map_or(f64::INFINITY, |p| p.period_ns);
        FaultInjector {
            plan,
            rng,
            counters: FaultCounters::default(),
            log: Vec::new(),
            next_outage_ns,
            next_pressure_ns,
            pressure_off_ns: f64::INFINITY,
            pressure_frames: Vec::new(),
        }
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Records an applied fault (tally + bounded log).
    pub fn record(&mut self, t_ns: f64, kind: FaultKind, vpage: u64) {
        match kind {
            FaultKind::ForcedAbort => self.counters.forced_aborts += 1,
            FaultKind::InjectedDirty => self.counters.injected_dirty += 1,
            FaultKind::LinkOutage => self.counters.link_outages += 1,
            FaultKind::SampleDrop => self.counters.sample_drops += 1,
            FaultKind::SampleDup => self.counters.sample_dups += 1,
            FaultKind::TickSkip => self.counters.tick_skips += 1,
            FaultKind::TickDelay => self.counters.tick_delays += 1,
            FaultKind::PressureSpike => self.counters.pressure_spikes += 1,
            FaultKind::PressureRelease => {}
        }
        if self.log.len() < FAULT_LOG_CAP {
            self.log.push(FaultRecord { t_ns, kind, vpage });
        }
    }

    /// Takes the pending fault records (for trace emission).
    pub fn drain_log(&mut self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.log)
    }

    /// Rolls the fate of one observed PEBS sample.
    pub fn sample_fate(&mut self, t_ns: f64, vpage: u64) -> SampleFate {
        if self.rng.chance(self.plan.sample_drop) {
            self.record(t_ns, FaultKind::SampleDrop, vpage);
            return SampleFate::Drop;
        }
        if self.rng.chance(self.plan.sample_dup) {
            self.record(t_ns, FaultKind::SampleDup, vpage);
            return SampleFate::Duplicate;
        }
        SampleFate::Deliver
    }

    /// Rolls the fate of one due daemon wakeup.
    pub fn tick_fate(&mut self, t_ns: f64) -> TickFate {
        if self.rng.chance(self.plan.tick_skip) {
            self.record(t_ns, FaultKind::TickSkip, 0);
            return TickFate::Skip;
        }
        if self.rng.chance(self.plan.tick_delay) {
            self.record(t_ns, FaultKind::TickDelay, 0);
            return TickFate::Delay(self.plan.tick_delay_ns);
        }
        TickFate::Run
    }

    /// Returns the outage duration if an outage window is due at `now_ns`,
    /// advancing the schedule past `now_ns` (overlapping missed windows
    /// collapse into one — an outage on an idle engine perturbs nothing).
    pub fn outage_due(&mut self, now_ns: f64) -> Option<f64> {
        let o = self.plan.outage?;
        if now_ns < self.next_outage_ns {
            return None;
        }
        while self.next_outage_ns <= now_ns {
            self.next_outage_ns += o.period_ns;
        }
        Some(o.duration_ns)
    }

    /// Whether a pressure spike should begin at `now_ns`.
    pub fn pressure_should_start(&mut self, now_ns: f64) -> Option<PressureSpec> {
        let p = self.plan.pressure?;
        if !self.pressure_frames.is_empty() || now_ns < self.next_pressure_ns {
            return None;
        }
        while self.next_pressure_ns <= now_ns {
            self.next_pressure_ns += p.period_ns;
        }
        self.pressure_off_ns = now_ns + p.duration_ns;
        Some(p)
    }

    /// Whether the active pressure spike should end at `now_ns`.
    pub fn pressure_should_end(&mut self, now_ns: f64) -> bool {
        if self.pressure_frames.is_empty() || now_ns < self.pressure_off_ns {
            return false;
        }
        self.pressure_off_ns = f64::INFINITY;
        true
    }

    /// Probability roll for a forced transfer abort this pump.
    pub fn roll_abort(&mut self) -> bool {
        self.rng.chance(self.plan.abort_per_pump)
    }

    /// Probability roll for an injected dirty store this pump.
    pub fn roll_dirty(&mut self) -> bool {
        self.rng.chance(self.plan.dirty_per_pump)
    }

    /// Uniform index in `[0, n)` from the injector's RNG stream.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.pick(n)
    }

    /// Bytes of fast-tier capacity currently stolen by a pressure spike.
    pub fn reserved_bytes(&self) -> u64 {
        self.pressure_frames.len() as u64 * PageSize::Huge.bytes()
    }
}

memtis_obs::snap_struct!(FaultRng { state });

memtis_obs::snap_struct!(FaultCounters {
    forced_aborts,
    injected_dirty,
    link_outages,
    sample_drops,
    sample_dups,
    tick_skips,
    tick_delays,
    pressure_spikes,
});

memtis_obs::snap_struct!(FaultRecord { t_ns, kind, vpage });

// The injector's mutable state: RNG cursor, tallies, the pending record
// log, and the time-driven schedules. The plan itself is configuration
// and is covered by the snapshot's config fingerprint.
memtis_obs::snap_struct!(in FaultInjector {
    rng,
    counters,
    log,
    next_outage_ns,
    next_pressure_ns,
    pressure_off_ns,
    pressure_frames,
} check |f: &mut FaultInjector| {
    if f.log.len() > FAULT_LOG_CAP {
        return Err(memtis_obs::SnapError::Corrupt("fault log overflow"));
    }
    Ok(())
});

/// RNG salt for the machine-level injector (aborts, dirt, outages,
/// pressure).
pub const MACHINE_FAULT_SALT: u64 = 0x4D41_4348_494E_455F; // "MACHINE_"
/// RNG salt for the driver-level injector (samples, ticks).
pub const DRIVER_FAULT_SALT: u64 = 0x4452_4956_4552_5F5F; // "DRIVER__"

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_obs::SnapFields;

    #[test]
    fn default_plan_is_inert_and_parse_roundtrips() {
        assert!(FaultPlan::default().is_inert());
        let plan = FaultPlan::parse(
            "seed=7,abort=0.1,dirty=0.2,drop=0.3,dup=0.05,skip=0.01,delay=0.02,\
             delay-ns=1e5,outage=1e6:2e4,pressure=5e6:1e6:4194304",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert!(!plan.is_inert());
        assert_eq!(plan.abort_per_pump, 0.1);
        assert_eq!(plan.sample_dup, 0.05);
        assert_eq!(plan.tick_delay_ns, 1e5);
        let o = plan.outage.unwrap();
        assert_eq!((o.period_ns, o.duration_ns), (1e6, 2e4));
        let p = plan.pressure.unwrap();
        assert_eq!((p.period_ns, p.duration_ns, p.bytes), (5e6, 1e6, 4194304));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("abort=2.0").is_err());
        assert!(FaultPlan::parse("abort").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("outage=123").is_err());
        assert!(FaultPlan::parse("pressure=1:2").is_err());
    }

    #[test]
    fn rng_is_deterministic_and_zero_prob_consumes_nothing() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = FaultRng::new(42);
        for _ in 0..100 {
            assert!(!c.chance(0.0));
        }
        assert_eq!(c.next_u64(), seq_a[0]);
    }

    #[test]
    fn injector_schedules_are_time_driven() {
        let plan = FaultPlan {
            outage: Some(OutageSpec {
                period_ns: 1000.0,
                duration_ns: 10.0,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.outage_due(999.0), None);
        assert_eq!(inj.outage_due(1000.0), Some(10.0));
        // The schedule advanced; the same instant does not re-fire, and a
        // long gap collapses missed windows into one.
        assert_eq!(inj.outage_due(1000.0), None);
        assert_eq!(inj.outage_due(10_500.0), Some(10.0));
        assert_eq!(inj.outage_due(10_600.0), None);
    }

    #[test]
    fn snap_round_trips_rng_cursor_and_schedules() {
        let plan = FaultPlan {
            seed: 5,
            sample_drop: 0.4,
            outage: Some(OutageSpec {
                period_ns: 1000.0,
                duration_ns: 10.0,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, MACHINE_FAULT_SALT);
        for i in 0..32 {
            inj.sample_fate(i as f64, i);
        }
        assert_eq!(inj.outage_due(1500.0), Some(10.0));

        let mut w = memtis_obs::SnapWriter::new();
        inj.save_fields(&mut w);
        let bytes = w.finish().unwrap();

        let mut copy = FaultInjector::new(plan, MACHINE_FAULT_SALT);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        copy.load_fields(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(copy.counters, inj.counters);
        // Both injectors continue identically: same fates, same schedule.
        for i in 32..64 {
            assert_eq!(copy.sample_fate(i as f64, i), inj.sample_fate(i as f64, i));
        }
        assert_eq!(copy.outage_due(2500.0), inj.outage_due(2500.0));
        assert_eq!(copy.drain_log(), inj.drain_log());
    }

    #[test]
    fn sample_and_tick_fates_replay_from_the_seed() {
        let plan = FaultPlan {
            seed: 99,
            sample_drop: 0.3,
            sample_dup: 0.3,
            tick_skip: 0.2,
            tick_delay: 0.2,
            ..FaultPlan::default()
        };
        let run = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(*plan, 1);
            let fates: Vec<SampleFate> = (0..64).map(|i| inj.sample_fate(i as f64, i)).collect();
            let ticks: Vec<TickFate> = (0..64).map(|i| inj.tick_fate(i as f64)).collect();
            (fates, ticks, inj.counters)
        };
        let (f1, t1, c1) = run(&plan);
        let (f2, t2, c2) = run(&plan);
        assert_eq!(f1, f2);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
        assert!(c1.sample_drops > 0 && c1.sample_dups > 0);
        assert_eq!(
            c1.total(),
            c1.sample_drops + c1.sample_dups + c1.tick_skips + c1.tick_delays
        );
    }
}
