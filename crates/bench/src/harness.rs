//! Experiment harness: machine configurations, system registry, run matrix.
//!
//! Everything the per-figure bench targets share: tiering-ratio machine
//! setup (§6.1), the policy registry, normalized-performance computation
//! (relative to all-NVM-with-THP, as in every paper figure), and geometric
//! means.

use memtis_baselines::{
    AutoNumaConfig, AutoNumaPolicy, AutoTieringConfig, AutoTieringPolicy, HememConfig, HememPolicy,
    MultiClockConfig, MultiClockPolicy, NimbleConfig, NimblePolicy, StaticPolicy, Tiering08Config,
    Tiering08Policy, TmtsConfig, TmtsPolicy, TppConfig, TppPolicy,
};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::*;
use memtis_workloads::{Benchmark, Scale, SpecStream};

/// Default seed for all experiment streams.
pub const SEED: u64 = 20231023; // SOSP '23 opening day.

/// Time-compression factor: a simulated run executes roughly this many
/// times fewer accesses per page than the paper's minutes-long executions.
/// Migration bandwidth is scaled up by the same factor so that the ratio of
/// tier-fill time to run length — and therefore the relative cost of page
/// movement — stays in the paper's regime (see DESIGN.md).
pub const TIME_COMPRESSION: f64 = 64.0;

/// Access budget per run; override with `MEMTIS_ACCESSES`.
pub fn access_budget() -> u64 {
    std::env::var("MEMTIS_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_500_000)
}

/// Looks a benchmark up by name, ignoring ASCII case (`silo`, `654.roms`).
pub fn benchmark_from_name(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// Capacity-tier memory kind for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityKind {
    /// Optane-like NVM (the paper's main setting).
    Nvm,
    /// Emulated CXL memory (§6.4).
    Cxl,
}

/// A fast:capacity tiering ratio (fast = RSS / (fast + capacity) share).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Fast-tier share numerator.
    pub fast: u32,
    /// Capacity-tier share denominator.
    pub capacity: u32,
}

impl Ratio {
    /// The paper's headline 1:8 configuration, and the CLIs' default.
    pub const DEFAULT: Ratio = Ratio {
        fast: 1,
        capacity: 8,
    };

    /// The paper's three main configurations.
    pub const MAIN: [Ratio; 3] = [
        Ratio {
            fast: 1,
            capacity: 2,
        },
        Ratio::DEFAULT,
        Ratio {
            fast: 1,
            capacity: 16,
        },
    ];

    /// Meta's production-target 2:1 configuration (§6.2.8).
    pub const TWO_TO_ONE: Ratio = Ratio {
        fast: 2,
        capacity: 1,
    };

    /// Parses a label like `1:8`; both parts must be positive.
    pub fn parse(s: &str) -> Result<Ratio, String> {
        let part = |p: &str| p.parse::<u32>().ok().filter(|&n| n > 0);
        match s.split_once(':').map(|(f, c)| (part(f), part(c))) {
            Some((Some(fast), Some(capacity))) => Ok(Ratio { fast, capacity }),
            _ => Err(format!("bad ratio {s:?} (want F:C, both positive)")),
        }
    }

    /// Fast-tier bytes for a workload of `rss` bytes.
    pub fn fast_bytes(&self, rss: u64) -> u64 {
        (rss * self.fast as u64 / (self.fast + self.capacity) as u64).max(2 * HUGE_PAGE_SIZE)
    }

    /// Label like "1:8".
    pub fn label(&self) -> String {
        format!("{}:{}", self.fast, self.capacity)
    }
}

/// Builds the machine for one experiment cell.
pub fn machine_for(
    bench: Benchmark,
    scale: Scale,
    ratio: Ratio,
    kind: CapacityKind,
) -> MachineConfig {
    let rss = bench.spec(scale, 1).total_bytes();
    let fast = ratio.fast_bytes(rss);
    // The capacity tier is sized generously: it must absorb the whole RSS
    // (plus bloat and churn) when the fast tier is small.
    let capacity = rss * 2 + 64 * HUGE_PAGE_SIZE;
    let m = match kind {
        CapacityKind::Nvm => MachineConfig::dram_nvm(fast, capacity),
        CapacityKind::Cxl => MachineConfig::dram_cxl(fast, capacity),
    };
    m.with_bandwidth_scale(TIME_COMPRESSION)
}

/// Machine where everything fits in the fast tier (all-DRAM reference).
pub fn machine_all_fast(bench: Benchmark, scale: Scale) -> MachineConfig {
    let rss = bench.spec(scale, 1).total_bytes();
    MachineConfig::dram_nvm(rss * 2 + 64 * HUGE_PAGE_SIZE, 64 * HUGE_PAGE_SIZE)
        .with_bandwidth_scale(TIME_COMPRESSION)
}

/// Default telemetry window length (workload events) for experiments.
pub const DEFAULT_WINDOW_EVENTS: u64 = 100_000;

/// Driver defaults for experiments at the default scale.
pub fn driver_config() -> DriverConfig {
    driver_config_with_window(DEFAULT_WINDOW_EVENTS)
}

/// Driver defaults with an explicit telemetry window length.
pub fn driver_config_with_window(window_events: u64) -> DriverConfig {
    DriverConfig {
        thp_enabled: true,
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 150_000.0,
        window_events,
        migration_bw: None,
        migration_queue: None,
        shadow: false,
        hysteresis: None,
        faults: None,
        chunk: DEFAULT_CHUNK,
        shards: None,
        heartbeat_events: None,
        pool_workers: None,
    }
}

/// All systems compared in the paper's main figures, plus extras.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Linux automatic NUMA balancing.
    AutoNuma,
    /// AutoTiering (ATC '21).
    AutoTiering,
    /// The tiering-0.8 kernel patch series.
    Tiering08,
    /// TPP (ASPLOS '23).
    Tpp,
    /// Nimble page management (ASPLOS '19).
    Nimble,
    /// HeMem (SOSP '21).
    Hemem,
    /// MEMTIS.
    Memtis,
    /// MEMTIS without huge-page split (Fig. 10/11 ablation).
    MemtisNs,
    /// MEMTIS without split and without the warm set (Fig. 10 "vanilla").
    MemtisVanilla,
    /// MULTI-CLOCK (HPCA '22), from Table 1.
    MultiClock,
    /// TMTS (ASPLOS '23), from Table 1 and the §8 discussion.
    Tmts,
    /// Static all-NVM (normalization baseline).
    AllNvm,
    /// Static all-DRAM (upper reference).
    AllDram,
}

impl System {
    /// The six comparison systems + MEMTIS, in the paper's Fig. 5 order.
    pub const FIG5: [System; 7] = [
        System::AutoNuma,
        System::AutoTiering,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
    ];

    /// Every system, in listing order.
    pub const ALL: [System; 13] = [
        System::AutoNuma,
        System::AutoTiering,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
        System::MemtisNs,
        System::MemtisVanilla,
        System::MultiClock,
        System::Tmts,
        System::AllNvm,
        System::AllDram,
    ];

    /// Looks a system up by display name, ignoring ASCII case.
    pub fn from_name(name: &str) -> Result<System, String> {
        System::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown system {name:?}"))
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::AutoNuma => "AutoNUMA",
            System::AutoTiering => "AutoTiering",
            System::Tiering08 => "Tiering-0.8",
            System::Tpp => "TPP",
            System::Nimble => "Nimble",
            System::Hemem => "HeMem",
            System::Memtis => "MEMTIS",
            System::MemtisNs => "MEMTIS-NS",
            System::MemtisVanilla => "MEMTIS-Vanilla",
            System::MultiClock => "MULTI-CLOCK",
            System::Tmts => "TMTS",
            System::AllNvm => "All-NVM",
            System::AllDram => "All-DRAM",
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn TieringPolicy> {
        match self {
            System::AutoNuma => Box::new(AutoNumaPolicy::new(AutoNumaConfig::default())),
            System::AutoTiering => Box::new(AutoTieringPolicy::new(AutoTieringConfig::default())),
            System::Tiering08 => Box::new(Tiering08Policy::new(Tiering08Config::default())),
            System::Tpp => Box::new(TppPolicy::new(TppConfig::default())),
            System::Nimble => Box::new(NimblePolicy::new(NimbleConfig::default())),
            System::Hemem => Box::new(HememPolicy::new(HememConfig::default())),
            System::Memtis => Box::new(MemtisPolicy::new(MemtisConfig::sim_scaled())),
            System::MemtisNs => Box::new(MemtisPolicy::new(
                MemtisConfig::sim_scaled().without_split(),
            )),
            System::MemtisVanilla => {
                Box::new(MemtisPolicy::new(MemtisConfig::sim_scaled().vanilla()))
            }
            System::MultiClock => Box::new(MultiClockPolicy::new(MultiClockConfig::default())),
            System::Tmts => Box::new(TmtsPolicy::new(TmtsConfig::default())),
            System::AllNvm => Box::new(StaticPolicy::all_slow()),
            System::AllDram => Box::new(StaticPolicy::all_fast()),
        }
    }
}

/// Runs one experiment cell: `bench`'s stream at `scale`, `accesses` and
/// `seed` on `machine`, under `policy` and `obs`, through the checkpoint
/// schedule `snap` ([`run_snapshotted`]; the default [`SnapshotOpts`] is a
/// plain run). Returns the report with the finished simulation, so the
/// policy's internals and the observer come from the run that produced the
/// report. Sweep matrix cells derive their own seeds; everything else uses
/// [`SEED`].
#[allow(clippy::too_many_arguments)]
pub fn run_cell<P: TieringPolicy, O: Observer>(
    bench: Benchmark,
    scale: Scale,
    machine: MachineConfig,
    policy: P,
    obs: O,
    driver: DriverConfig,
    accesses: u64,
    seed: u64,
    snap: &SnapshotOpts,
) -> SimResult<(RunReport, Simulation<P, O>)> {
    let mut wl = SpecStream::new(bench.spec(scale, accesses), seed);
    let mut sim = Simulation::with_observer(machine, policy, driver, obs);
    let report = run_snapshotted(&mut sim, &mut wl, snap)?;
    Ok((report, sim))
}

/// Checkpoint schedule parsed from `--snapshot-out` / `--snapshot-every` /
/// `--resume`.
///
/// A run with `every = Some(n)` pauses at every multiple of `n` cumulative
/// workload events, serializes the full simulation state, atomically
/// overwrites `out` with the latest checkpoint, and continues on the same
/// stream; `resume = Some(path)` restores that state into a freshly built,
/// identically configured simulation before running. Both halves are
/// bit-exact: the resumed run's report, trace, and window series match the
/// uninterrupted run's byte for byte.
#[derive(Debug, Default, Clone)]
pub struct SnapshotOpts {
    /// Path the latest checkpoint is written to (`--snapshot-out`).
    pub out: Option<String>,
    /// Checkpoint interval in cumulative workload events
    /// (`--snapshot-every`).
    pub every: Option<u64>,
    /// Checkpoint file to restore before running (`--resume`).
    pub resume: Option<String>,
}

impl SnapshotOpts {
    /// True when any snapshot flag was given.
    pub fn is_active(&self) -> bool {
        self.out.is_some() || self.every.is_some() || self.resume.is_some()
    }

    /// Rejects flag combinations that cannot do anything useful.
    /// `needs_out`: checkpoints go to `--snapshot-out` (every binary but
    /// `chaos`, which keeps them in memory).
    pub fn validate(&self, needs_out: bool) -> Result<(), String> {
        match (self.every, &self.out) {
            (Some(0), _) => Err("--snapshot-every must be > 0".into()),
            (Some(_), None) if needs_out => Err("--snapshot-every needs --snapshot-out".into()),
            (None, Some(_)) => Err("--snapshot-out needs --snapshot-every".into()),
            _ => Ok(()),
        }
    }
}

/// Writes checkpoint bytes through a temp file + rename so a crash
/// mid-write never leaves a torn snapshot at `path`.
pub fn write_snapshot(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Drives `sim` to completion under a checkpoint schedule: restore from
/// `opts.resume` first if set, then pause at every `opts.every`-event
/// boundary, snapshot, persist to `opts.out`, and continue on the same
/// stream. With no schedule this is exactly [`Simulation::run`].
///
/// After a restore, the first segment fast-forwards `wl` past the
/// checkpoint cursor, so pass a stream positioned at its start.
pub fn run_snapshotted<P: TieringPolicy, O: Observer>(
    sim: &mut Simulation<P, O>,
    wl: &mut dyn AccessStream,
    opts: &SnapshotOpts,
) -> SimResult<RunReport> {
    if let Some(path) = &opts.resume {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read --resume snapshot {path}: {e}");
                return Err(SimError::Internal("unreadable --resume snapshot"));
            }
        };
        sim.restore(&bytes)?;
    }
    let every = match (opts.every, &opts.out) {
        (Some(e), Some(_)) if e > 0 => e,
        _ => return sim.run(wl),
    };
    loop {
        let target = (sim.sim_events() / every + 1) * every;
        match sim.run_until(wl, Some(target))? {
            Some(report) => return Ok(report),
            None => {
                let bytes = sim.snapshot();
                if let Some(path) = &opts.out {
                    if let Err(e) = write_snapshot(path, &bytes) {
                        eprintln!("warning: could not write snapshot {path}: {e}");
                    }
                }
            }
        }
    }
}

/// Trace export format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line: header, events, windows.
    Jsonl,
    /// Chrome/Perfetto `trace_event` JSON (load in `ui.perfetto.dev`).
    Perfetto,
}

impl TraceFormat {
    /// Parses a `--trace-format` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "perfetto" => Ok(TraceFormat::Perfetto),
            _ => Err("want jsonl or perfetto".into()),
        }
    }

    /// Serializes a finished trace in this format.
    pub fn export(&self, obs: &TracingObserver, windows: &[WindowSample]) -> String {
        match self {
            TraceFormat::Jsonl => memtis_sim::obs::export_jsonl(obs, windows),
            TraceFormat::Perfetto => memtis_sim::obs::export_perfetto(obs, windows),
        }
    }
}

/// Writes a finished trace to `path` in the given format, noting it on
/// stderr.
pub fn write_trace(
    path: &str,
    format: TraceFormat,
    obs: &TracingObserver,
    windows: &[WindowSample],
) {
    let body = format.export(obs, windows);
    match std::fs::write(path, body) {
        Ok(()) => eprintln!(
            "[trace written to {path}: {} events ({} dropped), {} windows]",
            obs.ring.pushed(),
            obs.ring.dropped(),
            windows.len()
        ),
        Err(e) => eprintln!("warning: could not write trace {path}: {e}"),
    }
}

/// Runs `system` on `bench` at the given ratio with the default driver
/// config and access budget, and returns the report.
pub fn run_system(
    bench: Benchmark,
    scale: Scale,
    ratio: Ratio,
    kind: CapacityKind,
    system: System,
) -> RunReport {
    let machine = machine_for(bench, scale, ratio, kind);
    run_default(bench, scale, machine, system.build(), access_budget()).0
}

/// Runs the all-NVM baseline for `bench` over `accesses` (the paper's
/// normalization base: everything on the capacity tier, with THP).
pub fn run_baseline(
    bench: Benchmark,
    scale: Scale,
    kind: CapacityKind,
    accesses: u64,
) -> RunReport {
    // A minimal fast tier that the All-NVM policy never uses.
    let rss = bench.spec(scale, 1).total_bytes();
    let capacity = rss * 2 + 64 * HUGE_PAGE_SIZE;
    let machine = match kind {
        CapacityKind::Nvm => MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, capacity),
        CapacityKind::Cxl => MachineConfig::dram_cxl(2 * HUGE_PAGE_SIZE, capacity),
    }
    .with_bandwidth_scale(TIME_COMPRESSION);
    run_default(bench, scale, machine, System::AllNvm.build(), accesses).0
}

/// [`run_cell`] with the default driver config, untraced, at [`SEED`] and
/// without checkpoints: the run every figure bench makes unless it varies
/// one of those.
pub fn run_default<P: TieringPolicy>(
    bench: Benchmark,
    scale: Scale,
    machine: MachineConfig,
    policy: P,
    accesses: u64,
) -> (RunReport, Simulation<P>) {
    run_cell(
        bench,
        scale,
        machine,
        policy,
        NopObserver,
        driver_config(),
        accesses,
        SEED,
        &SnapshotOpts::default(),
    )
    .expect("experiment run failed")
}

/// Normalized performance: baseline wall time over system wall time
/// (higher is better; 1.0 == all-NVM).
pub fn normalized(baseline: &RunReport, system: &RunReport) -> f64 {
    baseline.wall_ns / system.wall_ns
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_compute_fast_tier_share() {
        let r = Ratio {
            fast: 1,
            capacity: 2,
        };
        assert_eq!(r.fast_bytes(9 << 21), 3 << 21);
        assert_eq!(r.label(), "1:2");
        let two = Ratio::TWO_TO_ONE;
        assert_eq!(two.fast_bytes(9 << 21), 6 << 21);
    }

    #[test]
    fn ratio_labels_round_trip_and_bad_ones_are_rejected() {
        for r in Ratio::MAIN.into_iter().chain([Ratio::TWO_TO_ONE]) {
            assert_eq!(Ratio::parse(&r.label()), Ok(r));
        }
        for bad in ["8", "1-4", "1:", ":8", "0:8", "1:0", "a:b", "1:8:2"] {
            assert!(Ratio::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn every_system_builds() {
        for s in System::ALL {
            let p = s.build();
            assert!(!p.descriptor().name.is_empty());
            assert_eq!(System::from_name(&s.name().to_lowercase()), Ok(s));
        }
        assert!(System::from_name("nosuch").is_err());
    }

    #[test]
    fn smoke_run_one_cell() {
        std::env::set_var("MEMTIS_ACCESSES", "20000");
        let scale = Scale::TEST;
        let base = run_baseline(Benchmark::Roms, scale, CapacityKind::Nvm, 20_000);
        let r = run_system(
            Benchmark::Roms,
            scale,
            Ratio::DEFAULT,
            CapacityKind::Nvm,
            System::Memtis,
        );
        assert!(r.wall_ns > 0.0 && base.wall_ns > 0.0);
        assert!(normalized(&base, &r) > 0.3);
        std::env::remove_var("MEMTIS_ACCESSES");
    }
}
