//! One simulation cell and the runner that executes each distinct cell once.
//!
//! A [`Cell`] describes a whole run: workload, scale, machine, policy,
//! driver config, access budget and seed. Both the `sweep` binary's matrix
//! and the `paper` bench's figures are lists of cells, and both execute them
//! through [`run_sweep`]'s worker loop. Two cells that describe the same run
//! are the same cell, however they were spelled: `System::Memtis` and
//! `MemtisConfig::sim_scaled()` at the same ratio run once. [`Runner`]
//! remembers every outcome of an invocation, so a cell that several figures
//! request runs once.
//!
//! A cell's [`Outcome`] is its [`RunReport`] plus the few end-of-run
//! readouts the figures print from the finished simulation's machine and
//! policy.

use crate::harness::{
    driver_config, run_cell, CapacityKind, Ratio, SnapshotOpts, System, SEED, TIME_COMPRESSION,
};
use crate::sweep::run_sweep;
use memtis_baselines::{HememConfig, HememPolicy};
use memtis_core::{MemtisConfig, MemtisPolicy, MemtisStats};
use memtis_sim::prelude::{
    DriverConfig, MachineConfig, NoopPolicy, NopObserver, PageSize, RunReport, SimResult,
    TieringPolicy, HUGE_PAGE_SIZE,
};
use memtis_workloads::{Benchmark, Scale, SynthBuilder, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// The access stream a cell runs.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One of the paper's eight benchmarks, at the cell's scale.
    Bench(Benchmark),
    /// A synthetic workload (the cell's scale does not apply).
    Synth(SynthBuilder),
}

impl Workload {
    /// The stream's spec with `accesses` accesses.
    pub fn spec(&self, scale: Scale, accesses: u64) -> WorkloadSpec {
        match self {
            Workload::Bench(b) => b.spec(scale, accesses),
            Workload::Synth(s) => s.clone().build(accesses),
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        self.spec(Scale::DEFAULT, 1).name
    }
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Self {
        Workload::Bench(b)
    }
}

/// The machine a cell runs on, sized from the workload's footprint.
#[derive(Debug, Clone)]
pub enum MachineSpec {
    /// Fast tier sized by the ratio; the capacity tier holds the whole RSS
    /// (see [`crate::machine_for`]).
    Tiered(Ratio, CapacityKind),
    /// Every page fits in the fast tier (the All-DRAM reference).
    AllFast,
    /// The all-NVM (or all-CXL) normalization baseline's machine: a token
    /// fast tier that [`System::AllNvm`] never uses.
    Baseline(CapacityKind),
    /// An explicit configuration.
    Custom(MachineConfig),
}

impl MachineSpec {
    /// The configuration for a workload whose regions total `rss` bytes.
    pub fn build(&self, rss: u64) -> MachineConfig {
        // The capacity tier is sized generously: it must absorb the whole
        // RSS (plus bloat and churn) when the fast tier is small.
        let capacity = rss * 2 + 64 * HUGE_PAGE_SIZE;
        let tiered = |fast, kind| match kind {
            CapacityKind::Nvm => MachineConfig::dram_nvm(fast, capacity),
            CapacityKind::Cxl => MachineConfig::dram_cxl(fast, capacity),
        };
        let m = match self {
            MachineSpec::Tiered(ratio, kind) => tiered(ratio.fast_bytes(rss), *kind),
            MachineSpec::Baseline(kind) => tiered(2 * HUGE_PAGE_SIZE, *kind),
            MachineSpec::AllFast => MachineConfig::dram_nvm(capacity, 64 * HUGE_PAGE_SIZE),
            MachineSpec::Custom(m) => return m.clone(),
        };
        m.with_bandwidth_scale(TIME_COMPRESSION)
    }
}

/// The policy a cell runs.
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// A named system, built by [`System::build`].
    System(System),
    /// MEMTIS with an explicit configuration.
    Memtis(MemtisConfig),
    /// No policy: pages stay where allocation put them.
    Noop,
}

impl PolicySpec {
    /// Display name; a configured MEMTIS shows its system's name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::System(s) => s.name(),
            PolicySpec::Memtis(_) => System::Memtis.name(),
            PolicySpec::Noop => "FirstTouch",
        }
    }

    /// The same policy with the MEMTIS systems spelled as their
    /// configurations, so equal runs compare equal and every MEMTIS run
    /// yields MEMTIS's readouts.
    fn canonical(&self) -> PolicySpec {
        match self {
            PolicySpec::System(s) => s.memtis_config().map_or(self.clone(), PolicySpec::Memtis),
            _ => self.clone(),
        }
    }
}

impl From<System> for PolicySpec {
    fn from(s: System) -> Self {
        PolicySpec::System(s)
    }
}

impl From<MemtisConfig> for PolicySpec {
    fn from(c: MemtisConfig) -> Self {
        PolicySpec::Memtis(c)
    }
}

/// One simulation run, fully described.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Access stream.
    pub workload: Workload,
    /// Workload scale.
    pub scale: Scale,
    /// Machine.
    pub machine: MachineSpec,
    /// Tiering policy.
    pub policy: PolicySpec,
    /// Driver configuration.
    pub driver: DriverConfig,
    /// Access budget.
    pub accesses: u64,
    /// Workload stream seed.
    pub seed: u64,
    /// Seed replica index in a multi-seed sweep (0 elsewhere); the seed
    /// already differs per replica, so this is for display only.
    pub replica: u32,
}

impl Cell {
    /// `policy` on `workload` at the paper's defaults: default scale and
    /// driver config, [`SEED`].
    pub fn new(
        workload: impl Into<Workload>,
        machine: MachineSpec,
        policy: impl Into<PolicySpec>,
        accesses: u64,
    ) -> Cell {
        Cell {
            workload: workload.into(),
            scale: Scale::DEFAULT,
            machine,
            policy: policy.into(),
            driver: driver_config(),
            accesses,
            seed: SEED,
            replica: 0,
        }
    }

    /// The all-NVM (or all-CXL) normalization baseline for `bench`: every
    /// page on the capacity tier, with THP.
    pub fn baseline(bench: Benchmark, scale: Scale, kind: CapacityKind, accesses: u64) -> Cell {
        Cell {
            scale,
            ..Cell::new(bench, MachineSpec::Baseline(kind), System::AllNvm, accesses)
        }
    }

    /// The resolved machine configuration.
    pub fn machine_config(&self) -> MachineConfig {
        self.machine
            .build(self.workload.spec(self.scale, 1).total_bytes())
    }

    /// The cell's identity: two cells with equal keys describe the same run.
    pub fn key(&self) -> String {
        format!(
            "{:?}",
            (
                &self.workload,
                self.scale,
                self.machine_config(),
                self.policy.canonical(),
                &self.driver,
                self.accesses,
                self.seed,
            )
        )
    }

    /// Executes the cell.
    pub fn run(&self) -> SimResult<Outcome> {
        match self.policy.canonical() {
            PolicySpec::Memtis(cfg) => self.execute(MemtisPolicy::new(cfg), |p| {
                Readout::Memtis(MemtisReadout {
                    stats: p.stats.clone(),
                    load_period: p.load_period(),
                    huge_dots: huge_dots(p),
                })
            }),
            PolicySpec::System(System::Hemem) => {
                self.execute(HememPolicy::new(HememConfig::default()), |p| {
                    Readout::Hemem(HememReadout {
                        hot_series: p.hot_series.clone(),
                        overallocated_bytes: p.overallocated_bytes,
                    })
                })
            }
            PolicySpec::System(s) => self.execute(s.build(), |_| Readout::None),
            PolicySpec::Noop => self.execute(NoopPolicy, |_| Readout::None),
        }
    }

    fn execute<P: TieringPolicy>(
        &self,
        policy: P,
        readout: impl FnOnce(&P) -> Readout,
    ) -> SimResult<Outcome> {
        let (report, sim) = run_cell(
            self.workload.spec(self.scale, self.accesses),
            self.machine_config(),
            policy,
            NopObserver,
            self.driver.clone(),
            self.seed,
            &SnapshotOpts::default(),
        )?;
        Ok(Outcome {
            report,
            readout: readout(sim.policy()),
            mapped_huge_pages: sim.machine().mapped_huge_pages(),
            rss_bytes: sim.machine().rss_bytes(),
        })
    }
}

/// One dot per touched huge page MEMTIS tracks: (touched subpages, access
/// count) — the Fig. 3 scatter.
fn huge_dots(p: &MemtisPolicy) -> Vec<(u32, u64)> {
    p.pages_iter()
        .filter(|(_, meta)| meta.size == PageSize::Huge && meta.count > 0)
        .filter_map(|(_, meta)| {
            let sub = meta.sub.as_ref()?;
            let touched = sub.counts.iter().filter(|&&c| c > 0).count() as u32;
            Some((touched, meta.count))
        })
        .collect()
}

/// A finished cell: the report plus the end-of-run readouts the figures
/// print.
#[derive(Debug)]
pub struct Outcome {
    /// The run report.
    pub report: RunReport,
    /// The policy's end-of-run state.
    pub readout: Readout,
    /// Huge pages mapped at the end of the run.
    pub mapped_huge_pages: u64,
    /// Resident bytes at the end of the run.
    pub rss_bytes: u64,
}

impl Outcome {
    /// The MEMTIS readouts; panics for other policies.
    pub fn memtis(&self) -> &MemtisReadout {
        let Readout::Memtis(m) = &self.readout else {
            panic!("not a MEMTIS cell")
        };
        m
    }

    /// The HeMem readouts; panics for other policies.
    pub fn hemem(&self) -> &HememReadout {
        let Readout::Hemem(h) = &self.readout else {
            panic!("not a HeMem cell")
        };
        h
    }
}

/// A policy's end-of-run state, for the policies the figures read.
#[derive(Debug)]
pub enum Readout {
    /// Nothing beyond the report.
    None,
    /// MEMTIS.
    Memtis(MemtisReadout),
    /// HeMem.
    Hemem(HememReadout),
}

/// What the figures read from a finished MEMTIS policy.
#[derive(Debug)]
pub struct MemtisReadout {
    /// The policy's counters and series.
    pub stats: MemtisStats,
    /// The PEBS load period after dynamic adjustment.
    pub load_period: u64,
    /// (touched subpages, access count) per touched huge page.
    pub huge_dots: Vec<(u32, u64)>,
}

/// What the figures read from a finished HeMem policy.
#[derive(Debug)]
pub struct HememReadout {
    /// `(now_ns, hot_bytes)` samples.
    pub hot_series: Vec<(f64, u64)>,
    /// Bytes of small allocations pinned to the fast tier.
    pub overallocated_bytes: u64,
}

/// Executes cells across calls, running each distinct cell once.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    done: HashMap<String, Arc<Outcome>>,
    requested: usize,
}

impl Runner {
    /// A runner with `jobs` worker threads.
    pub fn new(jobs: usize) -> Runner {
        Runner {
            jobs,
            done: HashMap::new(),
            requested: 0,
        }
    }

    /// The outcome of every cell, in order. Cells this runner has not
    /// seen yet run through [`run_sweep`]; the rest reuse their outcome.
    pub fn run(&mut self, cells: &[Cell]) -> Vec<Arc<Outcome>> {
        self.requested += cells.len();
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        let fresh: Vec<Cell> = cells
            .iter()
            .zip(&keys)
            .filter(|(_, k)| !self.done.contains_key(*k))
            .map(|(c, _)| c.clone())
            .collect();
        for r in run_sweep(&fresh, self.jobs).cells {
            self.done.entry(r.cell.key()).or_insert(r.outcome);
        }
        keys.iter().map(|k| Arc::clone(&self.done[k])).collect()
    }

    /// Cells requested so far.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Distinct cells executed so far.
    pub fn executed(&self) -> usize {
        self.done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{machine_for, normalized};

    #[test]
    fn equal_runs_share_one_identity() {
        let n = 1_000;
        let b = Benchmark::Silo;
        let tiered = MachineSpec::Tiered(Ratio::DEFAULT, CapacityKind::Nvm);
        let system = Cell::new(b, tiered.clone(), System::Memtis, n);
        let config = Cell::new(b, tiered.clone(), MemtisConfig::sim_scaled(), n);
        let explicit = Cell::new(
            b,
            MachineSpec::Custom(machine_for(
                b,
                Scale::DEFAULT,
                Ratio::DEFAULT,
                CapacityKind::Nvm,
            )),
            System::Memtis,
            n,
        );
        assert_eq!(system.key(), config.key());
        assert_eq!(system.key(), explicit.key());
        for other in [
            Cell::new(b, tiered.clone(), System::MemtisNs, n),
            Cell::new(b, tiered.clone(), System::Memtis, n + 1),
            Cell {
                seed: SEED + 1,
                ..system.clone()
            },
        ] {
            assert_ne!(system.key(), other.key());
        }
    }

    #[test]
    fn runner_executes_each_distinct_cell_once() {
        let tiered = MachineSpec::Tiered(Ratio::DEFAULT, CapacityKind::Nvm);
        let cell = |p: PolicySpec| Cell {
            scale: Scale::TEST,
            ..Cell::new(Benchmark::Roms, tiered.clone(), p, 4_000)
        };
        let mut r = Runner::new(2);
        let first = r.run(&[
            cell(System::Memtis.into()),
            cell(MemtisConfig::sim_scaled().into()),
        ]);
        assert_eq!((r.requested(), r.executed()), (2, 1));
        assert!(Arc::ptr_eq(&first[0], &first[1]));
        assert!(first[0].memtis().stats.samples > 0);
        let second = r.run(&[cell(System::Tpp.into()), cell(System::Memtis.into())]);
        assert_eq!((r.requested(), r.executed()), (4, 2));
        assert!(Arc::ptr_eq(&first[0], &second[1]));
        assert!(matches!(second[0].readout, Readout::None));
    }

    #[test]
    fn baseline_and_memtis_cells_run_and_normalize() {
        let base = Cell::baseline(Benchmark::Roms, Scale::TEST, CapacityKind::Nvm, 20_000);
        let memtis = Cell {
            scale: Scale::TEST,
            ..Cell::new(
                Benchmark::Roms,
                MachineSpec::Tiered(Ratio::DEFAULT, CapacityKind::Nvm),
                System::Memtis,
                20_000,
            )
        };
        let (base, r) = (base.run().unwrap().report, memtis.run().unwrap().report);
        assert!(r.wall_ns > 0.0 && base.wall_ns > 0.0);
        assert!(normalized(&base, &r) > 0.3);
    }
}
