//! The benchmark's four workloads and the set-up each rep starts from.
//!
//! Every workload runs MEMTIS at a 1:8 DRAM:NVM ratio with the experiment
//! driver defaults; they differ in which simulator layer carries the host
//! time, so a gain in one layer shows on one workload and not on another.

use crate::ledger::TimedPolicy;
use memtis_bench::{driver_config, machine_for, CapacityKind, Ratio, TIME_COMPRESSION};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::{AccessStream, DriverConfig, MachineConfig, Simulation, HUGE_PAGE_SIZE};
use memtis_workloads::{
    Benchmark, Bytes, Scale, SpecStream, SynthBuilder, TraceRecorder, TraceReplay, WorkloadSpec,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 654.roms recorded once at set-up and replayed from memory: host time
    /// goes to the access path and MEMTIS's batched sample drain, not to
    /// generation. Huge pages only, no splits.
    RomsReplay,
    /// Silo generated live: generation is the largest layer, and the run
    /// splits huge pages and migrates base pages synchronously.
    SiloSpec,
    /// Drifting zipf on base pages under an 8 B/ns migration link: the
    /// bandwidth cap turns on the asynchronous engine and feeds the policy
    /// per event.
    ZipfDriftBw8,
    /// Stable zipf on base pages and two shards: the only workload whose
    /// bursts run through the shard partition, pool hand-off and fold.
    ZipfShards2,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::RomsReplay,
        Workload::SiloSpec,
        Workload::ZipfDriftBw8,
        Workload::ZipfShards2,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RomsReplay => "roms-replay",
            Workload::SiloSpec => "silo-spec",
            Workload::ZipfDriftBw8 => "zipf-drift-bw8",
            Workload::ZipfShards2 => "zipf-shards2",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accesses per rep at benchmark size, for 2 to 5 s per rep on a
    /// 2-vCPU x86-64 VM. The zipf cells run on base pages, which cost about
    /// twice the host time per access that huge pages do.
    pub fn accesses(self) -> u64 {
        match self {
            Workload::RomsReplay => 40_000_000,
            Workload::SiloSpec => 16_000_000,
            Workload::ZipfDriftBw8 => 6_000_000,
            Workload::ZipfShards2 => 12_000_000,
        }
    }

    fn spec(self, accesses: u64) -> WorkloadSpec {
        match self {
            Workload::RomsReplay => Benchmark::Roms.spec(Scale::DEFAULT, accesses),
            Workload::SiloSpec => Benchmark::Silo.spec(Scale::DEFAULT, accesses),
            // Both zipf cells run on base pages. Under an 8 B/ns link a
            // 2 MiB copy takes 262 us of simulated time, so with huge pages
            // nearly every promotion of a hot page aborts dirty and the
            // completed traffic swings by half from one seed to the next.
            // Unthrottled, MEMTIS promotes a few hundred huge pages of the
            // zipf set and their count varies by 15% between seeds; on
            // base pages both cells vary by under 1%.
            Workload::ZipfDriftBw8 => zipf().phases(16).drift(0.5).stores(0.2).build(accesses),
            Workload::ZipfShards2 => zipf().phases(4).drift(0.0).stores(0.1).build(accesses),
        }
    }

    fn machine(self, spec: &WorkloadSpec) -> MachineConfig {
        match self {
            Workload::RomsReplay => machine_for(Benchmark::Roms, Scale::DEFAULT, RATIO, NVM),
            Workload::SiloSpec => machine_for(Benchmark::Silo, Scale::DEFAULT, RATIO, NVM),
            Workload::ZipfDriftBw8 | Workload::ZipfShards2 => {
                let rss = spec.total_bytes();
                MachineConfig::dram_nvm(RATIO.fast_bytes(rss), rss * 2 + 64 * HUGE_PAGE_SIZE)
                    .with_bandwidth_scale(TIME_COMPRESSION)
            }
        }
    }

    fn driver(self) -> DriverConfig {
        let mut d = driver_config();
        match self {
            Workload::ZipfDriftBw8 => d.migration_bw = Some(8.0),
            Workload::ZipfShards2 => d.shards = Some(2),
            Workload::RomsReplay | Workload::SiloSpec => {}
        }
        d
    }
}

const RATIO: Ratio = Ratio {
    fast: 1,
    capacity: 8,
};
const NVM: CapacityKind = CapacityKind::Nvm;

fn zipf() -> SynthBuilder {
    SynthBuilder::new("zipf")
        .footprint(512 << 20)
        .zipf(0.99)
        .thp(false)
}

/// The policy every rep runs.
pub fn policy() -> MemtisPolicy {
    MemtisPolicy::new(MemtisConfig::sim_scaled())
}

enum Source {
    /// A trace recorded at set-up, replayed per rep.
    Trace(Bytes),
    /// A spec generated live per rep from the seed.
    Spec(WorkloadSpec, u64),
}

/// A workload's inputs and configuration, built once per set-up; every rep
/// draws a fresh stream and a fresh [`Simulation`] from it.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    source: Source,
    /// Machine every rep simulates.
    pub machine: MachineConfig,
    /// Driver configuration every rep uses.
    pub driver: DriverConfig,
    /// Workload events the generator produced (or will produce).
    pub events: u64,
}

impl Prepared {
    /// Builds `workload`'s inputs from `seed` at `accesses` accesses.
    pub fn new(workload: Workload, seed: u64, accesses: u64) -> Prepared {
        let spec = workload.spec(accesses);
        let machine = workload.machine(&spec);
        let (source, events) = match workload {
            Workload::RomsReplay => {
                let mut rec = TraceRecorder::new(SpecStream::new(spec, seed));
                while rec.next_event().is_some() {}
                let events = rec.events();
                (Source::Trace(rec.finish()), events)
            }
            _ => {
                // SpecStream emits each phase's frees and allocs, then its
                // accesses.
                let events = spec
                    .phases
                    .iter()
                    .map(|p| p.accesses + (p.alloc.len() + p.free.len()) as u64)
                    .sum();
                (Source::Spec(spec, seed), events)
            }
        };
        Prepared {
            workload,
            source,
            machine,
            driver: workload.driver(),
            events,
        }
    }

    /// A fresh stream over the workload's events.
    pub fn stream(&self) -> Box<dyn AccessStream> {
        match &self.source {
            Source::Trace(bytes) => Box::new(
                TraceReplay::new(bytes.clone(), self.workload.name())
                    .expect("a trace recorded in this process has a valid header"),
            ),
            Source::Spec(spec, seed) => Box::new(SpecStream::new(spec.clone(), *seed)),
        }
    }

    /// A fresh simulation, as `memtis run` builds one.
    pub fn simulation(&self) -> Simulation<MemtisPolicy> {
        Simulation::new(self.machine.clone(), policy(), self.driver.clone())
    }

    /// A fresh simulation whose policy is timed from outside.
    pub fn traced_simulation(&self) -> Simulation<TimedPolicy<MemtisPolicy>> {
        Simulation::new(
            self.machine.clone(),
            TimedPolicy::new(policy()),
            self.driver.clone(),
        )
    }
}
