//! End-to-end integration: full workloads through the machine under each
//! policy, checking the qualitative properties the paper reports.

use memtis_repro::baselines::StaticPolicy;
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};

const SEED: u64 = 1234;

fn machine_for(bench: Benchmark, ratio: u64) -> MachineConfig {
    let rss = (bench.paper_rss_gb() / 1024.0 * (1u64 << 30) as f64) as u64;
    let fast = (rss / (1 + ratio)).max(2 * HUGE_PAGE_SIZE);
    // Capacity tier sized with slack for bloat and churn.
    let mut cfg = MachineConfig::dram_nvm(fast, rss * 2 + 64 * HUGE_PAGE_SIZE);
    cfg.llc_bytes = 64 * 1024; // Tiny LLC at the tiny test scale.
    cfg
}

fn driver() -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
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

fn run<P: TieringPolicy>(bench: Benchmark, ratio: u64, policy: P, accesses: u64) -> RunReport {
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, accesses), SEED);
    let mut sim = Simulation::new(machine_for(bench, ratio), policy, driver());
    sim.run(&mut wl).expect("simulation should complete")
}

#[test]
fn memtis_beats_all_nvm_on_skewed_workloads() {
    for bench in [Benchmark::XsBench, Benchmark::Silo, Benchmark::Liblinear] {
        let nvm = run(bench, 8, StaticPolicy::all_slow(), 300_000);
        let memtis = run(bench, 8, MemtisPolicy::new(memtis_cfg()), 300_000);
        let speedup = nvm.wall_ns / memtis.wall_ns;
        assert!(
            speedup > 1.05,
            "{}: MEMTIS speedup over all-NVM was only {speedup:.3}",
            bench.name()
        );
        assert_eq!(
            memtis.hist_underflows,
            0,
            "{}: histogram desynced from page metadata",
            bench.name()
        );
    }
}

#[test]
fn all_dram_is_the_upper_bound() {
    let bench = Benchmark::PageRank;
    let dram = run(bench, 8, StaticPolicy::all_fast(), 200_000);
    let memtis = run(bench, 8, MemtisPolicy::new(memtis_cfg()), 200_000);
    // All-DRAM can't fit in the 1:8 fast tier; compare against a machine
    // where the fast tier holds everything.
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, 200_000), SEED);
    let rss = bench.spec(Scale::TEST, 1).total_bytes();
    let mut cfg = MachineConfig::dram_nvm(rss * 2, rss * 2);
    cfg.llc_bytes = 64 * 1024;
    let mut dram_sim = Simulation::new(cfg, StaticPolicy::all_fast(), driver());
    let dram_big = dram_sim.run(&mut wl).unwrap();
    assert!(dram_big.wall_ns <= memtis.wall_ns * 1.05);
    let _ = dram;
}

#[test]
fn runs_are_deterministic() {
    let a = run(Benchmark::Silo, 8, MemtisPolicy::new(memtis_cfg()), 100_000);
    let b = run(Benchmark::Silo, 8, MemtisPolicy::new(memtis_cfg()), 100_000);
    assert_eq!(a.wall_ns, b.wall_ns);
    assert_eq!(
        a.stats.migration.traffic_4k(),
        b.stats.migration.traffic_4k()
    );
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.hist_underflows, 0);
}

/// Healthy full runs never underflow the classification histograms: every
/// `remove()` finds the pages the policy's metadata says are there. (The
/// underflow counter exists because release builds used to saturate
/// silently; see crates/core/src/histogram.rs.)
#[test]
fn histograms_never_underflow_end_to_end() {
    for bench in [Benchmark::Btree, Benchmark::Graph500, Benchmark::PageRank] {
        let r = run(bench, 8, MemtisPolicy::new(memtis_cfg()), 200_000);
        assert_eq!(
            r.hist_underflows,
            0,
            "{}: histogram underflow on a fault-free run",
            bench.name()
        );
    }
}

#[test]
fn memtis_never_slows_the_critical_path() {
    let r = run(
        Benchmark::Btree,
        8,
        MemtisPolicy::new(memtis_cfg()),
        150_000,
    );
    // MEMTIS performs no policy work in fault context; the only app-side
    // extra costs are the driver's own unmap/demand-fault bookkeeping.
    assert!(r.daemon_ns > 0.0, "daemons did work");
    assert!(
        r.app_extra_ns < r.wall_ns * 0.05,
        "app-side extras {:.0}ns vs wall {:.0}ns",
        r.app_extra_ns,
        r.wall_ns
    );
}

#[test]
fn fast_tier_capacity_is_respected() {
    let bench = Benchmark::Graph500;
    let machine = machine_for(bench, 8);
    let fast_cap = machine.tiers[0].capacity;
    let mut wl = SpecStream::new(bench.spec(Scale::TEST, 150_000), SEED);
    let mut sim = Simulation::new(machine, MemtisPolicy::new(memtis_cfg()), driver());
    // Pause every 10k events and check occupancy at each stop.
    let mut pauses = 0u64;
    loop {
        let done = sim
            .run_until(&mut wl, Some((pauses + 1) * 10_000))
            .expect("simulation should complete");
        let used = sim.machine().used_bytes(TierId::FAST);
        assert!(used <= fast_cap, "pause {pauses}: {used} > {fast_cap}");
        if done.is_some() {
            break;
        }
        pauses += 1;
    }
    assert!(pauses >= 10, "only {pauses} pauses");
}
