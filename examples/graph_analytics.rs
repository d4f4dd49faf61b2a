//! Graph-analytics scenario: run the PageRank workload model across all
//! tiering policies at a chosen fast:capacity ratio, printing a mini
//! leaderboard — a one-command version of the paper's Fig. 5 for a single
//! benchmark.
//!
//! ```sh
//! cargo run --release --example graph_analytics -- 1:8
//! ```

use memtis_repro::baselines::*;
use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};

const ACCESSES: u64 = 1_000_000;

fn machine(ratio: u64) -> MachineConfig {
    let rss = Benchmark::PageRank.spec(Scale::DEFAULT, 1).total_bytes();
    MachineConfig::dram_nvm(rss / (1 + ratio), rss * 2).with_bandwidth_scale(64.0)
}

fn run(policy: Box<dyn TieringPolicy>, ratio: u64) -> RunReport {
    let mut wl = SpecStream::new(Benchmark::PageRank.spec(Scale::DEFAULT, ACCESSES), 99);
    let driver = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 200_000.0,
        ..Default::default()
    };
    let mut sim = Simulation::new(machine(ratio), policy, driver);
    sim.run(&mut wl).expect("run")
}

fn main() {
    let ratio: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.split(':').nth(1).and_then(|c| c.parse().ok()))
        .unwrap_or(8);
    println!("PageRank (scaled Twitter graph), fast:capacity = 1:{ratio}\n");

    let policies: Vec<(&str, Box<dyn TieringPolicy>)> = vec![
        ("All-NVM", Box::new(StaticPolicy::all_slow())),
        (
            "AutoNUMA",
            Box::new(AutoNumaPolicy::new(AutoNumaConfig::default())),
        ),
        (
            "AutoTiering",
            Box::new(AutoTieringPolicy::new(AutoTieringConfig::default())),
        ),
        (
            "Tiering-0.8",
            Box::new(Tiering08Policy::new(Tiering08Config::default())),
        ),
        ("TPP", Box::new(TppPolicy::new(TppConfig::default()))),
        (
            "Nimble",
            Box::new(NimblePolicy::new(NimbleConfig::default())),
        ),
        ("HeMem", Box::new(HememPolicy::new(HememConfig::default()))),
        (
            "MEMTIS",
            Box::new(MemtisPolicy::new(MemtisConfig::sim_scaled())),
        ),
    ];

    let mut results: Vec<(String, f64, f64, u64)> = Vec::new();
    let mut baseline = 0.0;
    for (name, p) in policies {
        let r = run(p, ratio);
        if name == "All-NVM" {
            baseline = r.wall_ns;
        }
        results.push((
            name.to_string(),
            baseline / r.wall_ns,
            r.stats.fast_tier_hit_ratio(),
            r.stats.migration.traffic_4k(),
        ));
    }
    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "{:<14} {:>10} {:>14} {:>16}",
        "policy", "normalized", "fast-hit %", "migrated 4K pages"
    );
    for (name, norm, hr, traffic) in results {
        println!(
            "{name:<14} {norm:>10.3} {:>13.1}% {traffic:>16}",
            hr * 100.0
        );
    }
    println!("\n(normalized to all-NVM with THP, as in the paper's figures)");
}
