//! A Silo-style in-memory KV store running on the *concurrent* runtime:
//! the application thread serves Zipfian lookups while real `ksampled` and
//! `kmigrated` threads classify pages and migrate them in the background —
//! the never-on-the-critical-path architecture of the paper.
//!
//! ```sh
//! cargo run --release --example kvstore_tiering
//! ```

use memtis_repro::memtis::MemtisConfig;
use memtis_repro::runtime::Runtime;
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::dist::ZipfTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::time::Duration;

const STORE_BYTES: u64 = 128 << 20; // 128 MiB of records.
const FAST_BYTES: u64 = 16 << 20; // 16 MiB fast tier (1:8-ish).
const RECORDS: u64 = STORE_BYTES / 4096; // One record per 4 KiB slot.

fn main() {
    let machine = MachineConfig::dram_nvm(FAST_BYTES, 2 * STORE_BYTES).with_bandwidth_scale(64.0);
    let memtis = MemtisConfig {
        load_period: 4,
        store_period: 64,
        adapt_interval: 2_000,
        cooling_interval: 30_000,
        control_interval: 1_000_000, // Fixed period for a short demo.
        ..MemtisConfig::sim_scaled()
    };
    let rt = Runtime::start(machine, memtis, Duration::from_millis(1));

    println!(
        "populating {} records ({} MiB)...",
        RECORDS,
        STORE_BYTES >> 20
    );
    rt.alloc_region(0, STORE_BYTES, true).expect("alloc");
    for r in 0..RECORDS {
        rt.access(Access::store(r * 4096)).expect("populate");
    }

    println!("serving Zipfian lookups with background tiering...");
    let zipf = ZipfTable::new(RECORDS, 0.99);
    let mut rng = StdRng::seed_from_u64(42);
    // Populate stores dominate the cumulative tier hits, so each phase
    // reports its own share from the delta since the previous phase.
    let mut hits_before = rt.machine_stats().tier_hits;
    for phase in 0..4 {
        let mut lat = 0.0;
        let n = 200_000u64;
        for _ in 0..n {
            let record = zipf.sample(&mut rng);
            let addr = record * 4096 + rng.gen_range(0..64) * 64;
            let out = rt.access(Access::load(addr)).expect("lookup");
            lat += out.latency_ns;
        }
        // Give the daemons a moment between phases, as a real app's think
        // time would.
        std::thread::sleep(Duration::from_millis(20));
        let stats = rt.machine_stats();
        let fast_hits = |hits: &[u64]| hits.first().copied().unwrap_or(0);
        let fast = fast_hits(&stats.tier_hits) - fast_hits(&hits_before);
        let total = stats.tier_hits.iter().sum::<u64>() - hits_before.iter().sum::<u64>();
        println!(
            "phase {phase}: mean lookup latency {:6.1} ns | fast-tier share {:4.1}% | migrated {:5} pages",
            lat / n as f64,
            fast as f64 / total.max(1) as f64 * 100.0,
            stats.migration.traffic_4k(),
        );
        hits_before = stats.tier_hits;
    }

    let stats = rt.shutdown();
    println!(
        "\ndone: {} accesses; {} PEBS samples delivered, {} dropped (buffer full), {} kmigrated wakeups",
        stats.accesses.load(Ordering::Relaxed),
        stats.samples_delivered.load(Ordering::Relaxed),
        stats.samples_dropped.load(Ordering::Relaxed),
        stats.migration_wakeups.load(Ordering::Relaxed),
    );
    println!("the application thread never performed a migration: tiering ran entirely in the background.");
}
