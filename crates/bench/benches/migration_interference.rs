//! Migration interference — demand accesses vs the asynchronous engine.
//!
//! With instantaneous migration the app never feels `kmigrated`; with the
//! bandwidth-arbitrated engine, promotions occupy a finite link and pages
//! arrive late, so demand accesses keep paying capacity-tier latency.
//! Experiment 1 sweeps the per-link bandwidth cap and reports average
//! demand latency and fast-tier hit ratio as the cap tightens. Experiment
//! 2 ablates MEMTIS's in-flight cancellation under a tight cap on a
//! drifting-hot-set workload: a promotion enqueued for the old Zipf head
//! is still copying when the head rotates, so the page cools mid-flight.
//! Cancelling it costs at most one partial pass; letting it run (the
//! no-cancel ablation) completes a useless copy that evicts resident pages
//! and must later be demoted again, multiplying total link traffic.

use memtis_bench::{
    access_budget, driver_config, machine_for, run_cell, CapacityKind, Ratio, SnapshotOpts, Table,
    SEED, TIME_COMPRESSION,
};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::{MachineConfig, NopObserver, Simulation, HUGE_PAGE_SIZE};
use memtis_workloads::{Benchmark, Scale, SpecStream, SynthBuilder};

const BW_CAPS: [Option<f64>; 5] = [None, Some(64.0), Some(16.0), Some(4.0), Some(1.0)];
/// Ablation cap: a huge-page pass takes ~262 us — long enough to span many
/// `kmigrated` wakeups (so cooling can catch a transfer mid-flight), short
/// enough that transfers still complete within the run.
const TIGHT_BW: f64 = 8.0;

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };
    let bench = Benchmark::Btree;

    let mut sweep = Table::new(vec![
        "bw (B/ns)",
        "avg demand lat (ns)",
        "fast-hit %",
        "promo 4K",
        "aborted",
        "inflight pk",
    ]);
    for cap in BW_CAPS {
        let mut driver = driver_config();
        driver.migration_bw = cap;
        let (r, _) = run_cell(
            bench,
            scale,
            machine_for(bench, scale, ratio, CapacityKind::Nvm),
            MemtisPolicy::new(MemtisConfig::sim_scaled()),
            NopObserver,
            driver,
            access_budget(),
            SEED,
            &SnapshotOpts::default(),
        )
        .expect("experiment run failed");
        sweep.row(vec![
            cap.map_or("instant".to_string(), |b| format!("{b}")),
            format!("{:.1}", r.app_access_ns / r.accesses as f64),
            format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
            r.stats.migration.promoted_4k.to_string(),
            r.stats.migration.aborted.to_string(),
            r.stats.migration.in_flight_peak.to_string(),
        ]);
    }
    memtis_bench::emit(
        "migration_interference",
        &format!(
            "{}: demand latency vs migration-link bandwidth cap",
            bench.name()
        ),
        &sweep,
    );

    let mut ablation = Table::new(vec![
        "variant",
        "avg demand lat (ns)",
        "fast-hit %",
        "cancels",
        "aborted copy (KB)",
        "promo 4K",
        "demo 4K",
    ]);
    // A drifting hot set is what makes cancellation matter: promotions
    // enqueued for the old Zipf head are still copying when the head
    // rotates, so the page cools mid-flight.
    // Loads only: stores would dirty-abort the in-flight copies before the
    // drift has a chance to cool them, hiding the cancellation effect.
    let spec = SynthBuilder::new("drifting-zipf")
        .footprint(64 << 20)
        .zipf(1.2)
        .phases(16)
        .drift(0.5)
        .stores(0.0)
        .build(access_budget());
    let rss = spec.total_bytes();
    for (label, cfg) in [
        ("cancel in-flight", MemtisConfig::sim_scaled()),
        (
            "no-cancel ablation",
            MemtisConfig::sim_scaled().without_inflight_cancel(),
        ),
    ] {
        let machine = MachineConfig::dram_nvm(ratio.fast_bytes(rss), rss * 2 + 64 * HUGE_PAGE_SIZE)
            .with_bandwidth_scale(TIME_COMPRESSION);
        let mut driver = driver_config();
        driver.migration_bw = Some(TIGHT_BW);
        let mut wl = SpecStream::new(spec.clone(), memtis_bench::SEED);
        let mut sim = Simulation::new(machine, MemtisPolicy::new(cfg), driver);
        let r = sim.run(&mut wl).expect("ablation run failed");
        ablation.row(vec![
            label.to_string(),
            format!("{:.1}", r.app_access_ns / r.accesses as f64),
            format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
            sim.policy().stats.inflight_cancels.to_string(),
            (r.stats.migration.aborted_bytes >> 10).to_string(),
            r.stats.migration.promoted_4k.to_string(),
            r.stats.migration.demoted_4k.to_string(),
        ]);
    }
    memtis_bench::emit(
        "migration_cancel_ablation",
        &format!("drifting-zipf: in-flight cancellation vs no-cancel at {TIGHT_BW} B/ns"),
        &ablation,
    );
}
