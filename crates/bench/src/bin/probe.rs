//! Diagnostic probe: run one (benchmark, ratio, system) cell and dump the
//! detailed report.
//!
//! ```text
//! probe [<benchmark>] [<ratio>] [<system>|all] [--test-scale]
//!       [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]
//!       [--report-out PATH] [--heartbeat EVENTS]
//!       [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH]
//!       [--faults SPEC] [--chunk N] [--shards S|auto]
//!       [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!       [--hysteresis on|off|WINDOW:BASE:MAX]
//!       [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! ```
//!
//! The positionals default to PageRank, 1:8 and `all` (the Fig. 5
//! systems). An unknown benchmark, ratio or system, or a malformed flag,
//! exits 2 before anything runs.
//!
//! `--faults` takes a seeded fault plan, e.g.
//! `seed=7,abort=0.02,dirty=0.05,drop=0.05,outage=400000:50000`
//! (see `memtis_sim::faults::FaultPlan::parse`).
//!
//! With `--trace-out` and/or `--report-out`, the first selected system's
//! run is re-executed under a tracing observer; `--trace-out` writes the
//! event/window trace, `--report-out` a `memtis-report-v1` JSON document
//! (throughput, fault counters, flight-recorder percentiles, phase
//! self-profile) for `memtis diff`. `--heartbeat N` emits a one-line JSON
//! status to stderr every N workload events.
//!
//! Service mode: `--snapshot-out PATH --snapshot-every N` checkpoints the
//! full simulation state to PATH (atomically overwritten) every N workload
//! events; `--resume PATH` restores such a checkpoint into an identically
//! configured run and continues bit-exactly. Snapshot flags require a
//! single selected system.

use memtis_bench::{
    access_budget, benchmark_from_name, cli, driver_config, machine_for, run_baseline,
    run_cell_seeded, run_cell_traced, write_trace, CapacityKind, Ratio, RunFlags, SnapshotOpts,
    System, SEED,
};
use memtis_workloads::{Benchmark, Scale};

const USAGE: &str = "usage: probe [<benchmark>] [<ratio>] [<system>|all] [--test-scale]\n  \
    [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]\n  \
    [--report-out PATH] [--heartbeat EVENTS]\n  \
    [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH]\n  \
    [--faults SPEC] [--chunk N] [--shards S|auto]\n  \
    [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]\n  \
    [--hysteresis on|off|WINDOW:BASE:MAX]\n  \
    [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]";

fn probe_memtis(
    bench: Benchmark,
    ratio: Ratio,
    scale: Scale,
    driver: memtis_sim::prelude::DriverConfig,
) {
    use memtis_core::{MemtisConfig, MemtisPolicy};
    use memtis_sim::prelude::Simulation;
    use memtis_workloads::SpecStream;
    let machine = memtis_bench::machine_for(bench, scale, ratio, CapacityKind::Nvm);
    let mut wl = SpecStream::new(bench.spec(scale, memtis_bench::access_budget()), SEED);
    let mut sim = Simulation::new(
        machine,
        MemtisPolicy::new(MemtisConfig::sim_scaled()),
        driver,
    );
    let _ = sim.run(&mut wl).unwrap();
    let p = sim.policy();
    let st = &p.stats;
    println!(
        "  memtis internals: samples={} adapts={} coolings={} estimates={} \
         rhr={:.3} ehr={:.3} candidates={} requested={} splits={} collapses={} \
         thr={:?} base_thr={:?} period={}",
        st.samples,
        st.adaptations,
        st.coolings,
        st.estimates,
        st.last_rhr,
        st.last_ehr,
        st.split_candidates,
        st.split_requested,
        st.splits,
        st.collapses,
        (p.thresholds().hot, p.thresholds().warm, p.thresholds().cold),
        (
            p.base_thresholds().hot,
            p.base_thresholds().warm,
            p.base_thresholds().cold
        ),
        p.load_period(),
    );
    println!("  page hist: {:?}", p.histogram().bins());
    println!("  base hist: {:?}", p.base_histogram().bins());
}

/// Resolves the positionals to the cell they select.
fn cell(
    positional: &[String],
    flags: &RunFlags,
) -> Result<(Benchmark, Ratio, Vec<System>), String> {
    let bench = match positional.first() {
        Some(name) => benchmark_from_name(name)?,
        None => Benchmark::PageRank,
    };
    let ratio = match positional.get(1) {
        Some(label) => Ratio::parse(label)?,
        None => Ratio::DEFAULT,
    };
    let systems = match positional.get(2).map(String::as_str) {
        Some("all") | None => System::FIG5.to_vec(),
        Some(name) => vec![System::from_name(name)?],
    };
    if flags.snap.is_active() && systems.len() != 1 {
        return Err("snapshot flags need a single selected system (not `all`)".into());
    }
    Ok((bench, ratio, systems))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let flags = cli::parse(&args, &cli::SHARED, driver_config(), |arg, _| {
        if arg.starts_with("--") || positional.len() == 3 {
            return Ok(false);
        }
        positional.push(arg.to_string());
        Ok(true)
    });
    let flags = cli::or_exit(flags, USAGE);
    let (bench, ratio, systems) = cli::or_exit(cell(&positional, &flags), USAGE);
    let scale = flags.scale;
    let driver = flags.driver(systems.iter().all(|s| s.build().batch_safe()));
    let machine = || machine_for(bench, scale, ratio, CapacityKind::Nvm);
    let base = run_baseline(bench, scale, CapacityKind::Nvm);
    println!(
        "baseline all-NVM: wall={:.2}ms thpt={:.1}M/s llc_miss={:.3}",
        base.wall_ns / 1e6,
        base.throughput() / 1e6,
        base.llc.miss_ratio()
    );
    for &sys in &systems {
        let r = cli::run_or_exit(run_cell_seeded(
            bench,
            scale,
            machine(),
            sys.build(),
            driver.clone(),
            access_budget(),
            SEED,
            &flags.snap,
        ));
        println!(
            "{:<12} norm={:.3} wall={:.2}ms app_extra={:.2}ms daemon={:.2}ms dcores={:.2} \
             fastHR={:.3} promo4k={} demo4k={} splits={} shootdowns={} hintfaults={} rss={}MB \
             tlb_miss={:.4} llc_miss={:.3} avg_lat={:.1}ns",
            sys.name(),
            base.wall_ns / r.wall_ns,
            r.wall_ns / 1e6,
            r.app_extra_ns / 1e6,
            r.daemon_ns / 1e6,
            r.daemon_core_usage(),
            r.stats.fast_tier_hit_ratio(),
            r.stats.migration.promoted_4k,
            r.stats.migration.demoted_4k,
            r.stats.migration.splits,
            r.stats.shootdowns,
            r.stats.hint_faults,
            r.rss_final_bytes >> 20,
            r.tlb.miss_ratio(),
            r.llc.miss_ratio(),
            r.app_access_ns / r.accesses as f64,
        );
        if driver.faults.is_some() {
            println!(
                "  faults: {:?} hist_underflows={}",
                r.faults, r.hist_underflows
            );
        }
        if sys == System::Memtis {
            probe_memtis(bench, ratio, scale, driver.clone());
        }
    }

    if flags.trace_out.is_some() || flags.report_out.is_some() {
        let (report, obs) = cli::run_or_exit(run_cell_traced(
            bench,
            scale,
            machine(),
            systems[0].build(),
            driver,
            access_budget(),
            SEED,
            &SnapshotOpts::default(),
        ));
        if let Some(path) = &flags.trace_out {
            write_trace(path, flags.trace_format, &obs, &report.windows);
        }
        if let Some(path) = &flags.report_out {
            let profile = obs.profiler.as_ref().map(|p| p.stats());
            let body = memtis_bench::report_to_json(&report, profile.as_deref());
            match std::fs::write(path, body) {
                Ok(()) => println!("[report written to {path}]"),
                Err(e) => eprintln!("warning: could not write report {path}: {e}"),
            }
        }
    }
}
