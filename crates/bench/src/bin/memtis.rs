//! `memtis` — ad-hoc experiment CLI.
//!
//! ```text
//! memtis run  <benchmark> [--ratio 1:8] [--policy memtis] [--cxl] [--accesses N]
//!             [--trace-out PATH.jsonl|PATH.json] [--report-out PATH]
//!             [--window EVENTS] [--heartbeat EVENTS] [--test-scale]
//!             [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC]
//!             [--chunk N] [--shards S] [--shadow] [--hysteresis on|WINDOW:BASE:MAX]
//!             [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! memtis compare <benchmark> [--ratio 1:8] [--cxl] [--accesses N] [--test-scale]
//!             [driver flags]
//! memtis record <benchmark> --out PATH [--accesses N]
//! memtis replay <benchmark> <trace> [--policy memtis] [--ratio 1:8] [--cxl]
//!             [--trace-out PATH.jsonl|PATH.json] [--report-out PATH] [driver flags]
//! memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]
//! memtis list
//! ```
//!
//! The driver flags are `run`'s `--window` through `--hysteresis`, less
//! `--test-scale`. `--accesses` defaults to `MEMTIS_ACCESSES` (see
//! [`access_budget`]); a malformed `MEMTIS_ACCESSES` exits 2.
//!
//! `run` executes one cell once (traced only when it exports a trace or
//! report or checkpoints) and prints its summary, the policy's end-of-run
//! gauges and classification histogram to stdout (deterministic, so two
//! runs compare with `cmp`; the host event rate goes to stderr).
//! `--trace-out` writes that run's event/window trace (JSONL for a `.jsonl`
//! path, Chrome/Perfetto JSON for a `.json` one), `--report-out` a
//! `memtis-report-v1` JSON document (throughput, fault counters,
//! flight-recorder percentiles, phase self-profile) for `memtis diff`, and
//! `--heartbeat N` a one-line JSON status to stderr every N workload
//! events. A trace, report or checkpoint that cannot be written exits 1.
//! `compare` runs every Fig. 5 system on one benchmark; `diff` compares two
//! run-report (or `BENCH_*.json`) documents with relative-tolerance bands
//! and exits nonzero on regression; `list` shows benchmarks and policies.
//! An unknown benchmark, ratio or policy, or a malformed flag, exits 2
//! before anything runs.
//!
//! `--faults` takes a seeded fault plan, e.g.
//! `seed=7,abort=0.02,dirty=0.05,drop=0.05,outage=400000:50000`
//! (see `memtis_sim::faults::FaultPlan::parse`).
//!
//! Service mode: `--snapshot-out PATH --snapshot-every N` checkpoints the
//! full simulation state (machine, policy, driver cursors, trace observer)
//! to PATH every N workload events; `--resume PATH` restores a checkpoint
//! into an identically configured invocation and continues bit-exactly, so
//! the resumed run prints, traces and reports what the uninterrupted run
//! does.
//!
//! Trace ingestion: `record` streams a benchmark's workload events through
//! the one trace writer to a versioned binary file with bounded memory;
//! `replay` drives a simulation from such a file through the one trace
//! reader, refilled a bounded chunk at a time, prints a deterministic
//! report line, and exports the run like `run` does, so a replay's report
//! diffs clean against the live run of the same cell.

use memtis_bench::cli::{self, Args};
use memtis_bench::{
    access_budget, benchmark_from_name, driver_config, machine_for, normalized, report_to_json,
    run_cell, write_trace, CapacityKind, Cell, MachineSpec, Ratio, RunFlags, System, Table, SEED,
};
use memtis_sim::prelude::{NopObserver, Observer, RunReport, TieringPolicy, TracingObserver};
use memtis_workloads::{Benchmark, Scale};

const USAGE: &str = "usage:\n  memtis run <benchmark> [--ratio F:C] [--policy NAME] [--cxl] [--accesses N]\n    \
     [--trace-out PATH.jsonl|PATH.json] [--report-out PATH]\n    \
     [--window EVENTS] [--heartbeat EVENTS] [--test-scale]\n    \
     [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC] [--chunk N]\n    \
     [--shards S] [--shadow] [--hysteresis on|W:B:M]\n    \
     [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]\n  \
     memtis compare <benchmark> [--ratio F:C] [--cxl] [--accesses N] [--test-scale] [driver flags]\n  \
     memtis record <benchmark> --out PATH [--accesses N]\n  \
     memtis replay <benchmark> <trace> [--policy NAME] [--ratio F:C] [--cxl]\n    \
     [--trace-out PATH.jsonl|PATH.json] [--report-out PATH] [driver flags]\n  \
     memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]\n  \
     memtis list\n\
     driver flags: run's --window through --hysteresis, less --test-scale";

/// The driver flags; `compare` adds `--test-scale`, and `replay` adds
/// `--trace-out` and `--report-out`.
const DRIVER_FLAGS: [&str; 9] = [
    "--window",
    "--heartbeat",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--shards",
    "--shadow",
    "--hysteresis",
];

/// A subcommand's cell (`--ratio`, `--cxl`, `--policy`, `--accesses`) and
/// shared flags.
struct Opts {
    ratio: Ratio,
    kind: CapacityKind,
    policy: System,
    accesses: u64,
    flags: RunFlags,
}

/// Parses a subcommand's flags: the ones of `--ratio`, `--policy`, `--cxl`
/// and `--accesses` named in `cell`, the `shared` flags, and whatever
/// `extra` consumes. Exits 2 on malformed input.
fn parse_opts(
    args: &[String],
    cell: &[&str],
    shared: &[&str],
    mut extra: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Opts {
    let (mut ratio, mut kind, mut policy) = (Ratio::DEFAULT, CapacityKind::Nvm, System::Memtis);
    let mut accesses = cli::or_exit(access_budget(), USAGE);
    let flags = cli::parse(args, shared, driver_config(), |arg, a| {
        if !cell.contains(&arg) {
            return extra(arg, a);
        }
        match arg {
            "--ratio" => ratio = a.with(arg, Ratio::parse)?,
            "--policy" => policy = a.with(arg, System::from_name)?,
            "--cxl" => kind = CapacityKind::Cxl,
            "--accesses" => accesses = a.value(arg)?,
            _ => return extra(arg, a),
        }
        Ok(true)
    });
    Opts {
        flags: cli::or_exit(flags, USAGE),
        ratio,
        kind,
        policy,
        accesses,
    }
}

/// The subcommand's leading `<benchmark>` positional.
fn bench_arg(args: &[String]) -> Benchmark {
    let name = args
        .first()
        .ok_or_else(|| "missing <benchmark>".to_string());
    cli::or_exit(name.and_then(|n| benchmark_from_name(n)), USAGE)
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Executes one cell once and prints its summary and the policy's
/// end-of-run state; `--trace-out` and `--report-out` export the same run.
/// The run is traced only when it exports or checkpoints (a checkpoint
/// carries the tracer, so a resumed run exports what the uninterrupted one
/// does); otherwise it runs untraced.
fn run_one(args: &[String]) {
    let bench = bench_arg(args);
    let cell = ["--ratio", "--policy", "--cxl", "--accesses"];
    let o = parse_opts(&args[1..], &cell, &cli::SHARED, |_, _| Ok(false));
    let f = &o.flags;
    if f.trace_out.is_none() && f.report_out.is_none() && !f.snap.is_active() {
        run_and_print(bench, &o, NopObserver);
        return;
    }
    let (r, obs) = run_and_print(bench, &o, TracingObserver::new());
    export(f, &r, &obs);
}

/// Writes a traced run's `--trace-out` and `--report-out` files.
fn export(f: &RunFlags, r: &RunReport, obs: &TracingObserver) {
    if let Some(path) = &f.trace_out {
        or_exit_1(write_trace(path, obs, &r.windows));
    }
    if let Some(path) = &f.report_out {
        let profile = obs.profiler.as_ref().map(|p| p.stats());
        let body = report_to_json(r, profile.as_deref());
        or_exit_1(
            std::fs::write(path, body)
                .map_err(|e| format!("could not write --report-out {path}: {e}")),
        );
        eprintln!("[report written to {path}]");
    }
}

/// Unwraps an output write, or prints `error: …` and exits 1.
fn or_exit_1(r: Result<(), String>) {
    if let Err(e) = r {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Runs `o`'s cell of `bench` under `obs` and prints the run's summary and
/// the policy's end-of-run gauges and histogram bins.
fn run_and_print<O: Observer>(bench: Benchmark, o: &Opts, obs: O) -> (RunReport, O) {
    let (f, scale) = (&o.flags, o.flags.scale);
    let policy = o.policy.build();
    let driver = f.driver.clone();
    let machine = machine_for(bench, scale, o.ratio, o.kind);
    let spec = bench.spec(scale, o.accesses);
    let (r, sim) = cli::run_or_exit(run_cell(spec, machine, policy, obs, driver, SEED, &f.snap));
    let base = baseline(bench, o);
    let tier = match o.kind {
        CapacityKind::Cxl => "CXL",
        CapacityKind::Nvm => "NVM",
    };
    println!(
        "{} on {} at {} ({tier}):",
        o.policy.name(),
        bench.name(),
        o.ratio.label(),
    );
    println!(
        "  normalized perf   : {:.3} (vs all-{tier} w/ THP)",
        normalized(&base, &r),
    );
    println!("  wall time         : {:.2} ms", r.wall_ns / 1e6);
    println!("  throughput        : {:.1} M acc/s", r.throughput() / 1e6);
    eprintln!(
        "  sim self-thpt     : {:.2} M events/s (host)",
        r.self_events_per_sec() / 1e6
    );
    println!(
        "  fast-tier hits    : {:.1}%",
        r.stats.fast_tier_hit_ratio() * 100.0
    );
    println!(
        "  migration traffic : {} 4K pages",
        r.stats.migration.traffic_4k()
    );
    println!("  huge-page splits  : {}", r.stats.migration.splits);
    println!(
        "  RSS (peak/final)  : {} / {} MB",
        r.rss_peak_bytes >> 20,
        r.rss_final_bytes >> 20
    );
    println!("  daemon CPU        : {:.2} cores", r.daemon_core_usage());
    println!("  app-path overhead : {:.2} ms", r.app_extra_ns / 1e6);
    if f.driver.faults.is_some() {
        println!(
            "  faults injected   : {} ({:?})",
            r.faults.total(),
            r.faults
        );
        println!("  hist underflows   : {}", r.hist_underflows);
    }
    let thpt: Vec<f64> = r.windows.iter().map(|w| w.window_throughput).collect();
    let fhr: Vec<f64> = r.windows.iter().map(|w| w.fast_hit_ratio).collect();
    if !thpt.is_empty() {
        println!(
            "  throughput  (t →) : {}",
            memtis_bench::sparkline(&thpt, 48)
        );
        println!(
            "  fast-hit %  (t →) : {}",
            memtis_bench::sparkline(&fhr, 48)
        );
    }
    let mut gauges = Vec::new();
    sim.policy().timeline(&mut gauges);
    if !gauges.is_empty() {
        let gauges: Vec<String> = gauges.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  policy gauges     : {}", gauges.join(" "));
    }
    let mut bins = Vec::new();
    sim.policy().histogram_bins(&mut bins);
    if !bins.is_empty() {
        println!("  histogram bins    : {bins:?}");
    }
    (r, sim.into_observer())
}

/// The all-NVM (or all-CXL) run that `o`'s cell of `bench` is normalized
/// against.
fn baseline(bench: Benchmark, o: &Opts) -> RunReport {
    let cell = Cell::baseline(bench, o.flags.scale, o.kind, o.accesses);
    cli::run_or_exit(cell.run()).report
}

/// Runs every Fig. 5 system on one benchmark and prints them ranked.
fn run_compare(args: &[String]) {
    let bench = bench_arg(args);
    let cell = ["--ratio", "--cxl", "--accesses"];
    let shared = [&DRIVER_FLAGS[..], &["--test-scale"]].concat();
    let o = parse_opts(&args[1..], &cell, &shared, |_, _| Ok(false));
    let scale = o.flags.scale;
    let base = baseline(bench, &o);
    let mut t = Table::new(vec![
        "policy",
        "normalized",
        "fast-hit %",
        "traffic 4K",
        "splits",
    ]);
    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    for sys in System::FIG5 {
        let cell = Cell {
            scale,
            driver: o.flags.driver.clone(),
            ..Cell::new(bench, MachineSpec::Tiered(o.ratio, o.kind), sys, o.accesses)
        };
        let r = cli::run_or_exit(cell.run()).report;
        let n = normalized(&base, &r);
        rows.push((
            n,
            vec![
                sys.name().to_string(),
                format!("{n:.3}"),
                format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
                r.stats.migration.traffic_4k().to_string(),
                r.stats.migration.splits.to_string(),
            ],
        ));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, row) in rows {
        t.row(row);
    }
    println!("{} at {}:\n{}", bench.name(), o.ratio.label(), t.render());
}

/// Streams a benchmark's workload events to a binary trace file with
/// bounded memory ([`memtis_workloads::TraceFileWriter`]).
fn run_record(args: &[String]) {
    use memtis_sim::prelude::AccessStream;
    use memtis_workloads::{SpecStream, TraceFileWriter};
    let bench = bench_arg(args);
    let mut out: Option<String> = None;
    let o = parse_opts(&args[1..], &["--accesses"], &[], |arg, a| {
        if arg != "--out" {
            return Ok(false);
        }
        out = Some(a.string(arg)?);
        Ok(true)
    });
    let Some(path) = out else {
        eprintln!("error: record needs --out PATH");
        std::process::exit(2);
    };
    let mut writer = match TraceFileWriter::create(&path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut stream = SpecStream::new(bench.spec(Scale::DEFAULT, o.accesses), SEED);
    while let Some(ev) = stream.next_event() {
        if let Err(e) = writer.record(&ev) {
            eprintln!("error: write to {path} failed: {e}");
            std::process::exit(1);
        }
    }
    let events = writer.events();
    if let Err(e) = writer.finish() {
        eprintln!("error: flushing {path} failed: {e}");
        std::process::exit(1);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("recorded {events} events ({bytes} bytes) to {path}");
}

/// Drives a simulation from a recorded trace file, streamed through the
/// bounded-buffer reader, and prints one line of sim-deterministic
/// quantities; `--trace-out` and `--report-out` export the run as `run`
/// does. The stream carries the benchmark's name, so the report's
/// `workload` is the one `run` writes for the same cell.
fn run_replay(args: &[String]) {
    let bench = bench_arg(args);
    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")).cloned() else {
        usage()
    };
    let cell = ["--ratio", "--policy", "--cxl"];
    let shared = [&["--trace-out", "--report-out"][..], &DRIVER_FLAGS].concat();
    let o = parse_opts(&args[2..], &cell, &shared, |_, _| Ok(false));
    let f = &o.flags;
    if f.trace_out.is_none() && f.report_out.is_none() {
        replay_and_print(bench, &path, &o, NopObserver);
        return;
    }
    let (r, obs) = replay_and_print(bench, &path, &o, TracingObserver::new());
    export(f, &r, &obs);
}

/// Replays the trace at `path` through `o`'s cell of `bench` under `obs`
/// and prints the run's summary line.
fn replay_and_print<O: Observer>(bench: Benchmark, path: &str, o: &Opts, obs: O) -> (RunReport, O) {
    use memtis_sim::prelude::Simulation;
    use memtis_workloads::TraceReplay;
    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
    let driver = o.flags.driver.clone();
    let mut sim = Simulation::with_observer(machine, o.policy.build(), driver, obs);
    let fail = |what: &str, e: &dyn std::fmt::Debug| -> ! {
        eprintln!("error: {what}: {e:?}");
        std::process::exit(1);
    };
    let mut reader = match TraceReplay::open(path, bench.name()) {
        Ok(r) => r,
        Err(e) => fail("cannot open trace", &e),
    };
    let r = sim.run(&mut reader).unwrap_or_else(|e| fail("run", &e));
    if let Some(e) = reader.take_error() {
        fail("trace decode", &e);
    }
    println!(
        "{} replay of {path}: wall={:.2}ms accesses={} events={} fastHR={:.4} \
         promo4k={} demo4k={} splits={} rss={}MB tlb_miss={:.4} llc_miss={:.4}",
        o.policy.name(),
        r.wall_ns / 1e6,
        r.accesses,
        r.sim_events,
        r.stats.fast_tier_hit_ratio(),
        r.stats.migration.promoted_4k,
        r.stats.migration.demoted_4k,
        r.stats.migration.splits,
        r.rss_final_bytes >> 20,
        r.tlb.miss_ratio(),
        r.llc.miss_ratio(),
    );
    (r, sim.into_observer())
}

fn run_diff(args: &[String]) -> ! {
    use memtis_bench::{diff_reports, parse_diff_args, render_diff};
    use memtis_sim::obs::json::Json;
    let (old_path, new_path, opts) = match parse_diff_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let load = |path: &str| -> Json {
        let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&body).unwrap_or_else(|e| {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let d = diff_reports(&load(&old_path), &load(&new_path), &opts);
    print!("{}", render_diff(&d));
    if d.has_breach() {
        eprintln!("diff: regression detected ({old_path} -> {new_path})");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("benchmarks:");
            for b in Benchmark::ALL {
                println!("  {:<12} {}", b.name(), b.description());
            }
            println!("\npolicies:");
            for s in System::ALL {
                println!("  {}", s.name());
            }
        }
        Some("run") => run_one(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("record") => run_record(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        _ => usage(),
    }
}
