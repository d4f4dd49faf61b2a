//! `memtis` — ad-hoc experiment CLI.
//!
//! ```text
//! memtis run  <benchmark> [--ratio 1:8] [--policy memtis] [--cxl] [--accesses N]
//!             [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]
//!             [--heartbeat EVENTS] [--migration-bw BYTES_PER_NS]
//!             [--migration-queue DEPTH] [--faults SPEC] [--chunk N] [--shards S|auto]
//!             [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!             [--hysteresis on|off|WINDOW:BASE:MAX]
//!             [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! memtis compare <benchmark> [--ratio 1:8] [--cxl] [--accesses N] [driver flags]
//! memtis record <benchmark> --out PATH [--accesses N]
//! memtis replay <benchmark> <trace> [--policy memtis] [--ratio 1:8] [--cxl]
//!             [--in-memory] [--chunk-bytes N] [driver flags]
//! memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]
//! memtis list
//! ```
//!
//! The driver flags are `run`'s `--window` through `--hysteresis`.
//!
//! `run` executes one cell and prints the detailed report; `compare` runs
//! every system on one benchmark; `diff` compares two run-report (or
//! `BENCH_*.json`) documents with relative-tolerance bands and exits
//! nonzero on regression; `list` shows benchmarks and policies. An unknown
//! benchmark, ratio or policy, or a malformed flag, exits 2 before anything
//! runs.
//!
//! Service mode: `--snapshot-out PATH --snapshot-every N` checkpoints the
//! full simulation state (machine, policy, driver cursors, trace observer)
//! to PATH every N workload events; `--resume PATH` restores a checkpoint
//! into an identically configured invocation and continues bit-exactly.
//!
//! Trace ingestion: `record` streams a benchmark's workload events to a
//! versioned binary trace file with bounded memory; `replay` drives a
//! simulation from such a file through the chunked [`TraceFileReader`]
//! (default), or whole-trace in-memory with `--in-memory` — both produce
//! the identical deterministic report line, so the two modes can be
//! byte-compared. `--chunk-bytes N` sets the streamed reader's buffer.
//!
//! [`TraceFileReader`]: memtis_workloads::TraceFileReader

use memtis_bench::cli::{self, Args};
use memtis_bench::{
    access_budget, benchmark_from_name, driver_config, machine_for, normalized, run_baseline,
    run_cell, run_cell_seeded, run_cell_traced, write_trace, CapacityKind, Ratio, RunFlags, System,
    Table, SEED,
};
use memtis_workloads::{Benchmark, Scale};

const USAGE: &str = "usage:\n  memtis run <benchmark> [--ratio F:C] [--policy NAME] [--cxl] [--accesses N]\n    \
     [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS] [--heartbeat EVENTS]\n    \
     [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC] [--chunk N]\n    \
     [--shards S|auto] [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]\n    \
     [--hysteresis on|off|W:B:M] [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]\n  \
     memtis compare <benchmark> [--ratio F:C] [--cxl] [--accesses N] [driver flags]\n  \
     memtis record <benchmark> --out PATH [--accesses N]\n  \
     memtis replay <benchmark> <trace> [--policy NAME] [--ratio F:C] [--cxl]\n    \
     [--in-memory] [--chunk-bytes N] [driver flags]\n  \
     memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]\n  \
     memtis list\n\
     driver flags: run's --window through --hysteresis";

/// The shared flags of every subcommand that simulates.
const DRIVER_FLAGS: [&str; 10] = [
    "--window",
    "--heartbeat",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--shards",
    "--admission",
    "--shadow",
    "--hysteresis",
];

/// `run`'s trace and checkpoint flags, on top of [`DRIVER_FLAGS`].
const RUN_FLAGS: [&str; 5] = [
    "--trace-out",
    "--trace-format",
    "--snapshot-out",
    "--snapshot-every",
    "--resume",
];

/// A subcommand's cell (`--ratio`, `--cxl`, `--policy`) and shared flags.
struct Opts {
    ratio: Ratio,
    kind: CapacityKind,
    policy: System,
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
    let flags = cli::parse(args, shared, driver_config(), |arg, a| {
        if !cell.contains(&arg) {
            return extra(arg, a);
        }
        match arg {
            "--ratio" => ratio = a.with(arg, Ratio::parse)?,
            "--policy" => policy = a.with(arg, System::from_name)?,
            "--cxl" => kind = CapacityKind::Cxl,
            "--accesses" => std::env::set_var("MEMTIS_ACCESSES", a.value::<u64>(arg)?.to_string()),
            _ => return extra(arg, a),
        }
        Ok(true)
    });
    Opts {
        flags: cli::or_exit(flags, USAGE),
        ratio,
        kind,
        policy,
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

/// Executes one cell and prints the detailed report.
fn run_one(args: &[String]) {
    let bench = bench_arg(args);
    let cell = ["--ratio", "--policy", "--cxl", "--accesses"];
    let shared = [&DRIVER_FLAGS[..], &RUN_FLAGS].concat();
    let o = parse_opts(&args[1..], &cell, &shared, |_, _| Ok(false));
    let driver = o.flags.driver(o.policy.build().batch_safe());
    let base = run_baseline(bench, Scale::DEFAULT, o.kind);
    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
    let (policy, snap) = (o.policy.build(), &o.flags.snap);
    let r = match &o.flags.trace_out {
        Some(path) => {
            let (r, obs) = cli::run_or_exit(run_cell_traced(
                bench,
                Scale::DEFAULT,
                machine,
                policy,
                driver,
                access_budget(),
                SEED,
                snap,
            ));
            write_trace(path, o.flags.trace_format, &obs, &r.windows);
            r
        }
        None => cli::run_or_exit(run_cell_seeded(
            bench,
            Scale::DEFAULT,
            machine,
            policy,
            driver,
            access_budget(),
            SEED,
            snap,
        )),
    };
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
    println!(
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
    if o.flags.base.faults.is_some() {
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
}

/// Runs every Fig. 5 system on one benchmark and prints them ranked.
fn run_compare(args: &[String]) {
    let bench = bench_arg(args);
    let cell = ["--ratio", "--cxl", "--accesses"];
    let o = parse_opts(&args[1..], &cell, &DRIVER_FLAGS, |_, _| Ok(false));
    let base = run_baseline(bench, Scale::DEFAULT, o.kind);
    let mut t = Table::new(vec![
        "policy",
        "normalized",
        "fast-hit %",
        "traffic 4K",
        "splits",
    ]);
    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    for sys in System::FIG5 {
        let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
        let driver = o.flags.driver(sys.build().batch_safe());
        let r = run_cell(
            bench,
            Scale::DEFAULT,
            machine,
            sys.build(),
            driver,
            access_budget(),
        );
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
    parse_opts(&args[1..], &["--accesses"], &[], |arg, a| {
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
    let mut stream = SpecStream::new(bench.spec(Scale::DEFAULT, access_budget()), SEED);
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

/// Drives a simulation from a recorded trace file — streamed through the
/// bounded-buffer reader by default, whole-trace in-memory with
/// `--in-memory`. Prints only sim-deterministic quantities so the two
/// modes are byte-comparable.
fn run_replay(args: &[String]) {
    use memtis_sim::prelude::Simulation;
    use memtis_workloads::{Bytes, TraceFileReader, TraceReplay};
    let bench = bench_arg(args);
    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")).cloned() else {
        usage()
    };
    let mut in_memory = false;
    let mut chunk_bytes: Option<usize> = None;
    let cell = ["--ratio", "--policy", "--cxl"];
    let o = parse_opts(&args[2..], &cell, &DRIVER_FLAGS, |arg, a| {
        match arg {
            "--in-memory" => in_memory = true,
            "--chunk-bytes" => chunk_bytes = Some(a.value(arg)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
    let driver = o.flags.driver(o.policy.build().batch_safe());
    let mut sim = Simulation::new(machine, o.policy.build(), driver);
    let fail = |what: &str, e: &dyn std::fmt::Debug| -> ! {
        eprintln!("error: {what}: {e:?}");
        std::process::exit(1);
    };
    let r = if in_memory {
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) => fail("cannot read trace", &e),
        };
        let mut replay = match TraceReplay::new(Bytes::from(data), "replay") {
            Ok(r) => r,
            Err(e) => fail("invalid trace", &e),
        };
        let r = sim.run(&mut replay).unwrap_or_else(|e| fail("run", &e));
        if let Some(e) = replay.take_error() {
            fail("trace decode", &e);
        }
        r
    } else {
        let open = match chunk_bytes {
            Some(n) => TraceFileReader::with_chunk_bytes(&path, "replay", n),
            None => TraceFileReader::open(&path, "replay"),
        };
        let mut reader = match open {
            Ok(r) => r,
            Err(e) => fail("cannot open trace", &e),
        };
        let r = sim.run(&mut reader).unwrap_or_else(|e| fail("run", &e));
        if let Some(e) = reader.take_error() {
            fail("trace decode", &e);
        }
        r
    };
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
