//! `memtis` — ad-hoc experiment CLI.
//!
//! ```text
//! memtis run  <benchmark> [--ratio 1:8] [--policy memtis] [--cxl] [--accesses N]
//!             [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]
//!             [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC]
//!             [--chunk N] [--shards S|auto]
//!             [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off]
//!             [--hysteresis on|off|WINDOW:BASE:MAX]
//!             [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]
//! memtis compare <benchmark> [--ratio 1:8] [--cxl] [--accesses N]
//!             [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--faults SPEC]
//!             [--chunk N]
//! memtis record <benchmark> --out PATH [--accesses N]
//! memtis replay <benchmark> <trace> [--policy memtis] [--ratio 1:8] [--cxl]
//!             [--in-memory] [--chunk-bytes N]
//! memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]
//! memtis list
//! ```
//!
//! `run` executes one cell and prints the detailed report; `compare` runs
//! every system on one benchmark; `diff` compares two run-report (or
//! `BENCH_*.json`) documents with relative-tolerance bands and exits
//! nonzero on regression; `list` shows benchmarks and policies.
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

use memtis_bench::{
    access_budget, driver_config, driver_config_with_window, machine_for, normalized,
    parse_admission, parse_hysteresis, parse_shadow, run_baseline, run_system_with_driver,
    write_trace, CapacityKind, ModeOverrides, Ratio, ShardsSpec, System, Table, TraceFormat,
    DEFAULT_WINDOW_EVENTS, SEED,
};
use memtis_workloads::{Benchmark, Scale};

fn parse_ratio(s: &str) -> Option<Ratio> {
    let (f, c) = s.split_once(':')?;
    Some(Ratio {
        fast: f.parse().ok()?,
        capacity: c.parse().ok()?,
    })
}

fn find_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

fn find_system(name: &str) -> Option<System> {
    let all = [
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
    all.into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
}

struct Opts {
    ratio: Ratio,
    kind: CapacityKind,
    policy: System,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    window: u64,
    migration_bw: Option<f64>,
    migration_queue: Option<usize>,
    faults: Option<memtis_sim::faults::FaultPlan>,
    chunk: Option<usize>,
    shards: Option<ShardsSpec>,
    heartbeat: Option<u64>,
    modes: ModeOverrides,
    snap: memtis_bench::SnapshotOpts,
}

impl Opts {
    /// The default driver config with this invocation's migration and
    /// chunking overrides applied.
    fn driver(&self) -> memtis_sim::prelude::DriverConfig {
        let mut d = driver_config();
        d.migration_bw = self.migration_bw;
        d.migration_queue = self.migration_queue;
        d.faults = self.faults;
        if let Some(c) = self.chunk {
            d.chunk = c;
        }
        d.heartbeat_events = self.heartbeat;
        self.modes.apply(&mut d);
        // `--shards auto` resolves against the fully-overridden driver and
        // the selected policy's batch-safety.
        d.shards = self
            .shards
            .and_then(|s| s.resolve(&d, self.policy.build().batch_safe()));
        d
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        ratio: Ratio {
            fast: 1,
            capacity: 8,
        },
        kind: CapacityKind::Nvm,
        policy: System::Memtis,
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
        window: DEFAULT_WINDOW_EVENTS,
        migration_bw: None,
        migration_queue: None,
        faults: None,
        chunk: None,
        shards: None,
        heartbeat: None,
        modes: ModeOverrides::default(),
        snap: memtis_bench::SnapshotOpts::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ratio" => {
                if let Some(r) = args.get(i + 1).and_then(|s| parse_ratio(s)) {
                    o.ratio = r;
                }
                i += 2;
            }
            "--policy" => {
                if let Some(p) = args.get(i + 1).and_then(|s| find_system(s)) {
                    o.policy = p;
                }
                i += 2;
            }
            "--cxl" => {
                o.kind = CapacityKind::Cxl;
                i += 1;
            }
            "--accesses" => {
                if let Some(n) = args.get(i + 1) {
                    std::env::set_var("MEMTIS_ACCESSES", n);
                }
                i += 2;
            }
            "--trace-out" => {
                o.trace_out = args.get(i + 1).cloned();
                i += 2;
            }
            "--trace-format" => {
                match args.get(i + 1).and_then(|s| TraceFormat::parse(s)) {
                    Some(f) => o.trace_format = f,
                    None => {
                        eprintln!("error: --trace-format must be jsonl or perfetto");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--window" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    o.window = n;
                }
                i += 2;
            }
            "--migration-bw" => {
                o.migration_bw = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--migration-queue" => {
                o.migration_queue = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--chunk" => {
                o.chunk = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--shards" => {
                o.shards = args.get(i + 1).and_then(|s| ShardsSpec::parse(s));
                i += 2;
            }
            "--heartbeat" => {
                o.heartbeat = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--snapshot-out" => {
                o.snap.out = args.get(i + 1).cloned();
                i += 2;
            }
            "--snapshot-every" => {
                o.snap.every = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--resume" => {
                o.snap.resume = args.get(i + 1).cloned();
                i += 2;
            }
            "--admission" => {
                match args.get(i + 1).map(|s| parse_admission(s)) {
                    Some(Ok(a)) => o.modes.admission = Some(a),
                    _ => {
                        eprintln!("error: --admission needs on|off|HORIZON[:WINDOW]");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--shadow" => {
                match args.get(i + 1).map(|s| parse_shadow(s)) {
                    Some(Ok(s)) => o.modes.shadow = Some(s),
                    _ => {
                        eprintln!("error: --shadow needs on|off");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--hysteresis" => {
                match args.get(i + 1).map(|s| parse_hysteresis(s)) {
                    Some(Ok(h)) => o.modes.hysteresis = Some(h),
                    _ => {
                        eprintln!("error: --hysteresis needs on|off|WINDOW:BASE:MAX");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--faults" => {
                match args
                    .get(i + 1)
                    .map(|s| memtis_sim::faults::FaultPlan::parse(s))
                {
                    Some(Ok(plan)) => o.faults = Some(plan),
                    Some(Err(e)) => {
                        eprintln!("error: bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --faults needs a spec");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    if let Err(e) = o.snap.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    o
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  memtis run <benchmark> [--ratio F:C] [--policy NAME] [--cxl] [--accesses N]\n    \
         [--trace-out PATH] [--trace-format jsonl|perfetto] [--window EVENTS]\n    \
         [--migration-bw BYTES_PER_NS] [--migration-queue DEPTH] [--chunk N] [--shards S|auto]\n    \
         [--admission on|off|HORIZON[:WINDOW]] [--shadow on|off] [--hysteresis on|off|W:B:M]\n    \
         [--snapshot-out PATH --snapshot-every EVENTS] [--resume PATH]\n  \
         memtis compare <benchmark> [--ratio F:C] [--cxl] [--accesses N]\n  \
         memtis record <benchmark> --out PATH [--accesses N]\n  \
         memtis replay <benchmark> <trace> [--policy NAME] [--ratio F:C] [--cxl]\n    \
         [--in-memory] [--chunk-bytes N]\n  \
         memtis diff <old.json> <new.json> [--tol FRAC] [--tol KEY=FRAC] [--ignore GLOB]\n  \
         memtis list"
    );
    std::process::exit(2);
}

/// Streams a benchmark's workload events to a binary trace file with
/// bounded memory ([`memtis_workloads::TraceFileWriter`]).
fn run_record(args: &[String]) {
    use memtis_sim::prelude::AccessStream;
    use memtis_workloads::{SpecStream, TraceFileWriter};
    let Some(bench) = args.first().and_then(|s| find_benchmark(s)) else {
        usage()
    };
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = args.get(i + 1).cloned();
                i += 2;
            }
            "--accesses" => {
                if let Some(n) = args.get(i + 1) {
                    std::env::set_var("MEMTIS_ACCESSES", n);
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
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
    let Some(bench) = args.first().and_then(|s| find_benchmark(s)) else {
        usage()
    };
    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")).cloned() else {
        usage()
    };
    let mut in_memory = false;
    let mut chunk_bytes: Option<usize> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--in-memory" => {
                in_memory = true;
                i += 1;
            }
            "--chunk-bytes" => {
                chunk_bytes = args.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            _ => i += 1,
        }
    }
    let o = parse_opts(&args[2..]);
    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
    let mut sim = Simulation::new(machine, o.policy.build(), o.driver());
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
            for s in [
                "AutoNUMA",
                "AutoTiering",
                "Tiering-0.8",
                "TPP",
                "Nimble",
                "HeMem",
                "MEMTIS",
                "MEMTIS-NS",
                "MEMTIS-Vanilla",
                "MULTI-CLOCK",
                "TMTS",
                "All-NVM",
                "All-DRAM",
            ] {
                println!("  {s}");
            }
        }
        Some("run") => {
            let Some(bench) = args.get(1).and_then(|s| find_benchmark(s)) else {
                usage()
            };
            let o = parse_opts(&args[2..]);
            let base = run_baseline(bench, Scale::DEFAULT, o.kind);
            let r = match &o.trace_out {
                Some(path) => {
                    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
                    let mut driver = driver_config_with_window(o.window);
                    driver.migration_bw = o.migration_bw;
                    driver.migration_queue = o.migration_queue;
                    driver.faults = o.faults;
                    if let Some(c) = o.chunk {
                        driver.chunk = c;
                    }
                    driver.heartbeat_events = o.heartbeat;
                    o.modes.apply(&mut driver);
                    driver.shards = o
                        .shards
                        .and_then(|s| s.resolve(&driver, o.policy.build().batch_safe()));
                    let (r, obs) = match memtis_bench::run_cell_traced_snapshotted(
                        bench,
                        Scale::DEFAULT,
                        machine,
                        o.policy.build(),
                        driver,
                        access_budget(),
                        SEED,
                        &o.snap,
                    ) {
                        Ok(out) => out,
                        Err(e) => {
                            eprintln!("error: run failed: {e:?}");
                            std::process::exit(1);
                        }
                    };
                    write_trace(path, o.trace_format, &obs, &r.windows);
                    r
                }
                None if o.snap.is_active() => {
                    let machine = machine_for(bench, Scale::DEFAULT, o.ratio, o.kind);
                    match memtis_bench::run_cell_snapshotted(
                        bench,
                        Scale::DEFAULT,
                        machine,
                        o.policy.build(),
                        o.driver(),
                        access_budget(),
                        SEED,
                        &o.snap,
                    ) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("error: snapshotted run failed: {e:?}");
                            std::process::exit(1);
                        }
                    }
                }
                None => run_system_with_driver(
                    bench,
                    Scale::DEFAULT,
                    o.ratio,
                    o.kind,
                    o.policy,
                    o.driver(),
                ),
            };
            println!(
                "{} on {} at {} ({}):",
                o.policy.name(),
                bench.name(),
                o.ratio.label(),
                if o.kind == CapacityKind::Cxl {
                    "CXL"
                } else {
                    "NVM"
                }
            );
            println!(
                "  normalized perf   : {:.3} (vs all-{} w/ THP)",
                normalized(&base, &r),
                if o.kind == CapacityKind::Cxl {
                    "CXL"
                } else {
                    "NVM"
                }
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
            if o.faults.is_some() {
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
        Some("record") => run_record(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("compare") => {
            let Some(bench) = args.get(1).and_then(|s| find_benchmark(s)) else {
                usage()
            };
            let o = parse_opts(&args[2..]);
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
                let r =
                    run_system_with_driver(bench, Scale::DEFAULT, o.ratio, o.kind, sys, o.driver());
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
        _ => usage(),
    }
}
