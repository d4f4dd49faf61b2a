//! `perfbench` — end-to-end and per-layer benchmark of the MEMTIS simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload` and `--seed` choose what runs. `--seconds` and `--trace`
//! belong to the interface every `BENCHMARK.json` command is called with:
//! how long one run measures, and whether its result line carries the
//! end-to-end (`0`) or the per-layer (`1`) metrics.
//!
//! One workload is a closed loop with one client: a simulation driven to
//! completion in this process, rep after rep. The loop sets the workload
//! up several times (the median is `setup_s`), runs one warm-up rep, then
//! untimed reps until `--seconds` have passed (at least [`MIN_REPS`]),
//! each on a fresh `Simulation`; `host_eps` comes from the fastest. When
//! traced, a traced rep, whose layers are timed from outside (see
//! [`ledger`]), follows each untimed one, and the machine access-path
//! probe (see [`probe`]) runs last. Every rep's report is checked. Every
//! metric is printed with its unit; the last line of standard output is
//! one JSON object with the result.
//!
//! `--workload all` runs every workload in a child process of its own, one
//! after another, ends with `run_fail_frac` over every rep, and exits
//! non-zero if any check failed.

mod ledger;
mod probe;
mod workloads;

use ledger::{Ledger, TimedStream};
use memtis_core::{MemtisPolicy, MemtisStats};
use memtis_sim::obs::json::{fmt_f64, Json};
use memtis_sim::prelude::{
    AccessStream, RunReport, ShardMetrics, SimError, Simulation, TierId, TieringPolicy,
};
use std::time::Instant;
use workloads::{Prepared, Workload};

/// Untimed reps after the warm-up, at least.
const MIN_REPS: usize = 5;
/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups repeat until they have taken this long in total, so that a
/// set-up of microseconds still yields a steady median.
const SETUP_SECONDS: f64 = 0.25;
/// Workload events the machine probe replays.
const PROBE_EVENTS: u64 = 4_000_000;
/// Probe passes; the fastest counts.
const PROBE_REPS: usize = 3;
/// `--seconds` when not given: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// One reported number.
#[derive(Debug, Clone, Copy)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one invocation measures.
struct RunConfig {
    workload: Workload,
    seed: u64,
    accesses: u64,
    seconds: f64,
    trace: bool,
    probe_events: u64,
}

/// What one invocation found.
struct Outcome {
    /// Reps run, of every kind.
    attempted: u64,
    /// Reps that returned an error or failed a check.
    failed: u64,
    end_to_end: Vec<Metric>,
    /// Empty unless traced.
    per_layer: Vec<Metric>,
}

/// A report rendered for comparison, ignoring only host wall-clock time.
fn signature(report: &RunReport) -> String {
    let mut r = report.clone();
    r.host_elapsed_ns = 0;
    format!("{r:?}")
}

/// The checks every rep must pass, named on failure.
fn check<P: TieringPolicy>(
    sim: &Simulation<P>,
    report: &RunReport,
    events: u64,
    reference: Option<&str>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(reference) = reference {
        if signature(report) != reference {
            failures.push("report differs from the warm-up rep's".to_string());
        }
    }
    if report.hist_underflows != 0 {
        failures.push(format!("{} histogram underflows", report.hist_underflows));
    }
    // The chaos soak's conservation law: every used byte is mapped, in
    // flight, a retained shadow copy, or reserved by injected pressure.
    let m = sim.machine();
    let used: u64 = (0..m.tier_count())
        .map(|t| m.used_bytes(TierId(t as u8)))
        .sum();
    let expected =
        m.rss_bytes() + m.inflight_reserved_bytes() + m.shadow_bytes() + m.fault_reserved_bytes();
    if used != expected {
        failures.push(format!(
            "page conservation: used {used} != rss + inflight + shadow + pressure {expected}"
        ));
    }
    if report.sim_events != events {
        failures.push(format!(
            "simulated {} events of {events} generated",
            report.sim_events
        ));
    }
    failures
}

/// Runs `sim` over `stream`, returning the report and the host time.
fn timed_run<P: TieringPolicy>(
    sim: &mut Simulation<P>,
    stream: &mut dyn AccessStream,
) -> (Result<RunReport, SimError>, u64) {
    let start = Instant::now();
    let report = sim.run(stream);
    (report, start.elapsed().as_nanos() as u64)
}

/// The traced rep: the untimed rep's run with every layer timed.
struct Traced {
    report: RunReport,
    ledger: Ledger,
    stats: MemtisStats,
    shard: Option<ShardMetrics>,
    /// Huge-mapped bytes over RSS at the end of the run.
    huge_frac: f64,
    failures: Vec<String>,
}

fn traced_rep(prepared: &Prepared, reference: Option<&str>) -> Result<Traced, SimError> {
    let mut inner = prepared.stream();
    let mut stream = TimedStream::new(inner.as_mut());
    let mut sim = prepared.traced_simulation();
    let (report, host_ns) = timed_run(&mut sim, &mut stream);
    let report = report?;
    let mut failures = check(&sim, &report, prepared.events, reference);
    if stream.events != prepared.events {
        failures.push(format!(
            "stream delivered {} events of {} generated",
            stream.events, prepared.events
        ));
    }
    let m = sim.machine();
    Ok(Traced {
        ledger: Ledger::new(host_ns, report.sim_events, &stream, sim.policy()),
        stats: sim.policy().inner.stats.clone(),
        shard: sim.shard_metrics(),
        huge_frac: (m.mapped_huge_pages() * memtis_sim::prelude::HUGE_PAGE_SIZE) as f64
            / m.rss_bytes().max(1) as f64,
        failures,
        report,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs one workload as `cfg` asks. Failures are named on stderr.
fn run(cfg: &RunConfig) -> Outcome {
    let name = cfg.workload.name();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut record = |what: &str, failures: &[String]| {
        attempted += 1;
        if !failures.is_empty() {
            failed += 1;
            for f in failures {
                eprintln!("check failed: {name} {what}: {f}");
            }
        }
    };

    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready: Option<(Prepared, Simulation<MemtisPolicy>)> = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        // Drop the previous set-up first, so peak RSS holds one copy.
        drop(ready.take());
        let start = Instant::now();
        let prepared = Prepared::new(cfg.workload, cfg.seed, cfg.accesses);
        let sim = prepared.simulation();
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some((prepared, sim));
    }
    let (prepared, mut sim) = ready.expect("at least one set-up");

    // Warm-up: its report is the reference every later rep must match.
    let (warm, _) = timed_run(&mut sim, prepared.stream().as_mut());
    let reference = match warm {
        Ok(report) => {
            record("warm-up rep", &check(&sim, &report, prepared.events, None));
            report
        }
        Err(e) => {
            record("warm-up rep", &[format!("run failed: {e:?}")]);
            return Outcome {
                attempted,
                failed,
                end_to_end: Vec::new(),
                per_layer: Vec::new(),
            };
        }
    };
    drop(sim);
    let ref_sig = signature(&reference);

    let mut host_s = Vec::new();
    let mut fastest: Option<Traced> = None;
    let start = Instant::now();
    while host_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut sim = prepared.simulation();
        let (report, host_ns) = timed_run(&mut sim, prepared.stream().as_mut());
        host_s.push(host_ns as f64 * 1e-9);
        let what = format!("rep {}", host_s.len());
        match report {
            Ok(r) => record(&what, &check(&sim, &r, prepared.events, Some(&ref_sig))),
            Err(e) => record(&what, &[format!("run failed: {e:?}")]),
        }
        if !cfg.trace {
            continue;
        }
        // Traced reps alternate with untimed ones, so the two see the same
        // host load and their fastest reps compare fairly.
        let what = format!("traced rep {}", host_s.len());
        match traced_rep(&prepared, Some(&ref_sig)) {
            Ok(t) => {
                record(&what, &t.failures);
                if fastest
                    .as_ref()
                    .is_none_or(|f| t.ledger.host_ns < f.ledger.host_ns)
                {
                    fastest = Some(t);
                }
            }
            Err(e) => record(&what, &[format!("run failed: {e:?}")]),
        }
    }
    let best_s = host_s.iter().copied().fold(f64::INFINITY, f64::min);
    let events = reference.sim_events as f64;
    let end_to_end = vec![
        metric("host_eps", "events/s", events / best_s),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mib()),
        metric("sim_wall_ms", "ms", reference.wall_ns / 1e6),
        metric(
            "fast_hit_ratio",
            "fraction",
            reference.stats.fast_tier_hit_ratio(),
        ),
        metric(
            "migration_traffic_4k",
            "pages",
            reference.stats.migration.traffic_4k() as f64,
        ),
        metric(
            "daemon_cpu_frac",
            "fraction",
            ratio(reference.daemon_ns, reference.wall_ns),
        ),
    ];

    let mut per_layer = Vec::new();
    if let Some(t) = fastest {
        let probe_ns = probe::access_batch_ns(&prepared, cfg.probe_events, PROBE_REPS);
        per_layer = per_layer_metrics(&t, probe_ns, &host_s);
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
    }
}

/// The per-layer metrics of the fastest traced rep `t`, given the probe's
/// result and the untimed reps' host seconds.
fn per_layer_metrics(t: &Traced, probe_ns: f64, host_s: &[f64]) -> Vec<Metric> {
    let l = &t.ledger;
    let r = &t.report;
    let s = &r.stats;
    let mig = &s.migration;
    let events = l.events.max(1) as f64;
    let deliveries = l.batch_records + l.access.calls;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let eps: Vec<f64> = host_s.iter().map(|h| events / h).collect();
    let best_s = host_s.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        metric(
            "workloads.fill_ns_per_event",
            "ns/event",
            l.fill.ns as f64 / events,
        ),
        metric("workloads.fill_share", "fraction", l.share(l.fill.ns)),
        metric("workloads.fill_calls", "count", l.fill.calls as f64),
        metric(
            "core.on_access_batch_share",
            "fraction",
            l.share(l.batch.ns),
        ),
        metric(
            "core.on_access_batch_records",
            "count",
            l.batch_records as f64,
        ),
        metric(
            "core.on_access_ns_per_call",
            "ns/call",
            l.access.ns_per_call(),
        ),
        metric("core.on_access_share", "fraction", l.share(l.access.ns)),
        metric("core.tick_ns_per_call", "ns/call", l.tick.ns_per_call()),
        metric("core.tick_calls", "count", l.tick.calls as f64),
        metric("core.tick_share", "fraction", l.share(l.tick.ns)),
        metric("core.other_share", "fraction", l.share(l.other.ns)),
        metric("core.samples", "count", t.stats.samples as f64),
        metric("core.coolings", "count", t.stats.coolings as f64),
        metric("core.adaptations", "count", t.stats.adaptations as f64),
        metric(
            "core.split_requested",
            "count",
            t.stats.split_requested as f64,
        ),
        metric(
            "core.inflight_cancels",
            "count",
            t.stats.inflight_cancels as f64,
        ),
        metric("core.abort_retries", "count", t.stats.abort_retries as f64),
        metric("core.hist_underflows", "count", r.hist_underflows as f64),
        metric("sim.machine.access_batch_ns", "ns/access", probe_ns),
        metric("sim.machine.tlb_miss_ratio", "fraction", r.tlb.miss_ratio()),
        metric("sim.machine.llc_miss_ratio", "fraction", r.llc.miss_ratio()),
        metric(
            "sim.machine.avg_access_ns",
            "ns",
            ratio(r.app_access_ns, r.accesses as f64),
        ),
        metric("sim.machine.shootdowns", "count", s.shootdowns as f64),
        metric("sim.machine.splits", "count", mig.splits as f64),
        metric("sim.machine.migrate_failed", "count", mig.failed as f64),
        metric("sim.engine.aborted", "count", mig.aborted as f64),
        metric("sim.engine.recopies", "count", mig.recopies as f64),
        metric(
            "sim.engine.aborted_mb",
            "MiB",
            mig.aborted_bytes as f64 / (1u64 << 20) as f64,
        ),
        metric("sim.engine.cancelled", "count", mig.cancelled as f64),
        metric(
            "sim.engine.in_flight_peak",
            "count",
            mig.in_flight_peak as f64,
        ),
        metric(
            "sim.shard.busy_share",
            "fraction",
            t.shard.map_or(0.0, |m| l.share(m.busy_ns)),
        ),
        metric(
            "sim.shard.bursts",
            "count",
            t.shard.map_or(0.0, |m| m.bursts as f64),
        ),
        metric(
            "sim.shard.spills",
            "count",
            t.shard.map_or(0.0, |m| m.spills as f64),
        ),
        metric(
            "sim.shard.crit_frac",
            "fraction",
            t.shard.map_or(0.0, |m| {
                ratio(m.crit_accesses as f64, m.lane_accesses as f64)
            }),
        ),
        metric("sim.rest_share", "fraction", l.rest_share()),
        metric(
            "sim.rest_ns_per_event",
            "ns/event",
            l.rest_ns() as f64 / events,
        ),
        metric("bench.reps", "count", host_s.len() as f64),
        metric("bench.host_eps_median", "events/s", median(&eps)),
        metric(
            "bench.traced_overhead_frac",
            "fraction",
            l.host_ns as f64 * 1e-9 / best_s - 1.0,
        ),
        metric("bench.host_cores", "count", host_cores as f64),
        metric(
            "props.store_frac",
            "fraction",
            ratio(s.stores as f64, (s.loads + s.stores) as f64),
        ),
        metric("props.huge_frac", "fraction", t.huge_frac),
        metric(
            "props.deferred",
            "fraction",
            ratio(l.batch_records as f64, deliveries as f64),
        ),
    ]
}

/// The JSON result line.
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_f64(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && !metrics.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S (default {DEFAULT_SECONDS})] \
         [--trace 0|1 (default 1)]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

/// Command-line arguments, checked.
struct Args {
    /// `None` means `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = memtis_bench::SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => match Workload::from_name(value) {
                Some(w) => workload = Some(Some(w)),
                None => usage(),
            },
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// Reps attempted and failed over every workload, from the result line
/// that ends each workload's output, and the workloads whose output ends
/// without one.
#[derive(Debug, PartialEq)]
struct Tally<'a> {
    attempted: u64,
    failed: u64,
    broken: Vec<&'a str>,
}

fn tally<'a>(outputs: &[(&'a str, String)]) -> Tally<'a> {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        broken: Vec::new(),
    };
    for (name, stdout) in outputs {
        let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let count = |key: &str| result.as_ref().and_then(|j| j.get(key)?.as_f64());
        match (count("attempted"), count("failed")) {
            (Some(a), Some(f)) => {
                t.attempted += a as u64;
                t.failed += f as u64;
            }
            _ => t.broken.push(*name),
        }
    }
    t
}

/// Runs every workload in a child process of its own and returns the
/// process exit code.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut outputs = Vec::new();
    let mut exited_ok = true;
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawning a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        print!("{stdout}");
        exited_ok &= out.status.success();
        outputs.push((w.name(), stdout));
    }
    let t = tally(&outputs);
    if !t.broken.is_empty() {
        println!("workloads without a result: {}", t.broken.join(", "));
    }
    println!(
        "run_fail_frac = {} ({} of {} reps failed)",
        ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    if exited_ok && t.failed == 0 && t.broken.is_empty() {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let Some(workload) = args.workload else {
        std::process::exit(run_all(&args));
    };
    let out = run(&RunConfig {
        workload,
        seed: args.seed,
        accesses: workload.accesses(),
        seconds: args.seconds as f64,
        trace: args.trace,
        probe_events: PROBE_EVENTS,
    });
    println!(
        "{} (seed {}): run_fail_frac = {} ({} of {} reps failed)",
        workload.name(),
        args.seed,
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("  {:<30} {:>18} {}", m.name, fmt_f64(m.value), m.unit);
    }
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", result_json(&out, metrics));
    if out.failed > 0 || metrics.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug build, large enough to cross ticks,
    /// cooling and telemetry windows.
    const SMALL: u64 = 200_000;

    #[test]
    fn wrappers_leave_reports_unchanged_and_the_ledger_closes() {
        for w in Workload::ALL {
            let p = Prepared::new(w, memtis_bench::SEED, SMALL);
            let mut sim = p.simulation();
            let plain = sim.run(p.stream().as_mut()).expect("plain run");
            assert!(check(&sim, &plain, p.events, None).is_empty());
            let t = traced_rep(&p, Some(&signature(&plain))).expect("traced run");
            assert!(t.failures.is_empty(), "{}: {:?}", w.name(), t.failures);

            let l = &t.ledger;
            let shares = [
                l.share(l.fill.ns),
                l.share(l.batch.ns),
                l.share(l.access.ns),
                l.share(l.tick.ns),
                l.share(l.other.ns),
                l.rest_share(),
            ];
            assert!(shares.iter().all(|&s| s >= 0.0), "{}: {shares:?}", w.name());
            let sum: f64 = shares.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{}: shares sum to {sum}",
                w.name()
            );
        }
    }

    #[test]
    fn a_failing_workload_counts_towards_run_fail_frac() {
        let outcome = |attempted, failed| Outcome {
            attempted,
            failed,
            end_to_end: vec![metric("host_eps", "events/s", 1.5e6)],
            per_layer: Vec::new(),
        };
        let (ok, failing) = (outcome(6, 0), outcome(7, 2));
        let outputs = [
            (
                "a",
                format!("a (seed 1)\n{}\n", result_json(&ok, &ok.end_to_end)),
            ),
            (
                "b",
                format!(
                    "b (seed 1)\n{}\n",
                    result_json(&failing, &failing.end_to_end)
                ),
            ),
            ("c", "thread 'main' panicked\n".to_string()),
        ];
        assert_eq!(
            tally(&outputs),
            Tally {
                attempted: 13,
                failed: 2,
                broken: vec!["c"],
            }
        );
    }

    #[test]
    fn printed_metrics_are_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let out = run(&RunConfig {
            workload: Workload::ZipfDriftBw8,
            seed: 7,
            accesses: SMALL,
            seconds: 0.0,
            trace: true,
            probe_events: SMALL,
        });
        assert_eq!(out.failed, 0);
        for (key, printed) in [
            ("end_to_end", &out.end_to_end),
            ("per_layer", &out.per_layer),
        ] {
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            for (name, _) in &printed {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
            }
            assert_eq!(printed, declared(key), "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
