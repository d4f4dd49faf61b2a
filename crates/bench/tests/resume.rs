//! `memtis run` resumed from a mid-run checkpoint prints, traces and
//! reports exactly what the uninterrupted run does.
//!
//! The same cell runs three times: uninterrupted with `--trace-out` and
//! `--report-out`; checkpointing every 150 000 events; and resumed from
//! that checkpoint with `--trace-out` and `--report-out` again. The resumed
//! trace must be byte-identical to the uninterrupted one, its report equal
//! except for host time and the phase self-profile, and all three stdouts
//! identical. Heartbeats on stderr show that the resumed run really
//! started from the checkpoint rather than from the first event. MEMTIS,
//! AutoNUMA (hint-fault sampler state) and a faulted MEMTIS run (fault RNG
//! state) each go through the round trip.

use memtis_bench::{diff_reports, DiffOptions};
use memtis_sim::obs::json::Json;
use std::path::Path;
use std::process::Command;

const MEMTIS: &str = env!("CARGO_BIN_EXE_memtis");

/// Runs the silo cell with `cell` and `extra` flags and returns its stdout
/// and the number of heartbeat lines on its stderr.
fn memtis_run(cell: &[&str], extra: &[&str]) -> (String, usize) {
    let out = Command::new(MEMTIS)
        .args(["run", "silo", "--test-scale", "--window", "25000"])
        .args(["--accesses", "200000", "--heartbeat", "50000"])
        .args(cell)
        .args(extra)
        .output()
        .expect("memtis starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "memtis run {extra:?}: {stderr}");
    let beats = stderr.matches("memtis-heartbeat").count();
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (stdout, beats)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs the uninterrupted, checkpointing and resumed invocations of the
/// silo cell selected by `cell`, asserts they agree, and returns the
/// uninterrupted run's stdout.
fn round_trip(label: &str, cell: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("memtis-resume-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| Path::new(&dir).join(name).to_string_lossy().into_owned();
    let (trace, report, snap) = (path("trace.jsonl"), path("report.json"), path("ck.snap"));
    let exports = ["--trace-out", &trace, "--report-out", &report];

    let (full, full_beats) = memtis_run(cell, &exports);
    let (full_trace, full_report) = (read(&trace), read(&report));
    let checkpoint = ["--snapshot-out", &snap, "--snapshot-every", "150000"];
    let (checkpointed, _) = memtis_run(cell, &checkpoint);
    let (resumed, resumed_beats) =
        memtis_run(cell, &[&["--resume", snap.as_str()][..], &exports].concat());
    let (resumed_trace, resumed_report) = (read(&trace), read(&report));
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        resumed_beats < full_beats,
        "the resumed run replayed from the start ({resumed_beats} of {full_beats} heartbeats)"
    );
    assert_eq!(full, checkpointed, "checkpointing changed stdout");
    assert_eq!(full, resumed, "resuming changed stdout");
    assert!(full_trace == resumed_trace, "resumed trace differs");
    let opts = DiffOptions {
        tol: 0.0,
        per_key: Vec::new(),
        ignore: vec!["host.*".into(), "profile.*".into()],
    };
    let parse = |body: &str| Json::parse(body).expect("report is JSON");
    let d = diff_reports(&parse(&full_report), &parse(&resumed_report), &opts);
    assert!(d.compared > 0, "nothing compared");
    assert!(
        d.rows.is_empty() && d.str_mismatches.is_empty(),
        "resumed report differs: {:?} {:?}",
        d.rows.iter().map(|r| &r.key).collect::<Vec<_>>(),
        d.str_mismatches
    );
    full
}

#[test]
fn resumed_memtis_run_prints_traces_and_reports_the_uninterrupted_run() {
    let full = round_trip("memtis", &["--policy", "memtis"]);
    assert!(full.contains("policy gauges"), "no policy state in {full}");
}

#[test]
fn resumed_autonuma_run_prints_traces_and_reports_the_uninterrupted_run() {
    round_trip("autonuma", &["--policy", "autonuma"]);
}

#[test]
fn resumed_faulted_run_prints_traces_and_reports_the_uninterrupted_run() {
    let faults = "seed=7,abort=0.02,dirty=0.05,drop=0.05,outage=400000:50000";
    let cell = [
        "--policy",
        "memtis",
        "--migration-bw",
        "32",
        "--faults",
        faults,
    ];
    let full = round_trip("faulted", &cell);
    assert!(
        full.contains("faults injected"),
        "no fault counters in {full}"
    );
}
