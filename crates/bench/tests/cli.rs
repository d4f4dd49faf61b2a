//! Every bench binary rejects malformed input before it simulates anything.
//!
//! For each binary (and each `memtis` subcommand that simulates), a bad
//! value for every shared flag it accepts, every shared flag it cannot
//! honour, an unknown flag, and bad positionals or own-flag values must exit
//! 2 with an `error:` line on stderr that names the offending argument, and
//! print nothing to stdout. So must a value the driver would rewrite (a
//! zero count, a bandwidth that is not a finite number ≥ 0, a shard count
//! that is not a number), `--shards` on a per-event `--chunk 1` run (which
//! the driver would leave unsharded), and a `MEMTIS_ACCESSES` that is not a
//! positive integer, naming the variable. An output `memtis run` cannot
//! write exits 1 with an `error:` line naming it.

use memtis_bench::cli::SHARED;
use memtis_bench::System;
use std::process::{Command, Output};

const MEMTIS: &str = env!("CARGO_BIN_EXE_memtis");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const CHAOS: &str = env!("CARGO_BIN_EXE_chaos");

/// Each shared flag with a malformed value (`None`: the value is missing)
/// and a well-formed one (`None`: the flag takes no value).
const VALUES: [(&str, Option<&str>, Option<&str>); 15] = [
    ("--trace-out", Some("t.xml"), Some("t.jsonl")),
    ("--report-out", None, Some("r.json")),
    ("--window", Some("abc"), Some("1000")),
    ("--heartbeat", Some("-1"), Some("1000")),
    ("--test-scale", None, None),
    ("--migration-bw", Some("fast"), Some("8")),
    ("--migration-queue", Some("1.5"), Some("4")),
    ("--faults", Some("nosuch=1"), Some("seed=1")),
    ("--chunk", Some("abc"), Some("64")),
    ("--shards", Some("0"), Some("2")),
    ("--shadow", None, None),
    ("--hysteresis", Some("off"), Some("on")),
    ("--snapshot-out", None, Some("s.snap")),
    ("--snapshot-every", Some("0"), Some("1000")),
    ("--resume", None, Some("s.snap")),
];

/// One command line: the binary, the arguments that select a valid cell,
/// and the shared flags it accepts.
struct Cmd {
    exe: &'static str,
    lead: &'static [&'static str],
    accepts: &'static [&'static str],
}

const DRIVER: &[&str] = &[
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

const CMDS: [Cmd; 5] = [
    Cmd {
        exe: MEMTIS,
        lead: &["run", "silo"],
        accepts: &SHARED,
    },
    Cmd {
        exe: MEMTIS,
        lead: &["compare", "silo"],
        accepts: &[
            "--window",
            "--heartbeat",
            "--test-scale",
            "--migration-bw",
            "--migration-queue",
            "--faults",
            "--chunk",
            "--shards",
            "--shadow",
            "--hysteresis",
        ],
    },
    Cmd {
        exe: MEMTIS,
        lead: &["replay", "silo", "no.trace"],
        accepts: DRIVER,
    },
    Cmd {
        exe: SWEEP,
        lead: &[],
        accepts: &[
            "--window",
            "--test-scale",
            "--migration-bw",
            "--migration-queue",
            "--faults",
            "--chunk",
            "--shards",
            "--shadow",
            "--hysteresis",
        ],
    },
    Cmd {
        exe: CHAOS,
        lead: &[],
        accepts: &[
            "--shards",
            "--heartbeat",
            "--snapshot-every",
            "--shadow",
            "--hysteresis",
        ],
    },
];

fn run(exe: &str, args: &[&str], budget: &str) -> Output {
    Command::new(exe)
        .args(args)
        .env("MEMTIS_ACCESSES", budget)
        .output()
        .expect("bench binary starts")
}

/// Asserts that `exe args` is rejected with exit 2 and an error naming
/// `needle`, without running anything.
fn assert_rejected(exe: &str, args: &[&str], needle: &str) {
    assert_rejected_under("1000", exe, args, needle);
}

/// [`assert_rejected`] with `MEMTIS_ACCESSES=budget`.
fn assert_rejected_under(budget: &str, exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, args, budget);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = format!("{exe} {}", args.join(" "));
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: status; stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{what}: something ran");
    let error = stderr.lines().find(|l| l.starts_with("error:"));
    assert!(
        error.is_some_and(|l| l.contains(needle)),
        "{what}: no error line naming {needle:?} in {stderr}"
    );
}

#[test]
fn malformed_shared_flags_exit_2() {
    for cmd in &CMDS {
        for (flag, bad, good) in VALUES {
            let mut args = cmd.lead.to_vec();
            args.push(flag);
            if cmd.accepts.contains(&flag) {
                // A switch has no malformed form.
                if good.is_none() {
                    continue;
                }
                args.extend(bad);
            } else {
                args.extend(good);
            }
            assert_rejected(cmd.exe, &args, flag);
        }
        let mut args = cmd.lead.to_vec();
        args.push("--nosuch");
        assert_rejected(cmd.exe, &args, "--nosuch");
    }
}

/// Values that parse but that the driver would clamp, ignore or read as
/// another setting: each is refused wherever its flag is accepted.
const REWRITTEN: [(&str, &str); 9] = [
    ("--window", "0"),
    ("--heartbeat", "0"),
    ("--chunk", "0"),
    ("--migration-queue", "0"),
    ("--migration-bw", "nan"),
    ("--migration-bw", "inf"),
    ("--migration-bw", "-1"),
    ("--shards", "0"),
    ("--shards", "auto"),
];

#[test]
fn values_the_driver_would_rewrite_exit_2() {
    for (flag, value) in REWRITTEN {
        let cmds: Vec<&Cmd> = CMDS.iter().filter(|c| c.accepts.contains(&flag)).collect();
        assert!(!cmds.is_empty(), "no command accepts {flag}");
        for cmd in cmds {
            let args = [cmd.lead, &[flag, value]].concat();
            assert_rejected(cmd.exe, &args, flag);
        }
    }
    // `--shards` on a per-event run would run unsharded without a word,
    // in either flag order.
    let cmds: Vec<&Cmd> = CMDS
        .iter()
        .filter(|c| c.accepts.contains(&"--chunk") && c.accepts.contains(&"--shards"))
        .collect();
    assert!(!cmds.is_empty(), "no command accepts --chunk and --shards");
    for cmd in cmds {
        for pair in [
            ["--chunk", "1", "--shards", "2"],
            ["--shards", "2", "--chunk", "1"],
        ] {
            let args = [cmd.lead, &pair].concat();
            assert_rejected(cmd.exe, &args, "--shards");
        }
    }
    // A zero cap keeps its documented meaning: unlimited.
    let args = ["run", "silo", "--test-scale", "--migration-bw", "0"];
    let out = run(MEMTIS, &args, "1000");
    assert!(out.status.success(), "--migration-bw 0 was refused");
}

#[test]
fn malformed_positionals_and_own_flags_exit_2() {
    let cases: [(&str, &[&str], &str); 14] = [
        (MEMTIS, &["run", "nosuchbench"], "nosuchbench"),
        (MEMTIS, &["run", "silo", "--ratio", "1-4"], "--ratio"),
        (MEMTIS, &["run", "silo", "--ratio", "1:4x"], "1:4x"),
        (MEMTIS, &["run", "silo", "--ratio", "8"], "\"8\""),
        (MEMTIS, &["run", "silo", "extra"], "extra"),
        (MEMTIS, &["run", "silo", "--policy", "nosuch"], "--policy"),
        (
            MEMTIS,
            &["run", "silo", "--policy", "multiclock"],
            "--policy",
        ),
        (MEMTIS, &["run", "silo", "--accesses", "many"], "--accesses"),
        (MEMTIS, &["compare", "silo", "--policy", "tpp"], "--policy"),
        (MEMTIS, &["record", "silo", "--out"], "--out"),
        (SWEEP, &["--systems", "memtis,nosuch"], "--systems"),
        (SWEEP, &["--systems", "memtis,tmts"], "--systems"),
        (SWEEP, &["--jobs", "x"], "--jobs"),
        (CHAOS, &["--plans", "abc"], "--plans"),
    ];
    for (exe, args, needle) in cases {
        assert_rejected(exe, args, needle);
    }
}

#[test]
fn malformed_access_budget_exits_2() {
    let cmds: [(&str, &[&str]); 4] = [
        (MEMTIS, &["run", "silo", "--ratio", "1:8", "--test-scale"]),
        (MEMTIS, &["compare", "silo", "--test-scale"]),
        (
            MEMTIS,
            &["run", "silo", "--test-scale", "--accesses", "1000"],
        ),
        (SWEEP, &["--test-scale", "--benches", "silo"]),
    ];
    for budget in ["200k", "0", "-5", "1e6", ""] {
        for (exe, args) in cmds {
            assert_rejected_under(budget, exe, args, "MEMTIS_ACCESSES");
        }
    }
}

#[test]
fn unwritable_outputs_exit_1() {
    let cell = ["run", "silo", "--ratio", "1:8", "--test-scale"];
    let outputs: [&[&str]; 3] = [
        &["--trace-out", "/nonexistent/d/t.jsonl"],
        &["--report-out", "/nonexistent/r.json"],
        &[
            "--snapshot-out",
            "/nonexistent/s.snap",
            "--snapshot-every",
            "100",
        ],
    ];
    for output in outputs {
        let args = [&cell[..], output].concat();
        let out = run(MEMTIS, &args, "1000");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = args.join(" ");
        assert_eq!(out.status.code(), Some(1), "{what}: stderr: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(output[1])),
            "{what}: no error line naming {} in {stderr}",
            output[1]
        );
    }
}

#[test]
fn memtis_list_names_every_system() {
    let out = run(MEMTIS, &["list"], "1000");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let policies: Vec<&str> = stdout
        .split("policies:")
        .nth(1)
        .expect("a policies section")
        .split_whitespace()
        .collect();
    let names: Vec<&str> = System::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(policies, names);
}
