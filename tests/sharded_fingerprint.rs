//! Sharded-run fingerprints: every system's `--shards 2` run on two small
//! cells is pinned by an FNV-1a hash of its report and its JSONL trace.
//!
//! The sharded property test compares shard counts with each other, so it
//! cannot see a change that moves every shard count the same way. These
//! hashes were computed from the lane-partitioned burst implementation
//! (per-lane executors, deferred reference bits, a heap merge of the
//! record candidates) that the stream-order burst loop replaced, so a green
//! run proves the two produce the same reports and traces. At least one
//! cell spills accesses from stopped lanes (hint faults), so the spill
//! path is pinned too. A deliberate change to sharded semantics must
//! update the table and say so in its change notes.

use memtis_bench::{machine_for, run_cell, CapacityKind, Ratio, SnapshotOpts, System, SEED};
use memtis_repro::obs::Fnv1a;
use memtis_repro::sim::obs::export_jsonl;
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale};

const ACCESSES: u64 = 40_000;
const WINDOW: u64 = 2_000;
const CHUNK: usize = 256;

/// `(hash, spills)` of one system's `--shards 2` run on `bench`: the hash
/// folds the report (host wall clock zeroed) and the exported JSONL trace.
fn fingerprint(bench: Benchmark, sys: System) -> (u64, u64) {
    let machine = machine_for(bench, Scale::TEST, Ratio::DEFAULT, CapacityKind::Nvm);
    let driver = DriverConfig {
        window_events: WINDOW,
        chunk: CHUNK,
        shards: Some(2),
        ..memtis_bench::driver_config()
    };
    let (mut report, sim) = run_cell(
        bench.spec(Scale::TEST, ACCESSES),
        machine,
        sys.build(),
        TracingObserver::new(),
        driver,
        SEED,
        &SnapshotOpts::default(),
    )
    .expect("run");
    let spills = sim.shard_metrics().expect("sharded run").spills;
    let trace = export_jsonl(sim.observer(), &report.windows);
    report.host_elapsed_ns = 0;
    let hash = Fnv1a::new()
        .mix_bytes(format!("{report:?}").as_bytes())
        .mix_bytes(trace.as_bytes())
        .finish();
    (hash, spills)
}

#[test]
fn sharded_runs_match_their_fingerprints() {
    // One `(hash, spills)` row per `System::ALL` entry, in order.
    let expected: [(Benchmark, [(u64, u64); 11]); 2] = [
        (
            Benchmark::Silo,
            [
                (0xab9d393a9b63b232, 606),
                (0x25c7a9570127c899, 475),
                (0xfa5fda86539b9868, 663),
                (0xe82bc52dfe7d36ac, 637),
                (0xc1328eaed729da01, 0),
                (0xb10a12d6a4ae868a, 0),
                (0xb5463bdd6c270938, 0),
                (0xb5463bdd6c270938, 0),
                (0xc99653c1777bfbd5, 0),
                (0xee248cbb49cefe11, 0),
                (0x51b119f01c46f7c5, 0),
            ],
        ),
        (
            Benchmark::Roms,
            [
                (0xe24a345e85a4c5da, 902),
                (0x34137d3543253d52, 557),
                (0x0fd912acc9d55fca, 974),
                (0x22f40e1ebc2941c0, 974),
                (0xc5f67ee55da2686b, 0),
                (0xdb198503d8ceaad7, 0),
                (0xc4d80bfab0d79603, 0),
                (0xc4d80bfab0d79603, 0),
                (0x70a2f6374923bc0d, 0),
                (0x17aa6cbe96033716, 0),
                (0x3eece9ce249d9259, 0),
            ],
        ),
    ];
    let mut got = Vec::new();
    for (bench, rows) in expected {
        for (sys, want) in System::ALL.into_iter().zip(rows) {
            let (hash, spills) = fingerprint(bench, sys);
            got.push(format!(
                "{bench:?} {}: ({hash:#018x}, {spills})",
                sys.name()
            ));
            if (hash, spills) != want {
                got.last_mut().unwrap().push_str(" (changed)");
            }
        }
    }
    assert!(
        expected
            .iter()
            .any(|(_, rows)| rows.iter().any(|&(_, s)| s > 0)),
        "no pinned cell spills: the spill path is not covered"
    );
    assert!(
        got.iter().all(|l| !l.ends_with("(changed)")),
        "sharded fingerprints changed:\n{}",
        got.join("\n")
    );
}
