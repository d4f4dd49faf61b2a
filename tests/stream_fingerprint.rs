//! Stream fingerprints: every generated workload stream is pinned by an
//! FNV-1a hash of its full event sequence.
//!
//! Generator edits (placement, Zipf sampling, RNG consumption order) must
//! not change a single generated event: every figure, trace, golden and
//! benchmark cell is a function of these streams. Each expected hash below
//! was computed before the generator's O(1) placement map and Zipf guide
//! table existed, so a green run proves those optimisations bit-identical.
//! A deliberate change to what a workload generates must update the table,
//! and says so in its change notes.

use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream, SynthBuilder, WorkloadSpec};

const SEED: u64 = 0x5EED;
const ACCESSES: u64 = 200_000;
const CHUNK: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every event of the stream, read through `fill` at
/// [`CHUNK`]: a tag byte, then each field as little-endian bytes.
fn fingerprint(spec: WorkloadSpec) -> (u64, u64) {
    let mut stream = SpecStream::new(spec, SEED);
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); CHUNK];
    let mut h = FNV_OFFSET;
    let mut events = 0u64;
    loop {
        let n = stream.fill(&mut buf);
        if n == 0 {
            break;
        }
        for ev in &buf[..n] {
            match *ev {
                WorkloadEvent::Access(a) => {
                    let tag = match a.kind {
                        AccessKind::Load => 0u8,
                        AccessKind::Store => 1,
                    };
                    fnv(&mut h, &[tag]);
                    fnv(&mut h, &a.vaddr.0.to_le_bytes());
                }
                WorkloadEvent::Alloc { addr, bytes, thp } => {
                    fnv(&mut h, &[2, thp as u8]);
                    fnv(&mut h, &addr.0.to_le_bytes());
                    fnv(&mut h, &bytes.to_le_bytes());
                }
                WorkloadEvent::Free { addr, bytes } => {
                    fnv(&mut h, &[3]);
                    fnv(&mut h, &addr.0.to_le_bytes());
                    fnv(&mut h, &bytes.to_le_bytes());
                }
            }
        }
        events += n as u64;
    }
    (events, h)
}

/// The two zipf shapes the benchmark's base-page workloads run.
fn zipf() -> SynthBuilder {
    SynthBuilder::new("zipf")
        .footprint(512 << 20)
        .zipf(0.99)
        .thp(false)
}

#[test]
fn every_generated_stream_matches_its_fingerprint() {
    let expected: [(&str, u64, u64); 10] = [
        ("Graph500", 200002, 0x5e779025324dde65),
        ("PageRank", 200002, 0x5f1c31a880c800f8),
        ("XSBench", 200002, 0x5e4004a2c0698315),
        ("Liblinear", 200002, 0x3be753d5380bb44d),
        ("Silo", 200002, 0x10d0554b94fa0c7a),
        ("Btree", 200002, 0x2a09bfb31395cf03),
        ("603.bwaves", 200021, 0x71864a4a21c5dc5d),
        ("654.roms", 200004, 0x92c4939a39a70ab5),
        ("zipf-drift", 200001, 0xca7b388057fed12a),
        ("zipf-stable", 200001, 0xafdd28bea8b50a7e),
    ];
    let mut specs: Vec<WorkloadSpec> = Benchmark::ALL
        .iter()
        .map(|b| b.spec(Scale::TEST, ACCESSES))
        .collect();
    specs.push(zipf().phases(16).drift(0.5).stores(0.2).build(ACCESSES));
    specs.push(zipf().phases(4).drift(0.0).stores(0.1).build(ACCESSES));

    let got: Vec<(&str, u64, u64)> = expected
        .iter()
        .zip(specs)
        .map(|(&(name, _, _), spec)| {
            let (events, hash) = fingerprint(spec);
            (name, events, hash)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, events, hash)| format!("        ({name:?}, {events}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        got, expected,
        "a generated stream changed; the stream now reads:\n{table}"
    );
}
