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
//!
//! Each stream is read in every way a reader can pull it ([`PATTERNS`]:
//! `fill` at several chunk sizes, `next_event` alone, the two mixed, and
//! `skip_events` followed by the rest), and every way must give the same
//! hash, whether a producer thread or the reader itself runs the
//! generator.

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

/// FNV-1a state over a stream's events: a tag byte, then each field as
/// little-endian bytes.
struct Hasher {
    h: u64,
    events: u64,
}

impl Hasher {
    fn new() -> Self {
        Hasher {
            h: FNV_OFFSET,
            events: 0,
        }
    }

    fn event(&mut self, ev: &WorkloadEvent) {
        let h = &mut self.h;
        match *ev {
            WorkloadEvent::Access(a) => {
                let tag = match a.kind {
                    AccessKind::Load => 0u8,
                    AccessKind::Store => 1,
                };
                fnv(h, &[tag]);
                fnv(h, &a.vaddr.0.to_le_bytes());
            }
            WorkloadEvent::Alloc { addr, bytes, thp } => {
                fnv(h, &[2, thp as u8]);
                fnv(h, &addr.0.to_le_bytes());
                fnv(h, &bytes.to_le_bytes());
            }
            WorkloadEvent::Free { addr, bytes } => {
                fnv(h, &[3]);
                fnv(h, &addr.0.to_le_bytes());
                fnv(h, &bytes.to_le_bytes());
            }
        }
        self.events += 1;
    }

    /// Hashes everything `stream` has left, through `fill` at `chunk`.
    fn fill_rest(&mut self, stream: &mut SpecStream, chunk: usize) {
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); chunk];
        loop {
            let n = stream.fill(&mut buf);
            if n == 0 {
                break;
            }
            buf[..n].iter().for_each(|ev| self.event(ev));
        }
    }

    /// Hashes up to `n` more events of `stream`, through `next_event`.
    fn next_events(&mut self, stream: &mut SpecStream, n: u64) {
        for _ in 0..n {
            match stream.next_event() {
                Some(ev) => self.event(&ev),
                None => break,
            }
        }
    }
}

/// The ways a reader can pull a stream: every one must see the same
/// events, whichever path (producer thread or inline) serves it.
const PATTERNS: [&str; 7] = [
    "fill 1024",
    "next_event",
    "fill 1",
    "fill 7",
    "fill 4097",
    "fill and next_event mixed",
    "skip_events then fill",
];

/// `(events, hash)` of `spec`'s stream read by `pattern`.
fn fingerprint(spec: &WorkloadSpec, pattern: &str) -> (u64, u64) {
    let stream = || SpecStream::new(spec.clone(), SEED);
    let mut s = stream();
    let mut h = Hasher::new();
    match pattern {
        "fill 1024" => h.fill_rest(&mut s, CHUNK),
        "next_event" => h.next_events(&mut s, u64::MAX),
        "fill 1" => h.fill_rest(&mut s, 1),
        "fill 7" => h.fill_rest(&mut s, 7),
        "fill 4097" => h.fill_rest(&mut s, 4097),
        "fill and next_event mixed" => {
            let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 1500];
            for round in 0u64.. {
                let n = s.fill(&mut buf[..1 + (round as usize * 389) % 1500]);
                buf[..n].iter().for_each(|ev| h.event(ev));
                let before = h.events;
                h.next_events(&mut s, round % 5);
                if n == 0 && h.events == before {
                    break;
                }
            }
        }
        "skip_events then fill" => {
            // The skipped prefix is hashed from a second stream, so the
            // whole-stream hash must come out.
            let k = ACCESSES / 3 + 11;
            h.next_events(&mut stream(), k);
            s.skip_events(k);
            h.fill_rest(&mut s, CHUNK);
        }
        other => unreachable!("unknown pattern {other}"),
    }
    (h.events, h.h)
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

    for pattern in PATTERNS {
        let got: Vec<(&str, u64, u64)> = expected
            .iter()
            .zip(&specs)
            .map(|(&(name, _, _), spec)| {
                let (events, hash) = fingerprint(spec, pattern);
                (name, events, hash)
            })
            .collect();
        let table: String = got
            .iter()
            .map(|(name, events, hash)| format!("        ({name:?}, {events}, {hash:#018x}),\n"))
            .collect();
        assert_eq!(
            got, expected,
            "a generated stream changed (read by {pattern}); the stream now reads:\n{table}"
        );
    }
}
