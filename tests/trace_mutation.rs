//! Deterministic trace mutation harness: a recorded trace, damaged by
//! truncation, seeded single-bit flips, and `0x7FFFFFFF` word inflations,
//! must decode through both sources of the one trace reader — the shared
//! in-memory buffer and a file read through a tiny chunk — to a typed
//! [`TraceError`] or a clean end of stream, never a panic, and both sources
//! must yield the same events and the same error. A second test damages
//! the version-2 record layout where it is most fragile: header bytes no
//! writer emits, records cut inside their payload (at the end of the input
//! and across a chunk refill), and a version-1 header.

mod common;

use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{
    Benchmark, Bytes, Scale, SpecStream, TraceError, TraceRecorder, TraceReplay, TraceWriter,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const SEED: u64 = 0x7ACE_5EED;
const ACCESSES: u64 = 2_000;
const FLIPS: usize = 300;
const INFLATIONS: usize = 100;
/// Under two of the longest (17-byte) events: refills split events at
/// every chunk boundary.
const CHUNK_BYTES: usize = 23;

/// What one source yields for one input: the decoded events (as `Debug`
/// text) and the error that refused or ended the stream.
struct Decoded {
    events: Vec<String>,
    error: Option<TraceError>,
}

impl Decoded {
    fn drain(open: Result<TraceReplay, TraceError>) -> Decoded {
        let mut replay = match open {
            Ok(replay) => replay,
            Err(e) => {
                return Decoded {
                    events: Vec::new(),
                    error: Some(e),
                }
            }
        };
        let mut events = Vec::new();
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 64];
        loop {
            let n = replay.fill(&mut buf);
            if n == 0 {
                break;
            }
            events.extend(buf[..n].iter().map(|ev| format!("{ev:?}")));
        }
        Decoded {
            events,
            error: replay.take_error(),
        }
    }
}

/// Decodes `bytes` through the shared-buffer source and, written to
/// `path`, through the file source with `chunk`-byte chunks; `None` if
/// either panics.
fn decode_both(bytes: &[u8], path: &Path, chunk: usize) -> Option<(Decoded, Decoded)> {
    std::fs::write(path, bytes).expect("write trace file");
    let shared = catch_unwind(AssertUnwindSafe(|| {
        Decoded::drain(TraceReplay::new(Bytes::from(bytes.to_vec()), "shared"))
    }));
    let file = catch_unwind(AssertUnwindSafe(|| {
        Decoded::drain(TraceReplay::with_chunk_bytes(path, "file", chunk))
    }));
    Some((shared.ok()?, file.ok()?))
}

#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    clean: usize,
    truncated: usize,
    corrupt: usize,
    panicked: Vec<String>,
    diverged: Vec<String>,
}

#[test]
fn damaged_traces_decode_alike_through_both_sources() {
    let mut rec = TraceRecorder::new(SpecStream::new(
        Benchmark::Silo.spec(Scale::TEST, ACCESSES),
        7,
    ));
    let mut recorded = Vec::new();
    while let Some(ev) = rec.next_event() {
        recorded.push(format!("{ev:?}"));
    }
    let good = rec.finish().to_vec();
    let path = std::env::temp_dir().join(format!(
        "memtis-trace-mutation-{}.trace",
        std::process::id()
    ));

    let (shared, file) = decode_both(&good, &path, CHUNK_BYTES).expect("intact trace decodes");
    for intact in [shared, file] {
        assert!(intact.error.is_none(), "intact trace: {:?}", intact.error);
        assert_eq!(intact.events, recorded, "intact trace decodes as recorded");
    }

    let mut rng = FaultRng::new(SEED);
    let mut tally = Tally::default();
    common::quiet_panics(|| {
        common::damage(&good, &mut rng, FLIPS, INFLATIONS, |case, bad| {
            tally.cases += 1;
            let Some((shared, file)) = decode_both(bad, &path, CHUNK_BYTES) else {
                tally.panicked.push(case);
                return;
            };
            let shared_err = format!("{:?}", shared.error);
            if shared.events != file.events || shared_err != format!("{:?}", file.error) {
                tally
                    .diverged
                    .push(format!("{case}: {shared_err} vs {:?}", file.error));
            }
            match shared.error {
                None => tally.clean += 1,
                Some(TraceError::Truncated) => tally.truncated += 1,
                Some(TraceError::Corrupt(_)) => tally.corrupt += 1,
                Some(_) => {}
            }
        });
    });
    std::fs::remove_file(&path).ok();

    assert!(tally.cases > 100 + FLIPS);
    assert!(
        tally.panicked.is_empty() && tally.diverged.is_empty(),
        "{} of {} damaged traces panicked ({:?}), {} decoded differently by the two sources ({:?})",
        tally.panicked.len(),
        tally.cases,
        tally.panicked.iter().take(5).collect::<Vec<_>>(),
        tally.diverged.len(),
        tally.diverged.iter().take(5).collect::<Vec<_>>(),
    );
    // The damage reaches both decode errors and leaves some inputs
    // decodable (flipped address bits), so every outcome is exercised.
    assert!(
        tally.clean > 0 && tally.truncated > 0 && tally.corrupt > 0,
        "{tally:?}"
    );
}

/// Magic plus version word opening every trace.
const FILE_HEADER_LEN: usize = 12;

/// Start offsets of the records after the file header, read with the
/// version-2 layout: an access header (bit 0 clear) carries its payload
/// length in bits 2-5, and an alloc/free record is 17 bytes.
fn record_starts(trace: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    while pos < trace.len() {
        starts.push(pos);
        let h = trace[pos];
        pos += if h & 1 == 0 {
            1 + (h >> 2 & 0xF) as usize
        } else {
            17
        };
    }
    assert_eq!(pos, trace.len(), "intact trace ends on a record boundary");
    starts
}

/// Header bytes no writer emits: access headers whose length field is
/// 9-15 or whose reserved bit 7 is set, and alloc/free headers with kind 3
/// or any of the reserved bits 3-7 set.
fn bad_headers() -> Vec<u8> {
    let mut bad = Vec::new();
    for h in 0..=u8::MAX {
        let access_len = h >> 2 & 0xF;
        let rejected = if h & 1 == 0 {
            access_len > 8 || h & 0x80 != 0
        } else {
            h >> 1 > 2
        };
        if rejected {
            bad.push(h);
        }
    }
    bad
}

#[test]
fn v2_damage_decodes_alike_through_both_sources() {
    let mut events = Vec::new();
    let mut stream = SpecStream::new(Benchmark::Silo.spec(Scale::TEST, ACCESSES), 11);
    while let Some(ev) = stream.next_event() {
        events.push(ev);
    }
    // Two endings: a longest access (a delta of 2^63 takes all 8 payload
    // bytes) and an alloc/free record.
    let mut far = events.clone();
    far.push(WorkloadEvent::Access(Access::store(1 << 63)));
    let mut freed = events.clone();
    freed.push(WorkloadEvent::Free {
        addr: VirtAddr(0xDEAD_BEEF_0000),
        bytes: 1 << 21,
    });
    let path = std::env::temp_dir().join(format!("memtis-trace-v2-{}.trace", std::process::id()));

    let mut cases = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut expect = |case: String, bad: &[u8], chunk: usize, want: &[String], err: &str| {
        cases += 1;
        let Some((shared, file)) = decode_both(bad, &path, chunk) else {
            failures.push(format!("{case}: panicked"));
            return;
        };
        for (source, got) in [("shared", shared), ("file", file)] {
            let got_err = format!("{:?}", got.error);
            if got.events != want || !got_err.starts_with(err) {
                failures.push(format!(
                    "{case} ({source}): {} events, {got_err}; want {} events, {err}",
                    got.events.len(),
                    want.len()
                ));
            }
        }
    };

    common::quiet_panics(|| {
        for (ending, evs) in [("longest access", &far), ("free", &freed)] {
            let mut writer = TraceWriter::new(Vec::new()).expect("in-memory writer");
            for ev in evs.iter() {
                writer.record(ev).expect("in-memory writer");
            }
            let good = writer.finish().expect("in-memory writer");
            let debug: Vec<String> = evs.iter().map(|ev| format!("{ev:?}")).collect();
            let starts = record_starts(&good);
            assert_eq!(starts.len(), evs.len());
            let (last, all_but_last) = (starts[starts.len() - 1], &debug[..debug.len() - 1]);

            // Every rejected header, in the first, a middle and the last
            // record: the events before it survive, then Corrupt.
            for k in [0, starts.len() / 2, starts.len() - 1] {
                for h in bad_headers() {
                    let mut bad = good.clone();
                    bad[starts[k]] = h;
                    let case = format!("{ending}: header {h:#04x} at record {k}");
                    expect(case, &bad, CHUNK_BYTES, &debug[..k], "Some(Corrupt(");
                }
            }

            // The last record cut after its header and after every payload
            // byte: at the end of a chunk-sized read, and with a chunk that
            // ends inside the record so the cut lands after a refill.
            for cut in last + 1..good.len() {
                let bad = &good[..cut];
                let case = format!("{ending}: cut at {cut} of {}", good.len());
                expect(
                    case.clone(),
                    bad,
                    CHUNK_BYTES,
                    all_but_last,
                    "Some(Truncated)",
                );
                for chunk_end in last + 1..cut {
                    let case = format!("{case}, chunk {chunk_end}");
                    expect(case, bad, chunk_end, all_but_last, "Some(Truncated)");
                }
            }

            // A version-1 trace is refused before any event is decoded.
            let mut v1 = good.clone();
            v1[8..FILE_HEADER_LEN].copy_from_slice(&1u32.to_le_bytes());
            let case = format!("{ending}: version 1 header");
            expect(case, &v1, CHUNK_BYTES, &[], "Some(UnsupportedVersion(1))");
        }
    });
    std::fs::remove_file(&path).ok();

    assert!(cases > 1000, "{cases} cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} damaged traces decoded wrongly: {:?}",
        failures.len(),
        failures.iter().take(5).collect::<Vec<_>>()
    );
}
