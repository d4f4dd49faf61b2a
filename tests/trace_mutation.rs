//! Deterministic trace mutation harness: a recorded trace, damaged by
//! truncation, seeded single-bit flips, and `0x7FFFFFFF` word inflations,
//! must decode through both sources of the one trace reader — the shared
//! in-memory buffer and a file read through a tiny chunk — to a typed
//! [`TraceError`] or a clean end of stream, never a panic, and both sources
//! must yield the same events and the same error.

mod common;

use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{
    Benchmark, Bytes, Scale, SpecStream, TraceError, TraceRecorder, TraceReplay,
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
/// `path`, through the file source; `None` if either panics.
fn decode_both(bytes: &[u8], path: &Path) -> Option<(Decoded, Decoded)> {
    std::fs::write(path, bytes).expect("write trace file");
    let shared = catch_unwind(AssertUnwindSafe(|| {
        Decoded::drain(TraceReplay::new(Bytes::from(bytes.to_vec()), "shared"))
    }));
    let file = catch_unwind(AssertUnwindSafe(|| {
        Decoded::drain(TraceReplay::with_chunk_bytes(path, "file", CHUNK_BYTES))
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

    let (shared, file) = decode_both(&good, &path).expect("intact trace decodes");
    for intact in [shared, file] {
        assert!(intact.error.is_none(), "intact trace: {:?}", intact.error);
        assert_eq!(intact.events, recorded, "intact trace decodes as recorded");
    }

    let mut rng = FaultRng::new(SEED);
    let mut tally = Tally::default();
    common::quiet_panics(|| {
        common::damage(&good, &mut rng, FLIPS, INFLATIONS, |case, bad| {
            tally.cases += 1;
            let Some((shared, file)) = decode_both(bad, &path) else {
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
