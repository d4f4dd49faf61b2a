//! Access-trace recording and replay.
//!
//! A compact binary encoding of workload event streams, used for offline
//! analysis (heat maps, Fig. 3 utilization scatter) and for replaying
//! identical streams against multiple policies.
//!
//! Traces start with an 8-byte magic and a little-endian `u32` format
//! version ([`TRACE_MAGIC`], [`TRACE_VERSION`]); the reader rejects anything
//! else with a typed [`TraceError`] instead of misdecoding it.
//!
//! One writer and one reader:
//!
//! - [`TraceWriter`] is the only encoder. It writes the header and every
//!   event to any `Write` sink ([`TraceFileWriter`] streams to a file with
//!   bounded memory); [`TraceRecorder`] passes a stream through while
//!   recording it into a `TraceWriter<Vec<u8>>`, and hands the trace back
//!   as a shared [`Bytes`] buffer without copying it.
//! - [`TraceReplay`] is the only decoder: one chunked
//!   [`AccessStream::fill`] loop, header check and truncation rule over one
//!   of two sources. A shared in-memory buffer ([`TraceReplay::new`]) is a
//!   single chunk decoded in place and never refilled, so every replay of
//!   one recording shares its bytes; a file ([`TraceReplay::open`]) is
//!   refilled a bounded chunk at a time, so multi-GB traces replay with
//!   O(chunk) resident memory. The reader's event cursor
//!   ([`AccessStream::position`]) is snapshot state a resumed run can seek
//!   back to.

use bytes::Bytes;
use memtis_sim::prelude::{Access, AccessKind, AccessStream, VirtAddr, WorkloadEvent};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_ALLOC: u8 = 2;
const TAG_ALLOC_NOTHP: u8 = 3;
const TAG_FREE: u8 = 4;

/// Longest encoded event (alloc/free: tag + two u64 operands).
const MAX_EVENT_LEN: usize = 17;

/// Magic bytes opening every versioned trace.
pub const TRACE_MAGIC: [u8; 8] = *b"MEMTISTR";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 1;
/// Header length: magic plus version word.
const TRACE_HEADER_LEN: usize = TRACE_MAGIC.len() + 4;

/// Default chunk-buffer size of the streaming reader (bytes).
pub const DEFAULT_TRACE_CHUNK: usize = 64 << 10;

/// Errors raised by trace encoding and decoding.
#[derive(Debug)]
pub enum TraceError {
    /// The input does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The input carries a version this build cannot decode.
    UnsupportedVersion(u32),
    /// Structurally invalid event data (unknown tag).
    Corrupt(&'static str),
    /// The input ends in the middle of an event (or before the header).
    Truncated,
    /// An underlying file operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::Truncated => write!(f, "trace truncated mid-event"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Encoded length of the event starting with `tag`; `None` for unknown tags.
#[inline]
fn event_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_LOAD | TAG_STORE => Some(9),
        TAG_ALLOC | TAG_ALLOC_NOTHP | TAG_FREE => Some(MAX_EVENT_LEN),
        _ => None,
    }
}

/// Encodes one event into `dst`, returning the encoded length.
#[inline]
fn encode_into(dst: &mut [u8; MAX_EVENT_LEN], ev: &WorkloadEvent) -> usize {
    match ev {
        WorkloadEvent::Access(a) => {
            dst[0] = if a.is_store() { TAG_STORE } else { TAG_LOAD };
            dst[1..9].copy_from_slice(&a.vaddr.0.to_le_bytes());
            9
        }
        WorkloadEvent::Alloc { addr, bytes, thp } => {
            dst[0] = if *thp { TAG_ALLOC } else { TAG_ALLOC_NOTHP };
            dst[1..9].copy_from_slice(&addr.0.to_le_bytes());
            dst[9..17].copy_from_slice(&bytes.to_le_bytes());
            MAX_EVENT_LEN
        }
        WorkloadEvent::Free { addr, bytes } => {
            dst[0] = TAG_FREE;
            dst[1..9].copy_from_slice(&addr.0.to_le_bytes());
            dst[9..17].copy_from_slice(&bytes.to_le_bytes());
            MAX_EVENT_LEN
        }
    }
}

#[inline]
fn rd_u64(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + 8].try_into().expect("length checked"))
}

/// Decodes the bounds-checked event at `pos` (tag already validated).
#[inline]
fn decode_at(src: &[u8], pos: usize, tag: u8) -> WorkloadEvent {
    match tag {
        TAG_LOAD | TAG_STORE => WorkloadEvent::Access(Access {
            vaddr: VirtAddr(rd_u64(src, pos + 1)),
            kind: if tag == TAG_STORE {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
        }),
        TAG_ALLOC | TAG_ALLOC_NOTHP => WorkloadEvent::Alloc {
            addr: VirtAddr(rd_u64(src, pos + 1)),
            bytes: rd_u64(src, pos + 9),
            thp: tag == TAG_ALLOC,
        },
        _ => WorkloadEvent::Free {
            addr: VirtAddr(rd_u64(src, pos + 1)),
            bytes: rd_u64(src, pos + 9),
        },
    }
}

/// Bulk-decodes events from `src` into `buf` with a local cursor and
/// fixed-width `from_le_bytes` reads. Stops when `buf` fills, the input
/// runs out, or a partial trailing event remains (the caller refills or
/// flags truncation). Returns `(bytes_consumed, events_decoded, error)`;
/// events decoded before an unknown tag are kept.
fn decode_events(src: &[u8], buf: &mut [WorkloadEvent]) -> (usize, usize, Option<TraceError>) {
    let mut pos = 0;
    let mut n = 0;
    while n < buf.len() && pos < src.len() {
        let tag = src[pos];
        let Some(len) = event_len(tag) else {
            return (pos, n, Some(TraceError::Corrupt("unknown event tag")));
        };
        if pos + len > src.len() {
            break;
        }
        buf[n] = decode_at(src, pos, tag);
        n += 1;
        pos += len;
    }
    (pos, n, None)
}

/// Validates the magic + version header at the front of `data`.
fn check_header(data: &[u8]) -> Result<(), TraceError> {
    if data.len() < TRACE_HEADER_LEN {
        return Err(TraceError::Truncated);
    }
    if data[..TRACE_MAGIC.len()] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let ver = u32::from_le_bytes(data[8..12].try_into().expect("length checked"));
    if ver != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion(ver));
    }
    Ok(())
}

/// Records the events of an inner stream while passing them through, into
/// an in-memory [`TraceWriter`].
pub struct TraceRecorder<S> {
    inner: S,
    writer: TraceWriter<Vec<u8>>,
}

impl<S: AccessStream> TraceRecorder<S> {
    /// Wraps `inner`, recording every event it produces.
    pub fn new(inner: S) -> Self {
        TraceRecorder {
            inner,
            writer: TraceWriter::new(Vec::new()).expect("writing to a Vec cannot fail"),
        }
    }

    /// Number of events recorded so far.
    pub fn events(&self) -> u64 {
        self.writer.events()
    }

    /// Finishes recording and returns the encoded trace.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.writer.finish().expect("writing to a Vec cannot fail"))
    }
}

impl<S: AccessStream> AccessStream for TraceRecorder<S> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let ev = self.inner.next_event()?;
        self.writer
            .record(&ev)
            .expect("writing to a Vec cannot fail");
        Some(ev)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Encodes events to any `Write` sink: the trace header on creation, then
/// one record per event. In-process memory is bounded by the sink.
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`, writing the versioned header immediately.
    pub fn new(mut out: W) -> Result<Self, TraceError> {
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&TRACE_VERSION.to_le_bytes())?;
        Ok(TraceWriter { out, events: 0 })
    }

    /// Appends one encoded event.
    pub fn record(&mut self, ev: &WorkloadEvent) -> Result<(), TraceError> {
        let mut tmp = [0u8; MAX_EVENT_LEN];
        let len = encode_into(&mut tmp, ev);
        self.out.write_all(&tmp[..len])?;
        self.events += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A [`TraceWriter`] over a buffered file.
pub type TraceFileWriter = TraceWriter<BufWriter<File>>;

impl TraceFileWriter {
    /// Creates (truncating) `path` and writes the trace header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        TraceWriter::new(BufWriter::new(File::create(path)?))
    }
}

/// The bytes a [`TraceReplay`] decodes.
enum Source {
    /// A whole trace in memory: one chunk, decoded in place, never refilled.
    Shared(Bytes),
    /// A file read through a bounded chunk buffer, refilled as it drains.
    File { file: File, chunk: Vec<u8> },
}

impl Source {
    fn chunk(&self) -> &[u8] {
        match self {
            Source::Shared(data) => data,
            Source::File { chunk, .. } => chunk,
        }
    }
}

/// Replays an encoded trace as an [`AccessStream`], decoding in bulk on the
/// [`AccessStream::fill`] path from a shared buffer ([`TraceReplay::new`])
/// or a file ([`TraceReplay::open`]). A file's partial event at a chunk
/// boundary slides to the buffer front before the next read.
///
/// Decode problems (unknown tag, mid-event cut, a failed read) end the
/// stream and are surfaced through [`TraceReplay::take_error`] rather than
/// panicking.
pub struct TraceReplay {
    source: Source,
    name: String,
    /// Decode cursor within the chunk.
    pos: usize,
    /// End of the chunk's valid bytes.
    filled: usize,
    /// No bytes will follow the chunk's.
    eof: bool,
    events_out: u64,
    error: Option<TraceError>,
}

impl TraceReplay {
    /// Replays an in-memory trace, validating the header. Clones of one
    /// [`Bytes`] replay the same bytes without copying them.
    pub fn new(data: Bytes, name: impl Into<String>) -> Result<Self, TraceError> {
        Self::start(Source::Shared(data), name)
    }

    /// Opens the trace file at `path`, validating the header, with the
    /// default chunk buffer.
    pub fn open(path: impl AsRef<Path>, name: impl Into<String>) -> Result<Self, TraceError> {
        Self::with_chunk_bytes(path, name, DEFAULT_TRACE_CHUNK)
    }

    /// Opens `path` with a caller-chosen chunk-buffer size (floored to one
    /// maximal event).
    pub fn with_chunk_bytes(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        chunk_bytes: usize,
    ) -> Result<Self, TraceError> {
        let source = Source::File {
            file: File::open(path)?,
            chunk: vec![0; chunk_bytes.max(MAX_EVENT_LEN)],
        };
        Self::start(source, name)
    }

    /// Loads the first chunk and strips the header at its front.
    fn start(source: Source, name: impl Into<String>) -> Result<Self, TraceError> {
        // A shared buffer is the whole trace: filled, and at its end.
        let (filled, eof) = match &source {
            Source::Shared(data) => (data.len(), true),
            Source::File { .. } => (0, false),
        };
        let mut replay = TraceReplay {
            source,
            name: name.into(),
            pos: 0,
            filled,
            eof,
            events_out: 0,
            error: None,
        };
        replay.refill();
        if let Some(e) = replay.error.take() {
            return Err(e);
        }
        check_header(&replay.source.chunk()[..replay.filled])?;
        replay.pos = TRACE_HEADER_LEN;
        Ok(replay)
    }

    /// Size of the chunk: a file's bounded buffer — the reader's whole
    /// decode footprint — or a shared trace's full length.
    pub fn buffer_capacity(&self) -> usize {
        self.source.chunk().len()
    }

    /// Takes the decode error that ended the stream, if any.
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// Slides the undecoded tail to the chunk front and refills from the
    /// file until the chunk is full or the file ends.
    fn refill(&mut self) {
        let Source::File { file, chunk } = &mut self.source else {
            return;
        };
        if self.eof {
            return;
        }
        chunk.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        while self.filled < chunk.len() {
            match file.read(&mut chunk[self.filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(k) => self.filled += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.error = Some(TraceError::Io(e));
                    self.eof = true;
                    break;
                }
            }
        }
    }
}

impl AccessStream for TraceReplay {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let mut one = [WorkloadEvent::Access(Access::load(0))];
        (self.fill(&mut one) == 1).then(|| one[0])
    }

    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        if self.error.is_some() || buf.is_empty() {
            return 0;
        }
        let mut total = 0;
        loop {
            let avail = &self.source.chunk()[self.pos..self.filled];
            let (consumed, n, err) = decode_events(avail, &mut buf[total..]);
            self.pos += consumed;
            total += n;
            self.events_out += n as u64;
            if err.is_some() {
                self.error = err;
                break;
            }
            if total == buf.len() {
                break;
            }
            // Chunk dry or holding a partial event: refill or finish.
            if self.eof {
                if self.pos < self.filled {
                    self.error = Some(TraceError::Truncated);
                }
                break;
            }
            self.refill();
            if self.error.is_some() {
                break;
            }
        }
        total
    }

    fn skip_events(&mut self, n: u64) {
        // Decode-and-drop through the bulk path; still O(chunk) memory.
        let mut scratch = vec![WorkloadEvent::Access(Access::load(0)); 512];
        let mut left = n;
        while left > 0 {
            let take = left.min(scratch.len() as u64) as usize;
            let got = self.fill(&mut scratch[..take]);
            if got == 0 {
                break;
            }
            left -= got as u64;
        }
    }

    fn position(&self) -> Option<u64> {
        Some(self.events_out)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Benchmark;
    use crate::scale::Scale;
    use crate::spec::SpecStream;

    fn collect(stream: &mut dyn AccessStream) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(ev) = stream.next_event() {
            out.push(format!("{ev:?}"));
        }
        out
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("memtis-trace-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn record_replay_roundtrip() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 2000);
        let original = collect(&mut SpecStream::new(spec.clone(), 9));
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 9));
        let recorded = collect(&mut rec);
        assert_eq!(original, recorded);
        let trace = rec.finish();
        let mut replay = TraceReplay::new(trace, "Silo").unwrap();
        let replayed = collect(&mut replay);
        assert_eq!(original, replayed);
        assert!(replay.take_error().is_none());
        assert_eq!(replay.position(), Some(original.len() as u64));
    }

    #[test]
    fn replay_fill_matches_next_event() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 500);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 3));
        while rec.next_event().is_some() {}
        let trace = rec.finish();
        let mut single = TraceReplay::new(trace.clone(), "Silo").unwrap();
        let mut bulk = TraceReplay::new(trace, "Silo").unwrap();
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 129];
        loop {
            let n = bulk.fill(&mut buf);
            if n == 0 {
                assert!(single.next_event().is_none());
                break;
            }
            for ev in &buf[..n] {
                let expect = single.next_event().unwrap();
                assert_eq!(format!("{ev:?}"), format!("{expect:?}"));
            }
        }
    }

    #[test]
    fn trace_is_compact() {
        let spec = Benchmark::Btree.spec(Scale::TEST, 1000);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 1));
        while rec.next_event().is_some() {}
        let n = rec.events();
        let trace = rec.finish();
        // Header plus at most 17 bytes per event.
        assert!(trace.len() as u64 <= TRACE_HEADER_LEN as u64 + 17 * n);
        assert!(trace.starts_with(&TRACE_MAGIC));
        assert!(n >= 1000);
    }

    #[test]
    fn reader_rejects_bad_magic_and_version() {
        let garbage = Bytes::from(b"NOTATRCE\x01\x00\x00\x00rest".to_vec());
        assert!(matches!(
            TraceReplay::new(garbage, "x"),
            Err(TraceError::BadMagic)
        ));
        let mut future = Vec::new();
        future.extend_from_slice(&TRACE_MAGIC);
        future.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            TraceReplay::new(Bytes::from(future), "x"),
            Err(TraceError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            TraceReplay::new(Bytes::from(b"short".to_vec()), "x"),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn headerless_trace_is_rejected() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 300);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 5));
        while rec.next_event().is_some() {}
        let trace = rec.finish();
        // Strip the header: bare events are not a trace.
        let bare = Bytes::from(trace[TRACE_HEADER_LEN..].to_vec());
        assert!(matches!(
            TraceReplay::new(bare, "Silo"),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn truncated_and_corrupt_traces_surface_typed_errors() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 200);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 7));
        while rec.next_event().is_some() {}
        let trace = rec.finish();

        // Cut mid-event: the stream ends early with Truncated, not a panic.
        let cut = Bytes::from(trace[..trace.len() - 3].to_vec());
        let mut replay = TraceReplay::new(cut, "cut").unwrap();
        while replay.next_event().is_some() {}
        assert!(matches!(replay.take_error(), Some(TraceError::Truncated)));

        // Same through the bulk path.
        let cut = Bytes::from(trace[..trace.len() - 3].to_vec());
        let mut replay = TraceReplay::new(cut, "cut").unwrap();
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 64];
        while replay.fill(&mut buf) > 0 {}
        assert!(matches!(replay.take_error(), Some(TraceError::Truncated)));

        // Unknown tag: Corrupt.
        let mut bad = Vec::new();
        bad.extend_from_slice(&TRACE_MAGIC);
        bad.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bad.push(200); // no such tag
        bad.extend_from_slice(&[0u8; 16]);
        let mut replay = TraceReplay::new(Bytes::from(bad), "bad").unwrap();
        assert!(replay.next_event().is_none());
        assert!(matches!(replay.take_error(), Some(TraceError::Corrupt(_))));
    }

    #[test]
    fn streaming_writer_matches_recorder_bytes() {
        let spec = Benchmark::Btree.spec(Scale::TEST, 800);
        let mut rec = TraceRecorder::new(SpecStream::new(spec.clone(), 11));
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        let mut src = SpecStream::new(spec, 11);
        while let Some(ev) = rec.next_event() {
            let ours = src.next_event().unwrap();
            assert_eq!(format!("{ours:?}"), format!("{ev:?}"));
            writer.record(&ours).unwrap();
        }
        assert_eq!(writer.events(), rec.events());
        let streamed = writer.finish().unwrap();
        assert_eq!(streamed[..], rec.finish()[..]);
    }

    #[test]
    fn file_reader_streams_identically_with_tiny_chunks() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 1500);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 21));
        while rec.next_event().is_some() {}
        let trace = rec.finish();
        let path = temp_path("stream");
        std::fs::write(&path, &trace[..]).unwrap();

        let expected = collect(&mut TraceReplay::new(trace, "Silo").unwrap());
        // A chunk buffer far smaller than the trace forces many refills and
        // partial-event carries across chunk boundaries.
        let mut reader = TraceReplay::with_chunk_bytes(&path, "Silo", 61).unwrap();
        assert_eq!(reader.buffer_capacity(), 61);
        let mut got = Vec::new();
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 37];
        loop {
            let n = reader.fill(&mut buf);
            if n == 0 {
                break;
            }
            got.extend(buf[..n].iter().map(|ev| format!("{ev:?}")));
        }
        assert!(reader.take_error().is_none());
        assert_eq!(got, expected);
        assert_eq!(reader.position(), Some(expected.len() as u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_reader_skip_events_fast_forwards_exactly() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 900);
        let mut rec = TraceRecorder::new(SpecStream::new(spec, 2));
        while rec.next_event().is_some() {}
        let trace = rec.finish();
        let path = temp_path("skip");
        std::fs::write(&path, &trace[..]).unwrap();

        let mut all = TraceReplay::new(trace, "Silo").unwrap();
        all.skip_events(700);
        let expected = collect(&mut all);

        let mut reader = TraceReplay::with_chunk_bytes(&path, "Silo", 128).unwrap();
        reader.skip_events(700);
        assert_eq!(reader.position(), Some(700));
        let got = collect(&mut reader);
        assert_eq!(got, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_reader_rejects_bad_header() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOTATRCE\x01\x00\x00\x00data").unwrap();
        assert!(matches!(
            TraceReplay::open(&path, "x"),
            Err(TraceError::BadMagic)
        ));
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod codec_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generator covering all five event tags, with full-range operands.
    fn arb_event() -> impl Strategy<Value = WorkloadEvent> {
        let word = 0u64..u64::MAX;
        prop_oneof![
            (word.clone()).prop_map(|a| WorkloadEvent::Access(Access::load(a))),
            (word.clone()).prop_map(|a| WorkloadEvent::Access(Access::store(a))),
            (word.clone(), word.clone(), proptest::bool::ANY).prop_map(|(a, b, thp)| {
                WorkloadEvent::Alloc {
                    addr: VirtAddr(a),
                    bytes: b,
                    thp,
                }
            }),
            (word.clone(), word).prop_map(|(a, b)| WorkloadEvent::Free {
                addr: VirtAddr(a),
                bytes: b,
            }),
        ]
    }

    proptest! {
        /// Every event sequence survives encode → decode bit-exactly, via
        /// both the single-event and the bulk decode paths, and the
        /// streaming writer emits the recorder's exact bytes.
        #[test]
        fn roundtrip_all_tags(evs in proptest::collection::vec(arb_event(), 0..200)) {
            let mut writer = TraceWriter::new(Vec::new()).unwrap();
            for ev in &evs {
                writer.record(ev).unwrap();
            }
            let bytes = Bytes::from(writer.finish().unwrap());

            let mut one_by_one = TraceReplay::new(bytes.clone(), "p").unwrap();
            for ev in &evs {
                let got = one_by_one.next_event().unwrap();
                prop_assert_eq!(format!("{got:?}"), format!("{ev:?}"));
            }
            prop_assert!(one_by_one.next_event().is_none());
            prop_assert!(one_by_one.take_error().is_none());

            let mut bulk = TraceReplay::new(bytes, "p").unwrap();
            let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 7];
            let mut got = Vec::new();
            loop {
                let n = bulk.fill(&mut buf);
                if n == 0 { break; }
                got.extend(buf[..n].iter().map(|e| format!("{e:?}")));
            }
            prop_assert!(bulk.take_error().is_none());
            let want: Vec<String> = evs.iter().map(|e| format!("{e:?}")).collect();
            prop_assert_eq!(got, want);
        }

        /// Any mid-event cut ends the stream with `Truncated` — never a
        /// panic, never a silently misdecoded event.
        #[test]
        fn any_mid_event_cut_is_truncated(
            evs in proptest::collection::vec(arb_event(), 1..50),
            cut_back in 1usize..16,
        ) {
            let mut writer = TraceWriter::new(Vec::new()).unwrap();
            for ev in &evs {
                writer.record(ev).unwrap();
            }
            let full = writer.finish().unwrap();
            let body_len = full.len() - TRACE_HEADER_LEN;
            let cut = cut_back.min(body_len.saturating_sub(1));
            if body_len - cut == 0 {
                return Ok(());
            }
            let mut replay =
                TraceReplay::new(Bytes::from(full[..TRACE_HEADER_LEN + body_len - cut].to_vec()), "p")
                    .unwrap();
            let mut n = 0u64;
            while replay.next_event().is_some() {
                n += 1;
            }
            // A cut always lands mid-event unless it severed an exact
            // event boundary; decoded events stay a prefix either way.
            prop_assert!(n <= evs.len() as u64);
            if let Some(e) = replay.take_error() {
                prop_assert!(matches!(e, TraceError::Truncated));
            } else {
                prop_assert!(n < evs.len() as u64);
            }
        }
    }
}
