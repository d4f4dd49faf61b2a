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
//! # Record layout (version 2)
//!
//! Every record opens with one header byte.
//!
//! - **Access:** header bit 0 is 0, bit 1 marks a store, bits 2–5 hold the
//!   payload length `n` (0–8), bit 6 marks a delta counted in 64-byte lines
//!   and bit 7 is 0. The delta is `vaddr − previous vaddr` in wrapping
//!   arithmetic, where the previous address starts at 0 and only accesses
//!   update it. When its low 6 bits are 0 the writer sets bit 6 and stores
//!   the delta arithmetically shifted right by 6. The `n` payload bytes are
//!   the little-endian zigzag encoding of that value, with no leading zero
//!   bytes. Consecutive accesses usually land a few KiB apart on line
//!   boundaries, so a typical access takes 3–5 bytes instead of a full
//!   8-byte address.
//! - **Alloc / free:** header bit 0 is 1, bits 1–2 give the kind (0 alloc
//!   with THP, 1 alloc without THP, 2 free) and bits 3–7 are 0. The address
//!   and the byte count follow as two little-endian `u64`s (17 bytes).
//!
//! Any other header byte — a length over 8, a reserved bit set, kind 3 —
//! is [`TraceError::Corrupt`]; a record cut off by the end of the input is
//! [`TraceError::Truncated`]. Both are checked in that order, so a damaged
//! header decodes alike however the input is chunked.
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
//!   back to: seeking decodes from the start, which also rebuilds the
//!   previous-address state the deltas need.

use bytes::Bytes;
use memtis_sim::prelude::{Access, AccessKind, AccessStream, VirtAddr, WorkloadEvent};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Header bit 0: set on alloc/free records, clear on accesses.
const HDR_ALLOC_FREE: u8 = 1;
/// Access header bit 1: the access is a store.
const HDR_STORE: u8 = 1 << 1;
/// Access header bits 2–5 hold the payload length.
const HDR_LEN_SHIFT: u32 = 2;
/// Access header bit 6: the delta is counted in 64-byte lines.
const HDR_LINES: u8 = 1 << 6;
/// log2 of the line a [`HDR_LINES`] delta counts in.
const LINE_SHIFT: u32 = 6;
/// Access header bit 7 is reserved.
const HDR_ACCESS_RESERVED: u8 = 1 << 7;
/// Alloc/free kinds, in header bits 1–2.
const KIND_ALLOC: u8 = 0;
const KIND_ALLOC_NOTHP: u8 = 1;
const KIND_FREE: u8 = 2;

/// Longest encoded event (alloc/free: header + two u64 operands).
const MAX_EVENT_LEN: usize = 17;

/// Magic bytes opening every versioned trace.
pub const TRACE_MAGIC: [u8; 8] = *b"MEMTISTR";
/// Current trace format version.
pub const TRACE_VERSION: u32 = 2;
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
    /// Structurally invalid event data (a header byte no writer emits).
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

/// Zigzag-maps a wrapping delta so small magnitudes of either sign get
/// few significant bytes.
#[inline]
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Mask keeping the low `n` payload bytes of a little-endian word, indexed
/// by the header's 4-bit length field (only 0..=8 are valid; the padding
/// lets the field index the table with no bounds check).
const PAYLOAD_MASK: [u64; 16] = {
    let mut masks = [u64::MAX; 16];
    let mut n = 0;
    while n < 8 {
        masks[n] = (1 << (8 * n)) - 1;
        n += 1;
    }
    masks
};

/// Encodes one event into `dst`, returning the encoded length. `prev` is
/// the previous access's address, advanced past an access.
#[inline]
fn encode_into(dst: &mut [u8; MAX_EVENT_LEN], prev: &mut u64, ev: &WorkloadEvent) -> usize {
    let (kind, addr, bytes) = match *ev {
        WorkloadEvent::Access(a) => {
            let delta = a.vaddr.0.wrapping_sub(*prev);
            *prev = a.vaddr.0;
            let (z, lines) = if delta & ((1 << LINE_SHIFT) - 1) == 0 {
                (zigzag((delta as i64 >> LINE_SHIFT) as u64), HDR_LINES)
            } else {
                (zigzag(delta), 0)
            };
            let n = (u64::BITS - z.leading_zeros()).div_ceil(8) as u8;
            let store = if a.is_store() { HDR_STORE } else { 0 };
            dst[0] = n << HDR_LEN_SHIFT | store | lines;
            dst[1..9].copy_from_slice(&z.to_le_bytes());
            return 1 + n as usize;
        }
        WorkloadEvent::Alloc { addr, bytes, thp } => {
            let kind = if thp { KIND_ALLOC } else { KIND_ALLOC_NOTHP };
            (kind, addr, bytes)
        }
        WorkloadEvent::Free { addr, bytes } => (KIND_FREE, addr, bytes),
    };
    dst[0] = HDR_ALLOC_FREE | kind << 1;
    dst[1..9].copy_from_slice(&addr.0.to_le_bytes());
    dst[9..17].copy_from_slice(&bytes.to_le_bytes());
    MAX_EVENT_LEN
}

/// Decodes records from the front of `src` into `buf`, advancing `addr`
/// (the previous access's address) past every access decoded. Each record
/// is read in place from a maximal record's worth of bytes, so an access's
/// delta is one unaligned little-endian load masked to its payload. Records
/// must end by `end`; bytes past it are padding the loop may read but never
/// decodes. Stops when `buf` fills, fewer than a maximal record's bytes
/// remain, or the next record runs past `end`. Returns `(bytes_consumed,
/// events_decoded, error)`; events decoded before a corrupt header are kept.
#[inline(always)]
fn decode_run(
    src: &[u8],
    end: usize,
    addr: &mut u64,
    buf: &mut [WorkloadEvent],
) -> (usize, usize, Option<TraceError>) {
    let corrupt = || Some(TraceError::Corrupt("unknown record header"));
    let mut pos = 0;
    let mut n = 0;
    while n < buf.len() && pos < end && pos + MAX_EVENT_LEN <= src.len() {
        let rec: &[u8; MAX_EVENT_LEN] = src[pos..pos + MAX_EVENT_LEN]
            .try_into()
            .expect("length checked");
        let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
        let h = rec[0];
        if h & HDR_ALLOC_FREE == 0 {
            let len = (h >> HDR_LEN_SHIFT & 0xF) as usize;
            if h & HDR_ACCESS_RESERVED != 0 || len > 8 {
                return (pos, n, corrupt());
            }
            if pos + 1 + len > end {
                break;
            }
            let z = word(1) & PAYLOAD_MASK[len];
            let scale = u32::from(h & HDR_LINES != 0) * LINE_SHIFT;
            *addr = addr.wrapping_add(unzigzag(z) << scale);
            let kind = if h & HDR_STORE != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            buf[n] = WorkloadEvent::Access(Access {
                vaddr: VirtAddr(*addr),
                kind,
            });
            pos += 1 + len;
        } else {
            if h >> 1 > KIND_FREE {
                return (pos, n, corrupt());
            }
            if pos + MAX_EVENT_LEN > end {
                break;
            }
            let (a, bytes) = (VirtAddr(word(1)), word(9));
            buf[n] = match h >> 1 {
                KIND_ALLOC => WorkloadEvent::Alloc {
                    addr: a,
                    bytes,
                    thp: true,
                },
                KIND_ALLOC_NOTHP => WorkloadEvent::Alloc {
                    addr: a,
                    bytes,
                    thp: false,
                },
                _ => WorkloadEvent::Free { addr: a, bytes },
            };
            pos += MAX_EVENT_LEN;
        }
        n += 1;
    }
    (pos, n, None)
}

/// Bulk-decodes events from `src` into `buf`, advancing `prev` (the
/// previous access's address) past every access decoded. Records are
/// decoded in place while a maximal record's worth of bytes remains; the
/// last few bytes of `src` are copied into a zero-padded buffer and decoded
/// by the same loop. Stops when `buf` fills, the input runs out, or a
/// partial trailing record remains (the caller refills or flags
/// truncation). Returns `(bytes_consumed, events_decoded, error)`.
fn decode_events(
    src: &[u8],
    prev: &mut u64,
    buf: &mut [WorkloadEvent],
) -> (usize, usize, Option<TraceError>) {
    let mut addr = *prev;
    let (mut pos, mut n, mut error) = decode_run(src, src.len(), &mut addr, buf);
    if error.is_none() && n < buf.len() && pos + MAX_EVENT_LEN > src.len() {
        let tail = &src[pos..];
        let mut padded = [0; 2 * MAX_EVENT_LEN];
        padded[..tail.len()].copy_from_slice(tail);
        let (more_pos, more, tail_error) =
            decode_run(&padded, tail.len(), &mut addr, &mut buf[n..]);
        pos += more_pos;
        n += more;
        error = tail_error;
    }
    *prev = addr;
    (pos, n, error)
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

/// Bytes a [`TraceWriter`] stages before handing them to its sink.
const STAGE_BYTES: usize = 8 << 10;

/// Encodes events to any `Write` sink: the trace header on creation, then
/// one record per event. In-process memory is bounded by the sink.
///
/// Records are encoded in place into a fixed staging buffer, so each costs
/// a fixed-width copy instead of a variable-length write, and reach the
/// sink [`STAGE_BYTES`] at a time. [`TraceWriter::finish`] writes the last
/// stage and reports its errors; a writer dropped without `finish` still
/// writes it, as `BufWriter` does, but loses any error.
pub struct TraceWriter<W: Write> {
    /// The sink; taken only by [`TraceWriter::finish`].
    out: Option<W>,
    /// Encoded records not yet written; the slack past [`STAGE_BYTES`]
    /// always fits one more maximal record.
    stage: Box<[u8; STAGE_BYTES + MAX_EVENT_LEN]>,
    staged: usize,
    events: u64,
    /// Address of the last access written: the base of the next delta.
    prev_addr: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`, writing the versioned header immediately.
    pub fn new(mut out: W) -> Result<Self, TraceError> {
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&TRACE_VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            out: Some(out),
            stage: Box::new([0; STAGE_BYTES + MAX_EVENT_LEN]),
            staged: 0,
            events: 0,
            prev_addr: 0,
        })
    }

    /// Appends one encoded event.
    pub fn record(&mut self, ev: &WorkloadEvent) -> Result<(), TraceError> {
        let dst = (&mut self.stage[self.staged..self.staged + MAX_EVENT_LEN])
            .try_into()
            .expect("the stage keeps room for one maximal record");
        self.staged += encode_into(dst, &mut self.prev_addr, ev);
        self.events += 1;
        if self.staged >= STAGE_BYTES {
            self.write_stage()?;
        }
        Ok(())
    }

    /// Hands the staged records to the sink.
    fn write_stage(&mut self) -> Result<(), TraceError> {
        let staged = std::mem::take(&mut self.staged);
        if let Some(out) = self.out.as_mut() {
            out.write_all(&self.stage[..staged])?;
        }
        Ok(())
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Writes the last staged records, flushes and returns the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.write_stage()?;
        let mut out = self.out.take().expect("only finish takes the sink");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        // Best effort, like `BufWriter`: `finish` is how errors surface.
        let _ = self.write_stage();
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
/// Decode problems (a corrupt header, mid-event cut, a failed read) end the
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
    /// Address of the last access decoded: the base of the next delta.
    prev_addr: u64,
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
            prev_addr: 0,
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
            let (consumed, n, err) = decode_events(avail, &mut self.prev_addr, &mut buf[total..]);
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

    /// Records `bench` at `Scale::TEST`, returning the trace and its
    /// access and alloc/free counts.
    fn record_counts(bench: Benchmark, accesses: u64, seed: u64) -> (Bytes, u64, u64) {
        let mut rec = TraceRecorder::new(SpecStream::new(bench.spec(Scale::TEST, accesses), seed));
        let (mut acc, mut other) = (0, 0);
        while let Some(ev) = rec.next_event() {
            match ev {
                WorkloadEvent::Access(_) => acc += 1,
                _ => other += 1,
            }
        }
        (rec.finish(), acc, other)
    }

    #[test]
    fn trace_is_compact() {
        let (trace, acc, other) = record_counts(Benchmark::Btree, 1000, 1);
        // Header, at most 9 bytes per access and 17 per alloc/free.
        assert!(trace.len() as u64 <= TRACE_HEADER_LEN as u64 + 9 * acc + 17 * other);
        assert!(trace.starts_with(&TRACE_MAGIC));
        assert!(acc >= 1000);
    }

    #[test]
    fn recorded_accesses_average_at_most_five_bytes() {
        // A writer that fell back to fixed-width addresses would take 9
        // bytes per access; deltas between nearby lines take 3-5.
        for bench in [Benchmark::Roms, Benchmark::Silo] {
            let (trace, acc, other) = record_counts(bench, 200_000, 3);
            let access_bytes = (trace.len() - TRACE_HEADER_LEN) as u64 - 17 * other;
            let mean = access_bytes as f64 / acc as f64;
            assert!(mean <= 5.0, "{bench:?}: {mean:.2} B/access");
        }
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

        // A header no writer emits: Corrupt.
        let mut bad = Vec::new();
        bad.extend_from_slice(&TRACE_MAGIC);
        bad.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        bad.push(200); // an access header with reserved bit 7 set
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
    fn dropped_writer_still_writes_its_last_records() {
        let spec = Benchmark::Silo.spec(Scale::TEST, 300);
        let path = temp_path("dropped");
        let mut writer = TraceFileWriter::create(&path).unwrap();
        let mut src = SpecStream::new(spec.clone(), 4);
        while let Some(ev) = src.next_event() {
            writer.record(&ev).unwrap();
        }
        drop(writer);
        let mut replay = TraceReplay::open(&path, "Silo").unwrap();
        assert_eq!(collect(&mut replay), collect(&mut SpecStream::new(spec, 4)));
        assert!(replay.take_error().is_none());
        std::fs::remove_file(&path).unwrap();
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

    /// Events whose deltas hit the codec's edges: repeats, ±2^63, the
    /// top of the address space, unaligned and line-aligned steps, and
    /// alloc/free records between accesses (which must not move the delta
    /// base).
    fn adversarial_events() -> Vec<WorkloadEvent> {
        let half = 1u64 << 63;
        let addrs = [
            0,
            0,
            u64::MAX,
            u64::MAX,
            0,
            half,
            0,
            half,
            half - 1,
            half + 64,
            1,
            u64::MAX - 63,
            64,
            64 << 20,
            (64 << 20) + 3,
            0x7FFF_FFFF_FFC0,
            0xFF,
            0x100,
            0xFFFF_FFFF_FFFF_FF00,
            0x0100_0000_0000_0000,
        ];
        let mut evs = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            evs.push(WorkloadEvent::Access(if i % 3 == 0 {
                Access::store(a)
            } else {
                Access::load(a)
            }));
            let (addr, bytes) = (VirtAddr(a ^ 0x5A5A), u64::MAX - i as u64);
            evs.push(match i % 4 {
                0 => WorkloadEvent::Alloc {
                    addr,
                    bytes,
                    thp: true,
                },
                1 => WorkloadEvent::Free { addr, bytes },
                2 => WorkloadEvent::Alloc {
                    addr,
                    bytes,
                    thp: false,
                },
                _ => WorkloadEvent::Access(Access::load(a.wrapping_add(half))),
            });
        }
        evs
    }

    #[test]
    fn adversarial_addresses_round_trip_in_memory_and_at_every_chunk_size() {
        let evs = adversarial_events();
        let want: Vec<String> = evs.iter().map(|e| format!("{e:?}")).collect();
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        for ev in &evs {
            writer.record(ev).unwrap();
        }
        let trace = writer.finish().unwrap();

        let mut shared = TraceReplay::new(Bytes::from(trace.clone()), "adv").unwrap();
        assert_eq!(collect(&mut shared), want);
        assert!(shared.take_error().is_none());

        let path = temp_path("adversarial");
        std::fs::write(&path, &trace).unwrap();
        for chunk in MAX_EVENT_LEN..=40 {
            let mut reader = TraceReplay::with_chunk_bytes(&path, "adv", chunk).unwrap();
            assert_eq!(collect(&mut reader), want, "chunk {chunk}");
            assert!(reader.take_error().is_none(), "chunk {chunk}");
        }
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

    /// Generator covering every record kind, with full-range operands.
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
