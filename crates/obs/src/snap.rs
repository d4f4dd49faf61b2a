//! Dependency-free binary snapshot encoding.
//!
//! A snapshot is a flat little-endian byte stream assembled by
//! [`SnapWriter`] and consumed by [`SnapReader`]. The format is
//! deliberately primitive — fixed-width integers, `f64` bit patterns,
//! length-prefixed strings and sections — so that restoring a snapshot
//! byte-for-byte reconstructs the simulated state with no parsing
//! ambiguity and no external serialization crate.
//!
//! Every complete snapshot starts with [`SNAP_MAGIC`] and a `u32`
//! [`SNAP_VERSION`]; readers reject foreign files with a typed error
//! instead of decoding garbage. Individual components write themselves
//! with in-module `snap_save`/`snap_restore` methods so private state
//! (free-list stack order, RNG cursors, ring cursors) round-trips
//! exactly.
//!
//! # Versioning rules
//!
//! The version is bumped whenever any component changes its field
//! order, width, or meaning. There is no in-place migration: a reader
//! only accepts its own version. Snapshots are short-lived operational
//! artifacts (checkpoint/resume within one experiment), not archival
//! data.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"MEMTISSN";
/// Current snapshot format version.
///
/// v2: transfers carry the per-pass waste-idempotence flag, the machine
/// serializes an engine-modes section (admission / shadow / hysteresis
/// state), and migration stats gained the mode counters.
///
/// v3: the driver's simulated-time timeline section is gone (windows are
/// the only time series) and its window-state record shrank to the
/// daemon-contention stretch cursors.
pub const SNAP_VERSION: u32 = 3;

/// Errors surfaced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended inside a value.
    Truncated,
    /// The leading magic bytes are not [`SNAP_MAGIC`].
    BadMagic,
    /// The format version is not [`SNAP_VERSION`].
    BadVersion(u32),
    /// A value decoded but failed a structural validity check.
    Corrupt(&'static str),
    /// The snapshot was taken under a different configuration than the
    /// simulation it is being restored into.
    ConfigMismatch {
        /// Fingerprint of the restoring simulation's configuration.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAP_VERSION})"
                )
            }
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match \
                 this simulation's {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Interns a string, returning a `&'static str` with stable identity.
///
/// Snapshot state includes `(&'static str, f64)` gauge rows whose keys
/// were string literals at record time; on restore the keys come off
/// the wire as owned strings. Leaking through a global cache bounds the
/// leak to one copy per distinct key over the process lifetime.
pub fn intern(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Little-endian snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer (no header) — for nested components and tests.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// A writer opened with the snapshot magic and version header.
    pub fn with_header() -> Self {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (round-trips NaN
    /// payloads and infinities exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed raw byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed section produced by `f`, so readers can
    /// skip or sub-scope it without understanding its contents.
    pub fn section<F: FnOnce(&mut SnapWriter)>(&mut self, f: F) {
        let at = self.buf.len();
        self.u32(0);
        f(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Little-endian snapshot decoder over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over raw component bytes (no header expected).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// A reader over a complete snapshot: validates magic and version.
    pub fn with_header(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(buf);
        let magic = r.take(SNAP_MAGIC.len())?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }

    /// Reads a `u32` element count for a collection whose elements each
    /// take at least `min_elem_bytes` on the wire. A count the remaining
    /// bytes cannot hold is `Corrupt`, so a decoded length never sizes an
    /// allocation beyond what the input could fill.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(SnapError::Corrupt("element count exceeds input"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }

    /// Reads a length-prefixed string and interns it (see [`intern`]).
    pub fn static_str(&mut self) -> Result<&'static str, SnapError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|_| SnapError::Corrupt("invalid utf-8"))?;
        Ok(intern(s))
    }

    /// Reads a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed section into a sub-reader scoped to it.
    pub fn section(&mut self) -> Result<SnapReader<'a>, SnapError> {
        Ok(SnapReader::new(self.bytes()?))
    }

    /// Errors unless every byte has been consumed — catches field-order
    /// drift between a component's save and restore paths.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.f64(f64::INFINITY);
        w.f64(-0.0);
        w.bool(true);
        w.str("hello κόσμος");
        w.bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello κόσμος");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn header_rejects_foreign_bytes() {
        assert_eq!(
            SnapReader::with_header(b"NOTSNAPS rest").unwrap_err(),
            SnapError::BadMagic
        );
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.u32(SNAP_VERSION + 9);
        let bytes = w.finish();
        assert_eq!(
            SnapReader::with_header(&bytes).unwrap_err(),
            SnapError::BadVersion(SNAP_VERSION + 9)
        );
        let ok = SnapWriter::with_header().finish();
        SnapReader::with_header(&ok).unwrap().expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn counts_beyond_the_input_are_corrupt() {
        let mut w = SnapWriter::new();
        w.u32(2);
        w.u64(1);
        w.u64(2);
        w.u32(3);
        w.u64(1);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.count(8).unwrap(), 2);
        r.u64().unwrap();
        r.u64().unwrap();
        assert_eq!(
            r.count(8).unwrap_err(),
            SnapError::Corrupt("element count exceeds input")
        );
        let mut r = SnapReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.count(usize::MAX).is_err());
        let mut r = SnapReader::new(&[0, 0, 0, 0]);
        assert_eq!(r.count(usize::MAX).unwrap(), 0);
    }

    #[test]
    fn sections_nest_and_scope() {
        let mut w = SnapWriter::new();
        w.section(|w| {
            w.u64(1);
            w.section(|w| w.str("inner"));
        });
        w.u8(9);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let mut s = r.section().unwrap();
        assert_eq!(s.u64().unwrap(), 1);
        let mut inner = s.section().unwrap();
        assert_eq!(inner.str().unwrap(), "inner");
        inner.expect_end().unwrap();
        s.expect_end().unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        r.expect_end().unwrap();
    }

    #[test]
    fn intern_is_stable() {
        let a = intern("gauge_key_x");
        let b = intern(&String::from("gauge_key_x"));
        assert!(std::ptr::eq(a, b));
    }
}
