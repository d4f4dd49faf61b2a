//! Dependency-free binary snapshot codec.
//!
//! A snapshot is a flat little-endian byte stream assembled by
//! [`SnapWriter`] and consumed by [`SnapReader`]. The format is
//! deliberately primitive — fixed-width integers, `f64` bit patterns,
//! `u32`-counted collections and checksummed sections — so that restoring
//! a snapshot byte-for-byte reconstructs the simulated state with no
//! parsing ambiguity and no external serialization crate.
//!
//! Each type states its wire layout once, and both directions come from
//! that one statement:
//!
//! - [`Snap`] is the codec of a value that can be rebuilt from bytes
//!   alone. The primitives, strings, `Option`, `Vec`, `VecDeque`, maps,
//!   sets, `Box`, arrays and small tuples implement it here; structs
//!   implement it through [`snap_struct!`], whose `load` builds the struct
//!   literal (a field missing from the list fails to compile), and enums
//!   through [`snap_enum!`], one variant table giving each variant's tag
//!   and fields.
//! - [`SnapFields`] is the codec of state restored *into* an
//!   already-configured value (a policy, the machine, a TLB): the listed
//!   fields are overwritten, the configuration fields are kept, and an
//!   optional check validates the loaded state against them.
//!
//! Every complete snapshot starts with [`SNAP_MAGIC`] and a `u32`
//! [`SNAP_VERSION`]; readers reject foreign files with a typed error
//! instead of decoding garbage. Sections carry an FNV-1a checksum of their
//! body, so a flipped byte is [`SnapError::Checksum`], never a silently
//! different run. Every decoded collection length goes through
//! [`SnapReader::count`], which bounds it by the bytes left in the input,
//! and every written length through [`u32_len`], so an over-long
//! collection is an error rather than a wrapped length word.
//!
//! # Versioning rules
//!
//! The version is bumped whenever any component changes its field
//! order, width, or meaning. There is no in-place migration: a reader
//! only accepts its own version. Snapshots are short-lived operational
//! artifacts (checkpoint/resume within one experiment), not archival
//! data.

use crate::fnv::Fnv1a;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
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
///
/// v4: one codec writes every component. Every collection length is a
/// `u32` (core, tracking and baselines used `u64`), every section ends
/// with an FNV-1a checksum of its body, config-fixed optional state
/// carries a presence byte, and the six hint-fault / scan baselines
/// (AutoNUMA, AutoTiering, Tiering-0.8, Nimble, MULTI-CLOCK, TMTS)
/// serialize their state.
///
/// v5: admission control is gone — the engine-modes section lost its
/// admission record and the migration stats their two admission counters.
///
/// v6: MEMTIS's state lost the hybrid-scan tick counter and its
/// `scan_supplements` statistic, and its config fingerprint changed with
/// the scan period gone; the MULTI-CLOCK and TMTS policies are gone.
pub const SNAP_VERSION: u32 = 6;

/// Errors surfaced while decoding (or, for over-long collections,
/// encoding) a snapshot.
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
    /// A section's body does not match its stored checksum.
    Checksum,
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
            SnapError::Checksum => write!(f, "snapshot section checksum mismatch"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Checked `usize -> u32` conversion for length words: a collection too
/// long for the format is [`SnapError::Corrupt`] naming `what`, instead of
/// a truncated length that corrupts everything after it.
pub fn u32_len(n: usize, what: &'static str) -> Result<u32, SnapError> {
    u32::try_from(n).map_err(|_| SnapError::Corrupt(what))
}

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

/// Fingerprint of a configuration's `Debug` render: binds a snapshot to
/// the exact configuration it was taken under.
fn fingerprint_of(cfg: &impl std::fmt::Debug) -> u64 {
    Fnv1a::new().mix_str(&format!("{cfg:?}")).finish()
}

/// The wire codec of a value rebuilt from bytes alone.
pub trait Snap: Sized {
    /// The fewest bytes any encoding of a value takes. Collection decoders
    /// pass it to [`SnapReader::count`], so a decoded length never sizes
    /// an allocation beyond what the remaining input could fill.
    const MIN_BYTES: usize;

    /// Appends the value's encoding.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes one value, validating it.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// The wire codec of state restored into an already-configured value:
/// `load_fields` overwrites the saved fields and keeps the configuration.
/// On error the value may be partially overwritten.
pub trait SnapFields {
    /// Appends the saved fields.
    fn save_fields(&self, w: &mut SnapWriter);

    /// Overwrites the saved fields from `r`, validating them against the
    /// retained configuration.
    fn load_fields(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// `MIN_BYTES` of the field `f` selects — lets [`snap_struct!`] sum its
/// fields' minimum sizes without restating their types.
#[doc(hidden)]
pub const fn min_bytes_of<S, T: Snap>(_f: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Little-endian snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// The first unrepresentable length met; reported by
    /// [`SnapWriter::finish`].
    err: Option<SnapError>,
}

impl SnapWriter {
    /// An empty writer (no header) — for nested components and tests.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// A writer opened with the snapshot magic and version header.
    pub fn with_header() -> Self {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w
    }

    /// Consumes the writer, returning the encoded bytes, or the first
    /// length that did not fit its `u32` word.
    pub fn finish(self) -> Result<Vec<u8>, SnapError> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.buf),
        }
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

    /// Writes a collection length as a `u32` through [`u32_len`]. A length
    /// that does not fit is recorded and fails [`SnapWriter::finish`].
    pub fn count(&mut self, n: usize) {
        match u32_len(n, "collection longer than u32::MAX") {
            Ok(n) => self.u32(n),
            Err(e) => {
                self.err.get_or_insert(e);
                self.u32(u32::MAX);
            }
        }
    }

    /// Writes `v` through its [`Snap`] codec.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }

    /// Writes a counted sequence of values.
    fn seq<'a, T: Snap + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.count(items.len());
        for v in items {
            v.save(self);
        }
    }

    /// Writes the fingerprint of `cfg`'s `Debug` render; the matching
    /// [`SnapReader::fingerprint`] rejects a restore into a differently
    /// configured component.
    pub fn fingerprint(&mut self, cfg: &impl std::fmt::Debug) {
        self.u64(fingerprint_of(cfg));
    }

    /// Writes a length-prefixed section produced by `f`, followed by the
    /// FNV-1a checksum of its body, so readers can sub-scope it and detect
    /// any corruption inside it.
    pub fn section<F: FnOnce(&mut SnapWriter)>(&mut self, f: F) {
        let at = self.buf.len();
        self.u32(0);
        f(self);
        let body = at + 4;
        let len = self.buf.len() - body;
        let word = match u32_len(len, "section longer than u32::MAX") {
            Ok(n) => n,
            Err(e) => {
                self.err.get_or_insert(e);
                u32::MAX
            }
        };
        self.buf[at..body].copy_from_slice(&word.to_le_bytes());
        let sum = Fnv1a::new().mix_bytes(&self.buf[body..]).finish();
        self.u64(sum);
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` element count for a collection whose elements each
    /// take at least `min_elem_bytes` (at least one) on the wire. A count
    /// the remaining bytes cannot hold is `Corrupt`, so a decoded length
    /// never sizes an allocation beyond what the input could fill.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Corrupt("element count exceeds input"));
        }
        Ok(n)
    }

    /// Reads a `T` through its [`Snap`] codec.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// Checks a fingerprint written by [`SnapWriter::fingerprint`] against
    /// `cfg`'s.
    pub fn fingerprint(&mut self, cfg: &impl std::fmt::Debug) -> Result<(), SnapError> {
        let expected = fingerprint_of(cfg);
        let found = self.u64()?;
        if found != expected {
            return Err(SnapError::ConfigMismatch { expected, found });
        }
        Ok(())
    }

    /// Reads a section written by [`SnapWriter::section`], verifies its
    /// checksum, and returns a sub-reader scoped to its body.
    pub fn section(&mut self) -> Result<SnapReader<'a>, SnapError> {
        let len = self.u32()? as usize;
        let body = self.take(len)?;
        if self.u64()? != Fnv1a::new().mix_bytes(body).finish() {
            return Err(SnapError::Checksum);
        }
        Ok(SnapReader::new(body))
    }

    /// Reads a section and decodes it with `f`, which must consume the
    /// whole body.
    pub fn section_with<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let mut s = self.section()?;
        let out = f(&mut s)?;
        s.expect_end()?;
        Ok(out)
    }

    /// Errors unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// Codecs of the primitives and standard containers.
// ---------------------------------------------------------------------------

macro_rules! snap_le_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn save(&self, w: &mut SnapWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

snap_le_int!(u8, u32, u64);

/// `usize` travels as a `u64`.
impl Snap for usize {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }
}

/// An `f64` travels as its IEEE-754 bit pattern (NaN payloads and
/// infinities round-trip exactly).
impl Snap for f64 {
    const MIN_BYTES: usize = 8;
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

/// A bool is one byte, strictly 0 or 1.
impl Snap for bool {
    const MIN_BYTES: usize = 1;
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }
}

fn save_str(w: &mut SnapWriter, s: &str) {
    w.count(s.len());
    w.buf.extend_from_slice(s.as_bytes());
}

fn str_bytes<'a>(r: &mut SnapReader<'a>) -> Result<&'a str, SnapError> {
    let len = r.u32()? as usize;
    std::str::from_utf8(r.take(len)?).map_err(|_| SnapError::Corrupt("invalid utf-8"))
}

/// A string is a `u32` byte length and its UTF-8 bytes.
impl Snap for String {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        save_str(w, self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(str_bytes(r)?.to_owned())
    }
}

/// Same bytes as `String`; loading interns the key (see [`intern`]).
impl Snap for &'static str {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        save_str(w, self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(intern(str_bytes(r)?))
    }
}

/// A presence byte, then the value.
impl<T: Snap> Snap for Option<T> {
    const MIN_BYTES: usize = 1;
    fn save(&self, w: &mut SnapWriter) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if bool::load(r)? {
            Some(T::load(r)?)
        } else {
            None
        })
    }
}

impl<T: Snap> Snap for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

/// A fixed-size array is its elements, with no length word.
impl<T: Snap, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = (0..N).map(|_| T::load(r)).collect::<Result<Vec<T>, _>>()?;
        v.try_into().map_err(|_| SnapError::Corrupt("array length"))
    }
}

/// A `u32` count, then the elements in order.
impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count(T::MIN_BYTES)?;
        (0..n).map(|_| T::load(r)).collect()
    }
}

/// Same bytes as `Vec`, front to back.
impl<T: Snap> Snap for VecDeque<T> {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count(T::MIN_BYTES)?;
        (0..n).map(|_| T::load(r)).collect()
    }
}

/// A `u32` count, then the keys in ascending order; a repeated key is
/// corrupt.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            if !out.insert(T::load(r)?) {
                return Err(SnapError::Corrupt("duplicate set key"));
            }
        }
        Ok(out)
    }
}

fn save_entries<'a, K: Snap + 'a, V: Snap + 'a>(
    w: &mut SnapWriter,
    n: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    w.count(n);
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

fn load_entries<K: Snap, V: Snap>(
    r: &mut SnapReader<'_>,
    mut insert: impl FnMut(K, V) -> bool,
) -> Result<(), SnapError> {
    let n = r.count(K::MIN_BYTES + V::MIN_BYTES)?;
    for _ in 0..n {
        let k = K::load(r)?;
        if !insert(k, V::load(r)?) {
            return Err(SnapError::Corrupt("duplicate map key"));
        }
    }
    Ok(())
}

/// A `u32` count, then `(key, value)` pairs in ascending key order; a
/// repeated key is corrupt.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        save_entries(w, self.len(), self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = BTreeMap::new();
        load_entries(r, |k, v| out.insert(k, v).is_none())?;
        Ok(out)
    }
}

/// Same bytes as `BTreeMap`: entries sorted by key, so the stream does not
/// depend on the hash table's layout. Only maps that are never iterated
/// in hash order may use it — the restored table's layout differs.
impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        save_entries(w, entries.len(), entries.into_iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = HashMap::default();
        load_entries(r, |k, v| out.insert(k, v).is_none())?;
        Ok(out)
    }
}

macro_rules! snap_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn save(&self, w: &mut SnapWriter) {
                $(self.$i.save(w);)+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A.0, B.1);
snap_tuple!(A.0, B.1, C.2);

/// Restores each element in place; the element count is configuration and
/// must match.
impl<T: SnapFields> SnapFields for Vec<T> {
    fn save_fields(&self, w: &mut SnapWriter) {
        w.count(self.len());
        for v in self {
            v.save_fields(w);
        }
    }
    fn load_fields(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.count(1)? != self.len() {
            return Err(SnapError::Corrupt("fixed state count mismatch"));
        }
        self.iter_mut().try_for_each(|v| v.load_fields(r))
    }
}

/// A presence byte, then the state in place; presence is configuration
/// and must match.
impl<T: SnapFields> SnapFields for Option<T> {
    fn save_fields(&self, w: &mut SnapWriter) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save_fields(w);
        }
    }
    fn load_fields(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (self, bool::load(r)?) {
            (Some(v), true) => v.load_fields(r),
            (None, false) => Ok(()),
            _ => Err(SnapError::Corrupt("optional state presence mismatch")),
        }
    }
}

impl<T: SnapFields> SnapFields for Box<T> {
    fn save_fields(&self, w: &mut SnapWriter) {
        (**self).save_fields(w);
    }
    fn load_fields(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        (**self).load_fields(r)
    }
}

// ---------------------------------------------------------------------------
// The struct and enum forms.
// ---------------------------------------------------------------------------

/// States a struct's wire layout once, deriving both codec directions.
///
/// - `snap_struct!(Id(u64));` — a newtype travels as its inner value.
/// - `snap_struct!(Ty { a, b, c } check path);` — [`Snap`] for `Ty`: the
///   listed fields in order; `load` builds the struct literal, so every
///   field must be listed. The optional `check` is a
///   `fn(&Ty) -> Result<(), SnapError>` run on the decoded value.
/// - `snap_struct!(in Ty { a, @in b, @fp cfg, c.d } check path);` —
///   [`SnapFields`] for an already-configured `Ty`: unlisted fields are
///   configuration and are kept. A plain field loads through [`Snap`],
///   `@in` restores a [`SnapFields`] field in place, `@fp` writes (and
///   checks) the fingerprint of the field's `Debug` render, and a dotted
///   path reaches a nested field. The optional `check` is a
///   `fn(&mut Ty) -> Result<(), SnapError>` run after loading; it may
///   also recompute derived fields. `in [generics] Ty<..> { .. }` covers
///   generic types.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident ( $inner:ty )) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize = <$inner as $crate::snap::Snap>::MIN_BYTES;
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $crate::snap::Snap::save(&self.0, w);
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok($ty(<$inner as $crate::snap::Snap>::load(r)?))
            }
        }
    };
    (in $ty:ident { $($fields:tt)* } $(check $check:expr)?) => {
        $crate::snap_struct!(in [] $ty { $($fields)* } $(check $check)?);
    };
    (in [$($gen:tt)*] $ty:ty {
        $( $(@$mode:ident)? $($f:ident).+ ),* $(,)?
    } $(check $check:expr)?) => {
        impl<$($gen)*> $crate::snap::SnapFields for $ty {
            fn save_fields(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap_struct!(@save self w [$($mode)?] $($f).+); )*
            }
            fn load_fields(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                $( $crate::snap_struct!(@load self r [$($mode)?] $($f).+); )*
                $( ($check)(self)?; )?
                Ok(())
            }
        }
    };
    (@save $s:ident $w:ident [] $($f:ident).+) => {
        $crate::snap::Snap::save(&$s.$($f).+, $w)
    };
    (@save $s:ident $w:ident [in] $($f:ident).+) => {
        $crate::snap::SnapFields::save_fields(&$s.$($f).+, $w)
    };
    (@save $s:ident $w:ident [fp] $($f:ident).+) => {
        $w.fingerprint(&$s.$($f).+)
    };
    (@load $s:ident $r:ident [] $($f:ident).+) => {
        $s.$($f).+ = $crate::snap::Snap::load($r)?
    };
    (@load $s:ident $r:ident [in] $($f:ident).+) => {
        $crate::snap::SnapFields::load_fields(&mut $s.$($f).+, $r)?
    };
    (@load $s:ident $r:ident [fp] $($f:ident).+) => {
        $r.fingerprint(&$s.$($f).+)?
    };
    ($ty:ident { $($f:ident),* $(,)? } $(check $check:expr)?) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize =
                0 $(+ $crate::snap::min_bytes_of(|s: &$ty| &s.$f))*;
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::save(&self.$f, w); )*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                let v = $ty { $( $f: $crate::snap::Snap::load(r)?, )* };
                $( ($check)(&v)?; )?
                Ok(v)
            }
        }
    };
}

/// States an enum's wire layout once as a variant table: a `u8` tag, then
/// the variant's named fields in the listed order. Unit variants list no
/// fields. An unknown tag is [`SnapError::Corrupt`].
///
/// ```ignore
/// snap_enum!(Shape { 0 => Empty, 1 => Circle { r }, 2 => Rect { w, h } });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $( $tag:literal => $variant:ident $({ $($f:ident),* $(,)? })? ),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            const MIN_BYTES: usize = 1;
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $( $ty::$variant $({ $($f),* })? => {
                        w.u8($tag);
                        $($( $crate::snap::Snap::save($f, w); )*)?
                    } )+
                }
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $( $tag => $ty::$variant $({ $($f: $crate::snap::Snap::load(r)?),* })?, )+
                    _ => {
                        return Err($crate::snap::SnapError::Corrupt(concat!(
                            "unknown ",
                            stringify!($ty),
                            " tag"
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        f(&mut w);
        w.finish().unwrap()
    }

    #[test]
    fn primitives_round_trip() {
        let bytes = bytes_of(|w| {
            w.put(&7u8);
            w.put(&0xDEAD_BEEFu32);
            w.put(&(u64::MAX - 1));
            w.put(&12345usize);
            w.put(&f64::INFINITY);
            w.put(&-0.0f64);
            w.put(&true);
            w.put(&String::from("hello κόσμος"));
            w.put(&vec![1u8, 2, 3]);
        });
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 1);
        assert_eq!(r.get::<usize>().unwrap(), 12345);
        assert_eq!(r.get::<f64>().unwrap(), f64::INFINITY);
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<String>().unwrap(), "hello κόσμος");
        assert_eq!(r.get::<Vec<u8>>().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        let mut m: HashMap<u64, (u8, f64)> = HashMap::new();
        m.insert(9, (1, 0.5));
        m.insert(2, (0, -1.0));
        let set: BTreeSet<u32> = [5, 1, 3].into_iter().collect();
        let dq: VecDeque<Option<u64>> = [Some(4), None].into_iter().collect();
        let arr = [[1u32, 2], [3, 4]];
        let bytes = bytes_of(|w| {
            w.put(&m);
            w.put(&set);
            w.put(&dq);
            w.put(&arr);
            w.put(&Box::new("gauge"));
        });
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<HashMap<u64, (u8, f64)>>().unwrap(), m);
        assert_eq!(r.get::<BTreeSet<u32>>().unwrap(), set);
        assert_eq!(r.get::<VecDeque<Option<u64>>>().unwrap(), dq);
        assert_eq!(r.get::<[[u32; 2]; 2]>().unwrap(), arr);
        assert!(std::ptr::eq(
            *r.get::<Box<&'static str>>().unwrap(),
            intern("gauge")
        ));
        r.expect_end().unwrap();
    }

    #[test]
    fn hash_maps_serialize_in_key_order() {
        let a: HashMap<u64, u8> = (0..50).map(|i| (i, i as u8)).collect();
        let b: HashMap<u64, u8> = (0..50).rev().map(|i| (i, i as u8)).collect();
        assert_eq!(bytes_of(|w| w.put(&a)), bytes_of(|w| w.put(&b)));
    }

    #[test]
    fn duplicate_keys_are_corrupt() {
        let bytes = bytes_of(|w| w.put(&vec![(1u64, 2u8), (1, 3)]));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.get::<BTreeMap<u64, u8>>().unwrap_err(),
            SnapError::Corrupt("duplicate map key")
        );
        let bytes = bytes_of(|w| w.put(&vec![4u32, 4]));
        let mut r = SnapReader::new(&bytes);
        assert!(r.get::<BTreeSet<u32>>().is_err());
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
        let bytes = w.finish().unwrap();
        assert_eq!(
            SnapReader::with_header(&bytes).unwrap_err(),
            SnapError::BadVersion(SNAP_VERSION + 9)
        );
        let ok = SnapWriter::with_header().finish().unwrap();
        SnapReader::with_header(&ok).unwrap().expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = bytes_of(|w| w.u64(42));
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn counts_beyond_the_input_are_corrupt() {
        let bytes = bytes_of(|w| {
            w.u32(2);
            w.u64(1);
            w.u64(2);
            w.u32(3);
            w.u64(1);
        });
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![1, 2]);
        assert_eq!(
            r.get::<Vec<u64>>().unwrap_err(),
            SnapError::Corrupt("element count exceeds input")
        );
        let mut r = SnapReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.count(usize::MAX).is_err());
        let mut r = SnapReader::new(&[0, 0, 0, 0]);
        assert_eq!(r.count(usize::MAX).unwrap(), 0);
        // A zero minimum still bounds the count by the input length.
        let mut r = SnapReader::new(&[0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(r.count(0).is_err());
    }

    #[test]
    fn over_long_lengths_fail_the_writer() {
        assert_eq!(u32_len(5000, "x").unwrap(), 5000);
        assert_eq!(u32_len(u32::MAX as usize, "x").unwrap(), u32::MAX);
        assert_eq!(
            u32_len(u32::MAX as usize + 1, "too deep"),
            Err(SnapError::Corrupt("too deep"))
        );
        let mut w = SnapWriter::new();
        w.count(u32::MAX as usize + 1);
        assert!(matches!(w.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn sections_nest_scope_and_checksum() {
        let bytes = bytes_of(|w| {
            w.section(|w| {
                w.u64(1);
                w.section(|w| w.put(&String::from("inner")));
            });
            w.u8(9);
        });
        let mut r = SnapReader::new(&bytes);
        r.section_with(|s| {
            assert_eq!(s.u64()?, 1);
            assert_eq!(s.section_with(|i| i.get::<String>())?, "inner");
            Ok(())
        })
        .unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        r.expect_end().unwrap();
        // Any single-bit flip inside the section is caught.
        for byte in 4..bytes.len() - 1 {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let mut r = SnapReader::new(&bad);
                assert!(r.section().is_err(), "flip at {byte}.{bit} accepted");
            }
        }
    }

    #[test]
    fn fingerprints_bind_configs() {
        let bytes = bytes_of(|w| w.fingerprint(&("cfg", 1u32)));
        SnapReader::new(&bytes).fingerprint(&("cfg", 1u32)).unwrap();
        assert!(matches!(
            SnapReader::new(&bytes).fingerprint(&("cfg", 2u32)),
            Err(SnapError::ConfigMismatch { .. })
        ));
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: Vec<u8>,
    }
    snap_struct!(Pair { a, b } check |p: &Pair| if p.a > 100 {
        Err(SnapError::Corrupt("pair a"))
    } else {
        Ok(())
    });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Rect { w: u32, h: u32 },
    }
    snap_enum!(Shape { 0 => Empty, 1 => Rect { w, h } });

    #[test]
    fn struct_and_enum_forms_round_trip_and_check() {
        assert_eq!(Pair::MIN_BYTES, 12);
        let p = Pair { a: 5, b: vec![1] };
        let shapes = vec![Shape::Empty, Shape::Rect { w: 2, h: 3 }];
        let bytes = bytes_of(|w| {
            w.put(&p);
            w.put(&shapes);
        });
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Pair>().unwrap(), p);
        assert_eq!(r.get::<Vec<Shape>>().unwrap(), shapes);
        let bad = bytes_of(|w| w.put(&Pair { a: 101, b: vec![] }));
        assert_eq!(
            SnapReader::new(&bad).get::<Pair>().unwrap_err(),
            SnapError::Corrupt("pair a")
        );
        assert_eq!(
            SnapReader::new(&[7]).get::<Shape>().unwrap_err(),
            SnapError::Corrupt("unknown Shape tag")
        );
    }

    #[test]
    fn intern_is_stable() {
        let a = intern("gauge_key_x");
        let b = intern(&String::from("gauge_key_x"));
        assert!(std::ptr::eq(a, b));
    }
}
