//! Streaming 64-bit FNV-1a.
//!
//! One hash serves two jobs: deriving stable coordinate seeds (sweep
//! cells, shard salts) and checksumming snapshot sections. It is
//! dependency-free and byte-order-exact, so digests are stable across
//! hosts and runs.

/// 64-bit FNV-1a offset basis.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a hasher for deriving coordinate seeds.
///
/// Byte-wise xor-then-multiply, identical to the classic reference
/// algorithm; the builder-style `mix_*` methods make call sites read as a
/// list of coordinates. The digest depends on the exact byte stream, so
/// callers must keep field order and integer widths stable to preserve
/// historical seed values.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a new stream at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv1a(FNV1A_BASIS)
    }

    /// Folds raw bytes into the stream.
    #[inline]
    pub fn mix_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV1A_PRIME);
        }
        self
    }

    /// Folds a `u64` coordinate (little-endian bytes) into the stream.
    #[inline]
    pub fn mix_u64(self, v: u64) -> Self {
        self.mix_bytes(&v.to_le_bytes())
    }

    /// Folds a `u32` coordinate (little-endian bytes) into the stream.
    #[inline]
    pub fn mix_u32(self, v: u32) -> Self {
        self.mix_bytes(&v.to_le_bytes())
    }

    /// Folds a string coordinate (UTF-8 bytes, no terminator) into the
    /// stream.
    #[inline]
    pub fn mix_str(self, s: &str) -> Self {
        self.mix_bytes(s.as_bytes())
    }

    /// Returns the current digest.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Classic FNV-1a test vectors (64-bit).
        assert_eq!(Fnv1a::new().finish(), FNV1A_BASIS);
        assert_eq!(Fnv1a::new().mix_str("a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::new().mix_str("foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_mix_u64_equals_le_bytes() {
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(
            Fnv1a::new().mix_u64(v).finish(),
            Fnv1a::new().mix_bytes(&v.to_le_bytes()).finish()
        );
    }
}
