//! Deterministic collection aliases and seed-derivation helpers.
//!
//! The simulator guarantees bit-identical results for identical seeds, but
//! `std::collections::HashMap`'s default hasher is randomly keyed per
//! process, which leaks into any code that *iterates* a map (cooling walks,
//! victim scans). These aliases pin the hasher to a fixed-key SipHash so
//! iteration order is stable across runs.
//!
//! [`Fnv1a`] is the shared coordinate-seed hash: every place that derives a
//! per-cell / per-case / per-shard RNG seed from a tuple of coordinates
//! (sweep cells, scaling-bench cases, shard salts) folds the coordinates
//! through the same 64-bit FNV-1a stream so seeds are stable, well mixed,
//! and independent of declaration order elsewhere. It lives in
//! `memtis-obs` (the snapshot codec checksums sections with it) and is
//! re-exported here.

use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

pub use memtis_obs::fnv::{Fnv1a, FNV1A_BASIS, FNV1A_PRIME};

/// Fixed-shape pairwise ("tree") reduction of `f64` partials.
///
/// Floating-point addition is not associative, so a fold over partials must
/// pin *one* summation shape to stay deterministic. This halves the slice
/// recursively — `(sum of first half) + (sum of second half)`, splitting at
/// `len/2` — so the result depends only on the values and their order,
/// never on how the partials were grouped. The sharded coordinator merges
/// its 64 per-lane latency partials through this (the lane count is fixed,
/// so the shape is too), making the folded clock shard-count-invariant.
pub fn tree_fold_f64(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        1 => xs[0],
        n => {
            let mid = n / 2;
            tree_fold_f64(&xs[..mid]) + tree_fold_f64(&xs[mid..])
        }
    }
}

/// A `HashMap` with a deterministic (fixed-key) hasher.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A `HashSet` with a deterministic (fixed-key) hasher.
pub type DetHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<DefaultHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_stable() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 7919 % 997, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn tree_fold_shape_is_fixed() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64) * 0.1 + 1e12).collect();
        // The shape depends only on the slice, so repeated folds agree
        // bit-for-bit, and a manual two-level split reproduces it.
        let a = tree_fold_f64(&xs);
        let b = tree_fold_f64(&xs[..32]) + tree_fold_f64(&xs[32..]);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(tree_fold_f64(&[]), 0.0);
        assert_eq!(tree_fold_f64(&[7.5]), 7.5);
    }
}
