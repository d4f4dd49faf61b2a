//! Access-frequency distributions.
//!
//! Page accesses in real applications are heavily non-linear — "often
//! exponential, e.g. Zipf or Pareto" (§4.1.3) — which is why MEMTIS organizes
//! its histogram bins on an exponential scale. The workload generators draw
//! from the same families.

use rand::Rng;

/// Zipf(s) sampler over ranks `0..n` (rank 0 is the hottest).
///
/// Inverts a precomputed CDF: exact and deterministic given the RNG. A guide
/// table over `2^bits` equal slices of `[0, 1)` narrows each search to the
/// contiguous ranks whose CDF values fall in the drawn `u`'s slice, instead
/// of a cache-missing binary search over the whole CDF, and returns exactly
/// the rank the full search would.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    /// `guide[b]` = number of CDF values below `b / 2^bits`, for
    /// `b = 0..=2^bits`.
    guide: Vec<u32>,
    bits: u32,
}

/// Guide-table resolution cap: at most `2^14 + 1` entries (64 KiB) per table.
const MAX_GUIDE_BITS: u32 = 14;

impl ZipfTable {
    /// Builds the table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // One bucket per rank up to the cap, so small tables stay small.
        let bits = n.next_power_of_two().trailing_zeros().min(MAX_GUIDE_BITS);
        let scale = (1u64 << bits) as f64;
        let guide = (0..=1u64 << bits)
            .map(|b| {
                let edge = b as f64 / scale;
                u32::try_from(cdf.partition_point(|&c| c < edge)).expect("zipf ranks fit u32")
            })
            .collect();
        ZipfTable { cdf, guide, bits }
    }

    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rank_of(rng.gen())
    }

    /// The rank `u ∈ [0, 1)` inverts to: `cdf.partition_point(|c| c < u)`.
    ///
    /// Scaling `u` by `2^bits` is exact, so `b / 2^bits <= u < (b + 1) /
    /// 2^bits` for `b = floor(u * 2^bits)`; the CDF is non-decreasing, so the
    /// full search's answer lies in `guide[b]..=guide[b + 1]` and searching
    /// that slice alone returns it.
    #[inline]
    fn rank_of(&self, u: f64) -> u64 {
        debug_assert!((0.0..1.0).contains(&u), "zipf draw {u} outside [0, 1)");
        let b = (u * (1u64 << self.bits) as f64) as usize;
        let lo = self.guide[b] as usize;
        let hi = self.guide[b + 1] as usize;
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        let k = k as usize;
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_mass_sums_to_one() {
        let z = ZipfTable::new(100, 0.99);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = ZipfTable::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should get close to its theoretical share.
        let expect0 = z.pmf(0) * n as f64;
        assert!((counts[0] as f64 - expect0).abs() / expect0 < 0.05);
        // Monotone-ish head.
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[40]);
    }

    #[test]
    fn guide_table_inverts_exactly_like_the_full_search() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let largest_below_one = next_down(1.0);
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1u64, 2, 3, 100, (1 << 14) - 1, (1 << 14) + 1, 200_000] {
            for s in [0.3, 0.8, 0.99, 1.15] {
                let z = ZipfTable::new(n, s);
                let full = |u: f64| z.cdf.partition_point(|&c| c < u) as u64;
                let check = |u: f64| {
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(z.rank_of(u), full(u), "n={n} s={s} u={u:e}");
                    }
                };
                assert_eq!(z.guide.len(), (1 << z.bits) + 1);
                assert!(z.bits <= MAX_GUIDE_BITS);
                for b in 0..=1u64 << z.bits {
                    let edge = b as f64 / (1u64 << z.bits) as f64;
                    check(edge);
                    check(next_up(edge));
                    if edge > 0.0 {
                        check(next_down(edge));
                    }
                }
                check(largest_below_one);
                for _ in 0..100_000 {
                    check(rng.gen());
                }
            }
        }
    }

    #[test]
    fn zipf_skew_grows_with_s() {
        let flat = ZipfTable::new(1000, 0.2);
        let steep = ZipfTable::new(1000, 1.2);
        assert!(steep.pmf(0) > flat.pmf(0) * 5.0);
    }
}
