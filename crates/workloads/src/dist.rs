//! Access-frequency distributions.
//!
//! Page accesses in real applications are heavily non-linear — "often
//! exponential, e.g. Zipf or Pareto" (§4.1.3) — which is why MEMTIS organizes
//! its histogram bins on an exponential scale. The workload generators draw
//! from the same families.

use rand::Rng;

/// Zipf(s) sampler over ranks `0..n` (rank 0 is the hottest).
///
/// Uses a precomputed CDF with binary search: exact, deterministic given the
/// RNG, and fast enough for multi-million-access streams.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

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
        ZipfTable { cdf }
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
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u64
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
    fn zipf_skew_grows_with_s() {
        let flat = ZipfTable::new(1000, 0.2);
        let steep = ZipfTable::new(1000, 1.2);
        assert!(steep.pmf(0) > flat.pmf(0) * 5.0);
    }
}
