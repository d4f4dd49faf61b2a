//! The page-access histogram (§4.1.3).
//!
//! Sixteen bins on an exponential scale: bin `n` covers hotness factors
//! `[2^n, 2^(n+1))`, the last bin is unbounded. Each bin counts distinct
//! pages at 4 KiB granularity (a huge page contributes 512). The exponential
//! scale matches the Zipf/Pareto nature of page accesses, keeps the structure
//! tiny (16 × 8-byte counters), and makes cooling — halving every hotness
//! factor — a one-bin left shift.

/// Number of bins.
pub const NUM_BINS: usize = 16;
/// Highest bin index.
pub const MAX_BIN: usize = NUM_BINS - 1;

/// Returns the bin index for a hotness factor.
///
/// Hotness 0 and 1 both land in bin 0; values ≥ 2^15 land in the unbounded
/// top bin.
#[inline]
pub fn bin_of(hotness: u64) -> usize {
    if hotness <= 1 {
        0
    } else {
        ((63 - hotness.leading_zeros()) as usize).min(MAX_BIN)
    }
}

/// A 16-bin exponential access histogram counting 4 KiB-granule pages.
#[derive(Debug, Clone, Default)]
pub struct AccessHistogram {
    bins: [u64; NUM_BINS],
    underflows: u64,
}

impl AccessHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw bin counters.
    pub fn bins(&self) -> &[u64; NUM_BINS] {
        &self.bins
    }

    /// Pages (4 KiB units) in bin `b`.
    pub fn pages_in(&self, b: usize) -> u64 {
        self.bins[b]
    }

    /// Bytes represented by bin `b`.
    pub fn bytes_in(&self, b: usize) -> u64 {
        self.bins[b] * 4096
    }

    /// Total tracked pages (4 KiB units).
    pub fn total_pages(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Adds `pages_4k` pages to bin `b`.
    #[inline]
    pub fn add(&mut self, b: usize, pages_4k: u64) {
        self.bins[b] += pages_4k;
    }

    /// Removes `pages_4k` pages from bin `b`.
    ///
    /// An attempted removal beyond the bin's count means the caller's page
    /// metadata went out of sync with the histogram. This used to saturate
    /// silently in release builds (and panic only in debug), masking the
    /// corruption; now every underflowed page is tallied in
    /// [`AccessHistogram::underflows`] identically in all build profiles so
    /// callers can surface the desync instead of hiding it.
    #[inline]
    pub fn remove(&mut self, b: usize, pages_4k: u64) {
        if self.bins[b] < pages_4k {
            self.underflows += pages_4k - self.bins[b];
            self.bins[b] = 0;
        } else {
            self.bins[b] -= pages_4k;
        }
    }

    /// Total pages (4 KiB units) that `remove()` was asked to take out of
    /// bins that did not hold them. Zero on healthy runs.
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Moves `pages_4k` pages from bin `from` to bin `to` (no-op if equal).
    #[inline]
    pub fn move_pages(&mut self, from: usize, to: usize, pages_4k: u64) {
        if from != to {
            self.remove(from, pages_4k);
            self.add(to, pages_4k);
        }
    }

    /// Applies net per-bin page movements: every negative entry is removed
    /// from its bin, then every positive one added. Equals the individual
    /// [`AccessHistogram::move_pages`] calls the deltas sum when none of
    /// those would underflow.
    pub(crate) fn apply_deltas(&mut self, delta: &[i64; NUM_BINS]) {
        for (b, &d) in delta.iter().enumerate() {
            if d < 0 {
                self.remove(b, d.unsigned_abs());
            }
        }
        for (b, &d) in delta.iter().enumerate() {
            if d > 0 {
                self.add(b, d as u64);
            }
        }
    }

    /// Cooling: every hotness factor is halved, which on the exponential
    /// scale is a one-bin left shift (§4.2.2). Pages whose halved hotness
    /// still lands in the top bin must be corrected afterwards by the
    /// page-list walk via [`AccessHistogram::move_pages`].
    pub fn cool(&mut self) {
        self.bins[0] += self.bins[1];
        for b in 1..MAX_BIN {
            self.bins[b] = self.bins[b + 1];
        }
        self.bins[MAX_BIN] = 0;
    }

    /// Folds `other` into `self` bin by bin (underflow tallies included).
    /// Used by sharded runs to merge per-shard histogram deltas at epoch
    /// barriers; merge order does not matter because the fold is a plain
    /// sum.
    pub fn merge(&mut self, other: &AccessHistogram) {
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst += src;
        }
        self.underflows += other.underflows;
    }

    /// Pages (4 KiB units) in bins `>= b`.
    pub fn pages_at_or_above(&self, b: usize) -> u64 {
        self.bins[b.min(NUM_BINS)..].iter().sum()
    }

    /// Bytes in bins `>= b` (0 when `b > MAX_BIN`).
    pub fn bytes_at_or_above(&self, b: usize) -> u64 {
        if b > MAX_BIN {
            0
        } else {
            self.pages_at_or_above(b) * 4096
        }
    }
}

memtis_sim::obs::snap_struct!(AccessHistogram { bins, underflows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries_are_powers_of_two() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 0);
        assert_eq!(bin_of(2), 1);
        assert_eq!(bin_of(3), 1);
        assert_eq!(bin_of(4), 2);
        assert_eq!(bin_of(7), 2);
        assert_eq!(bin_of(8), 3);
        assert_eq!(bin_of((1 << 15) - 1), 14);
        assert_eq!(bin_of(1 << 15), 15);
        assert_eq!(bin_of(u64::MAX), 15);
    }

    #[test]
    fn add_move_remove_conserve_totals() {
        let mut h = AccessHistogram::new();
        h.add(3, 100);
        h.add(7, 50);
        assert_eq!(h.total_pages(), 150);
        h.move_pages(3, 4, 40);
        assert_eq!(h.total_pages(), 150);
        assert_eq!(h.pages_in(3), 60);
        assert_eq!(h.pages_in(4), 40);
        h.remove(7, 50);
        assert_eq!(h.total_pages(), 100);
    }

    #[test]
    fn cooling_shifts_left_and_merges_bin_zero() {
        let mut h = AccessHistogram::new();
        h.add(0, 5);
        h.add(1, 7);
        h.add(2, 11);
        h.add(15, 3);
        h.cool();
        // Bin 0 absorbs bin 1 (hotness 1 stays 0 after halving... both land
        // in bin 0); every other bin shifts down one.
        assert_eq!(h.pages_in(0), 12);
        assert_eq!(h.pages_in(1), 11);
        assert_eq!(h.pages_in(14), 3);
        assert_eq!(h.pages_in(15), 0);
        assert_eq!(h.total_pages(), 26);
    }

    #[test]
    fn cooling_matches_halved_bin_assignment() {
        // For every hotness h > 1 outside the top bin: bin(h/2) == bin(h)-1,
        // which is exactly what the shift implements.
        for h in 2u64..(1 << 15) {
            assert_eq!(bin_of(h / 2), bin_of(h).saturating_sub(1), "h={h}");
        }
    }

    #[test]
    fn underflow_is_counted_not_masked() {
        let mut h = AccessHistogram::new();
        h.add(5, 3);
        assert_eq!(h.underflows(), 0);
        // Ask for more pages than the bin holds: the bin empties, and the
        // excess is tallied instead of silently saturating away.
        h.remove(5, 10);
        assert_eq!(h.pages_in(5), 0);
        assert_eq!(h.underflows(), 7);
        // Removing from an empty bin counts the full amount.
        h.remove(0, 2);
        assert_eq!(h.underflows(), 9);
        // Healthy removals never move the counter.
        h.add(1, 4);
        h.remove(1, 4);
        assert_eq!(h.underflows(), 9);
    }

    #[test]
    fn merge_sums_bins_and_underflows() {
        let mut a = AccessHistogram::new();
        a.add(2, 5);
        a.add(15, 1);
        a.remove(0, 3); // underflow: 3
        let mut b = AccessHistogram::new();
        b.add(2, 7);
        b.add(9, 2);
        b.remove(1, 4); // underflow: 4
        a.merge(&b);
        assert_eq!(a.pages_in(2), 12);
        assert_eq!(a.pages_in(9), 2);
        assert_eq!(a.pages_in(15), 1);
        assert_eq!(a.total_pages(), 15);
        assert_eq!(a.underflows(), 7);
    }

    #[test]
    fn snapshot_roundtrip_preserves_bins_and_underflows() {
        let mut h = AccessHistogram::new();
        h.add(2, 5);
        h.add(15, 9);
        h.remove(0, 3); // underflow: 3
        let mut w = memtis_sim::obs::SnapWriter::new();
        w.put(&h);
        let bytes = w.finish().unwrap();
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        let back: AccessHistogram = r.get().unwrap();
        assert_eq!(back.bins(), h.bins());
        assert_eq!(back.underflows(), 3);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn suffix_sums() {
        let mut h = AccessHistogram::new();
        h.add(14, 10);
        h.add(15, 20);
        h.add(2, 5);
        assert_eq!(h.pages_at_or_above(14), 30);
        assert_eq!(h.pages_at_or_above(16), 0);
        assert_eq!(h.bytes_at_or_above(15), 20 * 4096);
        assert_eq!(h.bytes_at_or_above(16), 0);
        assert_eq!(h.pages_at_or_above(0), 35);
    }
}
