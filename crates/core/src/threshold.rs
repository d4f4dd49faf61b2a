//! Dynamic threshold adaptation — the paper's Algorithm 1 (§4.2.1).
//!
//! Walk the histogram top-down, accumulating bins while they still fit in
//! the fast tier; `T_hot` is the first bin index that no longer fits, plus
//! one. If the identified hot set fills at least `α` (0.9) of the fast tier,
//! the warm threshold equals the hot threshold; otherwise a warm band one
//! bin below the hot threshold shields near-hot pages from demotion,
//! avoiding ping-pong migration traffic. `T_cold` sits one bin below
//! `T_warm`.

use crate::histogram::{AccessHistogram, MAX_BIN};

/// The three classification thresholds, as histogram bin indices.
///
/// A page with bin index `B` is *hot* when `B >= hot`, *cold* when
/// `B <= cold`, and *warm* in between. `hot` may be `MAX_BIN + 1` when even
/// the top bin alone overflows the fast tier (then no page classifies as
/// hot — the bins cannot be subdivided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Hot threshold `T_hot`.
    pub hot: usize,
    /// Warm threshold `T_warm`.
    pub warm: usize,
    /// Cold threshold `T_cold` (0 means bin 0 is cold).
    pub cold: usize,
    /// Size (bytes) of the identified hot set at adaptation time.
    pub hot_set_bytes: u64,
}

memtis_sim::obs::snap_struct!(Thresholds {
    hot,
    warm,
    cold,
    hot_set_bytes,
});

impl Default for Thresholds {
    /// Initial values: `T_hot = 1`, `T_warm = 1`, `T_cold = 0` (§4.2.1).
    fn default() -> Self {
        Thresholds {
            hot: 1,
            warm: 1,
            cold: 0,
            hot_set_bytes: 0,
        }
    }
}

impl Thresholds {
    /// Classification helper: is bin `b` hot?
    #[inline]
    pub fn is_hot(&self, b: usize) -> bool {
        b >= self.hot
    }

    /// Classification helper: is bin `b` cold?
    #[inline]
    pub fn is_cold(&self, b: usize) -> bool {
        b <= self.cold && !self.is_hot(b)
    }

    /// Classification helper: is bin `b` warm (neither hot nor cold)?
    #[inline]
    pub fn is_warm(&self, b: usize) -> bool {
        !self.is_hot(b) && !self.is_cold(b)
    }
}

/// Runs Algorithm 1 over `hist` for a fast tier of `fast_bytes` capacity.
///
/// `alpha` is the fill-ratio knob (paper: 0.9). When `warm_set` is false the
/// warm band is disabled (`T_warm = T_hot`) regardless of fill — used by the
/// Fig. 10 ablation.
pub fn adapt(hist: &AccessHistogram, fast_bytes: u64, alpha: f64, warm_set: bool) -> Thresholds {
    // Lines 1–6: expand the hot set downward from the top bin while it fits.
    let mut s: u64 = 0;
    let mut b: isize = MAX_BIN as isize;
    while b > 0 && s + hist.bytes_in(b as usize) <= fast_bytes {
        s += hist.bytes_in(b as usize);
        b -= 1;
    }
    let hot = (b + 1) as usize;

    // Lines 7–11: the warm band exists only when the identified hot set
    // leaves a meaningful fraction of the fast tier unfilled.
    let warm = if !warm_set || s as f64 >= fast_bytes as f64 * alpha {
        hot
    } else {
        hot.saturating_sub(1)
    };
    // Line 12.
    let cold = warm.saturating_sub(1);
    Thresholds {
        hot,
        warm,
        cold,
        hot_set_bytes: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(pairs: &[(usize, u64)]) -> AccessHistogram {
        let mut h = AccessHistogram::new();
        for &(b, pages) in pairs {
            h.add(b, pages);
        }
        h
    }

    const PAGE: u64 = 4096;

    #[test]
    fn hot_set_fills_fast_tier() {
        // Fast tier: 100 pages. Bins: 15 -> 60 pages, 14 -> 30, 13 -> 50.
        let h = hist(&[(15, 60), (14, 30), (13, 50)]);
        let t = adapt(&h, 100 * PAGE, 0.9, true);
        // 60 + 30 fit; adding bin 13 (50) would overflow.
        assert_eq!(t.hot, 14);
        assert_eq!(t.hot_set_bytes, 90 * PAGE);
        // 90 >= 0.9 * 100: hot set close enough, no warm band.
        assert_eq!(t.warm, 14);
        assert_eq!(t.cold, 13);
    }

    #[test]
    fn warm_band_appears_when_hot_set_is_small() {
        // Bin 15 has 50 pages, bin 14 has 200: only bin 15 fits in 100.
        let h = hist(&[(15, 50), (14, 200), (10, 1000)]);
        let t = adapt(&h, 100 * PAGE, 0.9, true);
        assert_eq!(t.hot, 15);
        assert_eq!(t.hot_set_bytes, 50 * PAGE);
        // 50 < 90: warm threshold drops one bin to shield near-hot pages.
        assert_eq!(t.warm, 14);
        assert_eq!(t.cold, 13);
        assert!(t.is_hot(15));
        assert!(t.is_warm(14));
        assert!(t.is_cold(13));
        assert!(t.is_cold(0));
    }

    #[test]
    fn warm_set_disabled_forces_warm_equals_hot() {
        let h = hist(&[(15, 50), (14, 200)]);
        let t = adapt(&h, 100 * PAGE, 0.9, false);
        assert_eq!(t.warm, t.hot);
        assert_eq!(t.cold, t.hot - 1);
    }

    #[test]
    fn top_bin_alone_overflowing_yields_no_hot_pages() {
        let h = hist(&[(15, 500)]);
        let t = adapt(&h, 100 * PAGE, 0.9, true);
        assert_eq!(t.hot, MAX_BIN + 1);
        assert_eq!(t.hot_set_bytes, 0);
        // No bin classifies as hot.
        assert!(!t.is_hot(15));
        assert!(t.is_warm(15));
    }

    #[test]
    fn everything_fits_down_to_bin_one() {
        let h = hist(&[(15, 10), (8, 10), (1, 10)]);
        let t = adapt(&h, 1000 * PAGE, 0.9, true);
        // The loop stops at b == 0: bin 0 never classifies as hot.
        assert_eq!(t.hot, 1);
        assert_eq!(t.hot_set_bytes, 30 * PAGE);
        assert!(!t.is_hot(0));
    }

    #[test]
    fn empty_histogram_gives_initial_like_thresholds() {
        let h = AccessHistogram::new();
        let t = adapt(&h, 100 * PAGE, 0.9, true);
        assert_eq!(t.hot, 1);
        // Empty hot set is below alpha: warm band opens (harmless).
        assert_eq!(t.warm, 0);
        assert_eq!(t.cold, 0);
    }

    #[test]
    fn default_matches_paper_initials() {
        let t = Thresholds::default();
        assert_eq!((t.hot, t.warm, t.cold), (1, 1, 0));
    }
}
