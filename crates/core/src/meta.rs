//! Per-page access metadata (§4.1.2, §5).
//!
//! The kernel implementation stores this in unused `struct page` slots of
//! compound pages (huge pages) and in a side table hung off PTE page frames
//! (base pages), bounding memory overhead at 0.195%. Here it lives in a map
//! keyed by virtual page number; the *contents* are identical: the EMA
//! access count `C_i`, and for huge pages a per-subpage count vector that
//! backs both the emulated base-page histogram and the skewness factor.

use crate::histogram::{bin_of, MAX_BIN};
use memtis_sim::prelude::{PageSize, NR_SUBPAGES};

/// Per-subpage metadata of a huge page.
#[derive(Debug, Clone)]
pub struct SubMeta {
    /// Access count per 4 KiB subpage (halved by cooling).
    pub counts: [u32; NR_SUBPAGES as usize],
    /// Current bin of each subpage in the emulated base-page histogram.
    pub bins: [u8; NR_SUBPAGES as usize],
}

impl Default for SubMeta {
    fn default() -> Self {
        SubMeta {
            counts: [0; NR_SUBPAGES as usize],
            bins: [0; NR_SUBPAGES as usize],
        }
    }
}

/// Metadata for one managed page (base page or huge page).
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Mapping size this metadata describes.
    pub size: PageSize,
    /// EMA access count `C_i` (incremented per sample, halved by cooling).
    pub count: u64,
    /// Current bin in the page access histogram.
    pub bin: u8,
    /// Per-subpage metadata (huge pages only).
    pub sub: Option<Box<SubMeta>>,
    /// Benefit-estimation window epoch that last sampled this page (used to
    /// count distinct huge pages per window without a set).
    pub epoch: u32,
    /// Whether the page currently sits on the promotion list.
    pub in_promo: bool,
}

impl PageMeta {
    /// Fresh base-page metadata with the given initial count.
    pub fn new_base(count: u64) -> Self {
        let bin = bin_of(base_hotness(count)) as u8;
        PageMeta {
            size: PageSize::Base,
            count,
            bin,
            sub: None,
            epoch: 0,
            in_promo: false,
        }
    }

    /// Fresh huge-page metadata with the given initial count.
    pub fn new_huge(count: u64) -> Self {
        PageMeta {
            size: PageSize::Huge,
            count,
            bin: bin_of(count) as u8,
            sub: Some(Box::default()),
            epoch: 0,
            in_promo: false,
        }
    }

    /// The hotness factor `H_i` (§4.1.2): the raw count for a huge page,
    /// compensated by `nr_subpages` for a base page.
    #[inline]
    pub fn hotness(&self) -> u64 {
        match self.size {
            PageSize::Huge => self.count,
            PageSize::Base => base_hotness(self.count),
        }
    }

    /// Pages (4 KiB units) this entry contributes to the histogram.
    #[inline]
    pub fn pages_4k(&self) -> u64 {
        match self.size {
            PageSize::Huge => NR_SUBPAGES,
            PageSize::Base => 1,
        }
    }

    /// Utilization factor `U_i`: subpages whose emulated-base-page bin
    /// reaches the base hot threshold (§4.3.2).
    pub fn utilization(&self, base_hot_threshold: usize) -> u32 {
        match &self.sub {
            Some(s) => s
                .bins
                .iter()
                .filter(|&&b| (b as usize) >= base_hot_threshold)
                .count() as u32,
            None => 0,
        }
    }

    /// Skewness factor `S_i = Σ H_ij² / U_i²` (eq. 3). Squaring both the
    /// subpage hotness and the utilization separates "few very hot
    /// subpages" from "uniformly hot" huge pages. Returns `None` for pages
    /// with zero utilization (nothing hot to isolate) or non-huge pages.
    pub fn skewness(&self, base_hot_threshold: usize) -> Option<f64> {
        self.skew_profile(base_hot_threshold).map(|p| p.skewness)
    }

    /// Full per-subpage access profile used for split-candidate selection.
    /// Returns `None` for non-huge pages or when no subpage is hot.
    pub fn skew_profile(&self, base_hot_threshold: usize) -> Option<SkewProfile> {
        let sub = self.sub.as_ref()?;
        let u = self.utilization(base_hot_threshold);
        if u == 0 {
            return None;
        }
        // Branch-free: an untouched subpage adds 0 to every sum (and
        // `x + 0.0 == x` for the never-negative `sum_sq`).
        let mut touched = 0u32;
        let mut max_count = 0u32;
        let mut total = 0u64;
        let mut sum_sq = 0.0f64;
        for &c in sub.counts.iter() {
            touched += (c > 0) as u32;
            total += c as u64;
            max_count = max_count.max(c);
            let h = c as f64;
            sum_sq += h * h;
        }
        Some(SkewProfile {
            utilization: u,
            touched,
            max_count,
            total_count: total,
            skewness: sum_sq / (u as f64 * u as f64),
        })
    }
}

/// Per-subpage access profile of a huge page (split-candidate screening).
#[derive(Debug, Clone, Copy)]
pub struct SkewProfile {
    /// `U_i`: subpages at or above the base hot threshold.
    pub utilization: u32,
    /// Subpages with any recorded access.
    pub touched: u32,
    /// Highest subpage count.
    pub max_count: u32,
    /// Sum of all subpage counts.
    pub total_count: u64,
    /// `S_i` (eq. 3).
    pub skewness: f64,
}

impl SkewProfile {
    /// Whether the profile indicates *persistent* subpage skew rather than
    /// uniform access with sampling noise. Two conditions, both needed:
    ///
    /// - **low utilization**: at most a quarter of the subpages are hot
    ///   (the paper's Fig. 3 reports 5–15% for Silo, 8–12.5% for Btree) —
    ///   keeping the page huge wastes the rest of its fast-tier residency;
    /// - **hotness contrast**: the hottest subpage stands several times
    ///   above the mean touched-subpage count, so the variation is a stable
    ///   access-frequency gap and not resampling noise on a uniformly swept
    ///   page (splitting those would sacrifice TLB reach for nothing).
    pub fn is_genuinely_skewed(&self) -> bool {
        let mean = self.total_count as f64 / self.touched.max(1) as f64;
        (self.utilization as u64) <= crate::meta::NR_SUBPAGES / 4
            && self.max_count as f64 >= 4.0 * mean.max(1.0)
    }
}

/// Hotness of a base page with count `c`: `c × nr_subpages` (§4.1.2),
/// compensating for a huge page being 512× more likely to be sampled.
#[inline]
pub fn base_hotness(count: u64) -> u64 {
    count.saturating_mul(NR_SUBPAGES)
}

/// Hotness of subpage with count `c`, as the emulated base-page histogram
/// sees it (a subpage promoted to a base page would have this hotness).
#[inline]
pub fn subpage_hotness(count: u32) -> u64 {
    (count as u64).saturating_mul(NR_SUBPAGES)
}

memtis_sim::obs::snap_struct!(SubMeta { counts, bins } check |s: &SubMeta| {
    if s.bins.iter().any(|&b| b as usize > MAX_BIN) {
        return Err(memtis_sim::obs::SnapError::Corrupt("subpage bin out of range"));
    }
    Ok(())
});

memtis_sim::obs::snap_struct!(PageMeta {
    size,
    count,
    bin,
    epoch,
    in_promo,
    sub,
} check |m: &PageMeta| {
    if m.bin as usize > MAX_BIN {
        return Err(memtis_sim::obs::SnapError::Corrupt("page bin out of range"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_pages_compensate_by_subpage_count() {
        let m = PageMeta::new_base(2);
        assert_eq!(m.hotness(), 1024);
        assert_eq!(m.pages_4k(), 1);
        let h = PageMeta::new_huge(2);
        assert_eq!(h.hotness(), 2);
        assert_eq!(h.pages_4k(), 512);
    }

    #[test]
    fn utilization_counts_hot_subpages() {
        let mut m = PageMeta::new_huge(100);
        let sub = m.sub.as_mut().unwrap();
        sub.bins[0] = 12;
        sub.bins[1] = 12;
        sub.bins[2] = 9;
        assert_eq!(m.utilization(12), 2);
        assert_eq!(m.utilization(10), 2);
        assert_eq!(m.utilization(9), 3);
    }

    #[test]
    fn skewness_ranks_skewed_above_uniform() {
        // Skewed: 4 subpages with count 100 each, rest zero.
        let mut skewed = PageMeta::new_huge(400);
        {
            let s = skewed.sub.as_mut().unwrap();
            for i in 0..4 {
                s.counts[i] = 100;
                s.bins[i] = 15;
            }
        }
        // Uniform: 400 subpages with count 1 each.
        let mut uniform = PageMeta::new_huge(400);
        {
            let s = uniform.sub.as_mut().unwrap();
            for i in 0..400 {
                s.counts[i] = 1;
                s.bins[i] = 15;
            }
        }
        let ss = skewed.skewness(15).unwrap();
        let su = uniform.skewness(15).unwrap();
        assert!(ss > su * 100.0, "skewed {ss} vs uniform {su}");
    }

    #[test]
    fn skewness_none_without_hot_subpages() {
        let m = PageMeta::new_huge(7);
        assert_eq!(m.skewness(12), None);
        let b = PageMeta::new_base(7);
        assert_eq!(b.skewness(0), None);
    }
}
