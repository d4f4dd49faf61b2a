//! Set-associative TLB model with separate 4 KiB and 2 MiB structures.
//!
//! Huge pages increase TLB reach two ways: one entry covers 512 base pages,
//! and a miss walks one fewer page-table level. Both effects are modeled;
//! they are the "address translation cost" side of the trade-off MEMTIS
//! balances against fast-tier capacity waste.

use crate::addr::{PageSize, VirtPage, NR_SUBPAGES};
use crate::config::TlbSpec;

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    /// Page-size-specific tag (vpn for 4 KiB, vpn/512 for 2 MiB) shifted
    /// left one, with the valid flag in bit 0 — one load and one compare
    /// match both on the per-access probe.
    tag_valid: u64,
    /// LRU timestamp.
    stamp: u64,
}

impl TlbEntry {
    #[inline]
    fn valid(&self) -> bool {
        self.tag_valid & 1 != 0
    }
}

/// Encodes `tag` as a valid entry key.
#[inline]
fn key(tag: u64) -> u64 {
    (tag << 1) | 1
}

const INVALID: TlbEntry = TlbEntry {
    tag_valid: 0,
    stamp: 0,
};

/// One set-associative lookup structure.
#[derive(Debug)]
struct TlbArray {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (every preset geometry),
    /// letting [`Self::set_of`] mask instead of divide on the hot path;
    /// `usize::MAX` otherwise.
    set_mask: usize,
    entries: Vec<TlbEntry>,
    clock: u64,
}

impl TlbArray {
    fn new(entries: usize, ways: usize) -> Self {
        let ways = ways.min(entries).max(1);
        let sets = (entries / ways).max(1);
        TlbArray {
            sets,
            ways,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                usize::MAX
            },
            entries: vec![INVALID; sets * ways],
            clock: 0,
        }
    }

    #[inline]
    fn set_of(&self, tag: u64) -> usize {
        if self.set_mask != usize::MAX {
            (tag as usize) & self.set_mask
        } else {
            (tag as usize) % self.sets
        }
    }

    /// Probes the set for `tag`, refreshing the stamp on a hit. Returns the
    /// hit way's index into `entries`, so a caller that knows the tag stays
    /// resident can [`TlbArray::touch`] it without re-scanning the set.
    fn lookup_way(&mut self, tag: u64) -> Option<usize> {
        self.clock += 1;
        let k = key(tag);
        let s = self.set_of(tag) * self.ways;
        for (w, e) in self.entries[s..s + self.ways].iter_mut().enumerate() {
            if e.tag_valid == k {
                e.stamp = self.clock;
                return Some(s + w);
            }
        }
        None
    }

    /// Exactly the state transition of a [`TlbArray::lookup_way`] hit on the
    /// entry at `idx` — clock tick plus stamp refresh — minus the set scan.
    #[inline]
    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.entries[idx].stamp = self.clock;
    }

    fn insert(&mut self, tag: u64) {
        self.clock += 1;
        let s = self.set_of(tag) * self.ways;
        let set = &mut self.entries[s..s + self.ways];
        // Prefer an invalid way; otherwise evict the LRU way.
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid() { e.stamp + 1 } else { 0 })
            .unwrap();
        *victim = TlbEntry {
            tag_valid: key(tag),
            stamp: self.clock,
        };
    }

    fn invalidate(&mut self, tag: u64) {
        let k = key(tag);
        let s = self.set_of(tag) * self.ways;
        for e in &mut self.entries[s..s + self.ways] {
            if e.tag_valid == k {
                e.tag_valid &= !1;
            }
        }
    }
}

memtis_obs::snap_struct!(TlbEntry { tag_valid, stamp });

memtis_obs::snap_struct!(in TlbArray { clock, entries } check |t: &mut TlbArray| {
    if t.entries.len() != t.sets * t.ways {
        return Err(memtis_obs::SnapError::Corrupt("tlb geometry"));
    }
    Ok(())
});

/// TLB statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct TlbStats {
    /// Lookups that hit (either structure).
    pub hits: u64,
    /// Lookups that missed and required a page walk.
    pub misses: u64,
    /// Full or selective flushes performed (shootdowns).
    pub flushes: u64,
}

impl TlbStats {
    /// Accumulates `other` into `self` (used to fold per-lane TLB slices
    /// into one machine-wide view).
    pub fn absorb(&mut self, other: &TlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.flushes += other.flushes;
    }

    /// Miss ratio in [0, 1]; zero when no lookups happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// The dual (4 KiB + 2 MiB) TLB.
#[derive(Debug)]
pub struct Tlb {
    base: TlbArray,
    huge: TlbArray,
    /// Bumped on every entry movement (insert, invalidate); while it
    /// is unchanged, a way index returned by [`Tlb::lookup_memo`] still
    /// addresses the same resident translation. Lookups only refresh
    /// stamps in place and do not bump it.
    epoch: u64,
    /// Running statistics.
    pub stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from the configured geometry.
    pub fn new(spec: &TlbSpec) -> Self {
        Tlb {
            base: TlbArray::new(spec.base_entries, spec.ways),
            huge: TlbArray::new(spec.huge_entries, spec.ways),
            epoch: 0,
            stats: TlbStats::default(),
        }
    }

    /// Current entry-movement generation; see the `epoch` field.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    fn tag(vpage: VirtPage, size: PageSize) -> u64 {
        match size {
            PageSize::Base => vpage.0,
            PageSize::Huge => vpage.0 / NR_SUBPAGES,
        }
    }

    /// Looks up a translation for `vpage` and reports the hit way, so the
    /// caller can replay future guaranteed hits on the same mapping with
    /// [`Tlb::touch_hit`]. The mapping size must be supplied by the caller
    /// (the page table knows it); a real TLB probes both structures in
    /// parallel.
    pub fn lookup_memo(&mut self, vpage: VirtPage, size: PageSize) -> Option<usize> {
        let way = match size {
            PageSize::Base => self.base.lookup_way(Self::tag(vpage, size)),
            PageSize::Huge => self.huge.lookup_way(Self::tag(vpage, size)),
        };
        if way.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        way
    }

    /// Replays a guaranteed-hit lookup of a still-resident translation whose
    /// way was memoized by [`Tlb::lookup_memo`]: the LRU clock, the entry
    /// stamp, and the hit counter advance exactly as a `lookup_memo` hit would,
    /// without re-scanning the set. Only valid while [`Tlb::epoch`] is
    /// unchanged since the memoizing lookup — any insert or invalidate may
    /// have moved or evicted the entry.
    pub fn touch_hit(&mut self, size: PageSize, way: usize) {
        match size {
            PageSize::Base => self.base.touch(way),
            PageSize::Huge => self.huge.touch(way),
        }
        self.stats.hits += 1;
    }

    /// Inserts a translation after a walk.
    pub fn insert(&mut self, vpage: VirtPage, size: PageSize) {
        self.epoch += 1;
        match size {
            PageSize::Base => self.base.insert(Self::tag(vpage, size)),
            PageSize::Huge => self.huge.insert(Self::tag(vpage, size)),
        }
    }

    /// Invalidates the translation covering `vpage` at the given size
    /// (single-page shootdown on remap/migration).
    pub fn invalidate(&mut self, vpage: VirtPage, size: PageSize) {
        self.epoch += 1;
        self.stats.flushes += 1;
        match size {
            PageSize::Base => self.base.invalidate(Self::tag(vpage, size)),
            PageSize::Huge => self.huge.invalidate(Self::tag(vpage, size)),
        }
    }
}

memtis_obs::snap_struct!(TlbStats {
    hits,
    misses,
    flushes
});

// Residency, LRU clocks, generation, and statistics; the geometry comes
// from the restoring TLB's `TlbSpec`.
memtis_obs::snap_struct!(in Tlb { @in base, @in huge, epoch, stats });

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tlb() -> Tlb {
        Tlb::new(&TlbSpec {
            base_entries: 16,
            huge_entries: 8,
            ways: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small_tlb();
        assert!(t.lookup_memo(VirtPage(5), PageSize::Base).is_none());
        t.insert(VirtPage(5), PageSize::Base);
        assert!(t.lookup_memo(VirtPage(5), PageSize::Base).is_some());
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn huge_entry_covers_all_subpages() {
        let mut t = small_tlb();
        t.insert(VirtPage(512 * 3), PageSize::Huge);
        assert!(t
            .lookup_memo(VirtPage(512 * 3 + 17), PageSize::Huge)
            .is_some());
        assert!(t
            .lookup_memo(VirtPage(512 * 3 + 511), PageSize::Huge)
            .is_some());
        assert!(t.lookup_memo(VirtPage(512 * 4), PageSize::Huge).is_none());
    }

    #[test]
    fn lru_eviction_within_set() {
        // 16 entries / 4 ways = 4 sets; tags 0,4,8,... share set 0.
        let mut t = small_tlb();
        for i in 0..5 {
            t.insert(VirtPage(i * 4), PageSize::Base);
        }
        // Tag 0 was the LRU of set 0 and must be evicted.
        assert!(t.lookup_memo(VirtPage(0), PageSize::Base).is_none());
        assert!(t.lookup_memo(VirtPage(16), PageSize::Base).is_some());
    }

    #[test]
    fn invalidate_drops_only_its_entry() {
        let mut t = small_tlb();
        t.insert(VirtPage(1), PageSize::Base);
        t.insert(VirtPage(512), PageSize::Huge);
        t.invalidate(VirtPage(1), PageSize::Base);
        assert!(t.lookup_memo(VirtPage(1), PageSize::Base).is_none());
        assert!(t.lookup_memo(VirtPage(512), PageSize::Huge).is_some());
        assert_eq!(t.stats.flushes, 1);
    }

    #[test]
    fn base_capacity_exceeded_by_huge_working_set() {
        // 16 base entries cannot cover a 64-page working set, but a few huge
        // entries can: the TLB-reach benefit of huge pages.
        let mut t = small_tlb();
        let pages: Vec<VirtPage> = (0..64).map(VirtPage).collect();
        for rounds in 0..3 {
            for &p in &pages {
                if t.lookup_memo(p, PageSize::Base).is_none() {
                    t.insert(p, PageSize::Base);
                }
            }
            let _ = rounds;
        }
        let base_misses = t.stats.misses;
        assert!(base_misses > 64, "base pages should keep missing");

        let mut t2 = small_tlb();
        for _ in 0..3 {
            for &p in &pages {
                if t2.lookup_memo(p, PageSize::Huge).is_none() {
                    t2.insert(p, PageSize::Huge);
                }
            }
        }
        // One huge entry covers all 64 pages: exactly one miss.
        assert_eq!(t2.stats.misses, 1);
    }
}
