//! Region-indexed dense page-metadata table.
//!
//! [`MemtisPolicy`](crate::policy::MemtisPolicy) keeps every [`PageMeta`]
//! here, indexed by *huge-page region* (`vpn >> 9`): the simulator's
//! [`RegionMap`] resolves the region to a dense 512-slot subpage slab. The
//! effects:
//!
//! - the per-sample hot path resolves the region (not the page), usually
//!   through the map's memo — consecutive PEBS samples overwhelmingly land
//!   in the same 2 MiB region;
//! - cooling, demotion-list refill, and skewness selection become
//!   contiguous scans over slab arrays in sorted region order;
//! - collapse-candidate detection needs no auxiliary grouping map: the base
//!   pages of a 2 MiB region already sit in one slab.
//!
//! Iteration order is *sorted by virtual page number*, which is fully
//! deterministic regardless of insertion/removal history.

use crate::meta::PageMeta;
use memtis_sim::obs::{Snap, SnapError, SnapReader, SnapWriter};
use memtis_sim::prelude::{VirtPage, NR_SUBPAGES};
use memtis_sim::region_map::RegionMap;

/// One 2 MiB region worth of metadata: a dense subpage array.
///
/// A region tracking a huge page stores its meta at the slot of the huge
/// page's (aligned) base vpn; a region tracking base pages uses one slot
/// per 4 KiB page. The distinction lives in [`PageMeta::size`].
#[derive(Debug)]
struct RegionSlab {
    /// Number of `Some` slots.
    live: u32,
    /// Per-subpage metadata, indexed by `vpn & 511`.
    slots: Box<[Option<PageMeta>]>,
}

impl RegionSlab {
    fn new() -> Self {
        RegionSlab {
            live: 0,
            slots: (0..NR_SUBPAGES).map(|_| None).collect(),
        }
    }
}

/// Dense per-region page-metadata table; an emptied region is removed.
#[derive(Debug, Default)]
pub struct RegionTable {
    regions: RegionMap<RegionSlab>,
    /// Emptied slabs, reused for the next new region. A split or collapse
    /// empties a region and refills it at once; freeing and reallocating
    /// the slab there instead raised perfbench silo-spec's peak RSS from
    /// 14.6 to 15.6 MiB.
    spare: Vec<RegionSlab>,
    /// Total live entries across all slabs.
    len: usize,
}

/// Page `j` of `region`.
fn page(region: u64, j: usize) -> VirtPage {
    VirtPage((region << 9) | j as u64)
}

impl RegionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked pages (live entries, not regions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the metadata for `vpage`.
    #[inline]
    pub fn get(&self, vpage: VirtPage) -> Option<&PageMeta> {
        self.regions.get(vpage.0 >> 9)?.slots[vpage.subpage_index()].as_ref()
    }

    /// Looks up the metadata for `vpage`, mutably.
    #[inline]
    pub fn get_mut(&mut self, vpage: VirtPage) -> Option<&mut PageMeta> {
        self.regions.get_mut(vpage.0 >> 9)?.slots[vpage.subpage_index()].as_mut()
    }

    /// Inserts metadata for `vpage`, returning any previous entry.
    pub fn insert(&mut self, vpage: VirtPage, meta: PageMeta) -> Option<PageMeta> {
        let spare = &mut self.spare;
        let slab = self
            .regions
            .get_or_insert_with(vpage.0 >> 9, || spare.pop().unwrap_or_else(RegionSlab::new));
        let old = slab.slots[vpage.subpage_index()].replace(meta);
        if old.is_none() {
            slab.live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes and returns the metadata for `vpage`. A region left empty is
    /// removed from the map, and its slab kept for reuse.
    pub fn remove(&mut self, vpage: VirtPage) -> Option<PageMeta> {
        let region = vpage.0 >> 9;
        let slab = self.regions.get_mut(region)?;
        let old = slab.slots[vpage.subpage_index()].take()?;
        slab.live -= 1;
        self.len -= 1;
        if slab.live == 0 {
            self.spare.extend(self.regions.remove(region));
        }
        Some(old)
    }

    /// Live region numbers in ascending order — the deterministic scan
    /// order for cooling and demotion-list refill.
    pub fn regions_sorted(&self) -> Vec<u64> {
        self.regions.iter().map(|(region, _)| region).collect()
    }

    /// Iterates all tracked pages in ascending virtual-page order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, &PageMeta)> {
        self.regions.iter().flat_map(|(region, slab)| {
            let slots = slab.slots.iter().enumerate();
            slots
                .filter_map(move |(j, slot)| slot.as_ref().map(|m| (page(region, j), m)))
                .take(slab.live as usize)
        })
    }

    /// The live entries of `region` in ascending subpage order, with
    /// mutable access. The scan ends at the region's last live entry, so a
    /// huge page's region (one entry, at slot 0) costs one slot.
    pub(crate) fn region_entries_mut(
        &mut self,
        region: u64,
    ) -> impl Iterator<Item = (VirtPage, &mut PageMeta)> {
        let slab = self.regions.get_mut(region);
        let live = slab.as_ref().map_or(0, |s| s.live as usize);
        slab.into_iter()
            .flat_map(|s| s.slots.iter_mut().enumerate())
            .filter_map(move |(j, slot)| slot.as_mut().map(|m| (page(region, j), m)))
            .take(live)
    }
}

/// A `u32` count, then `(vpage, meta)` pairs in the table's canonical
/// ascending-vpn scan order. Loading re-inserts them; a repeated page is
/// corrupt.
impl Snap for RegionTable {
    const MIN_BYTES: usize = 4;
    fn save(&self, w: &mut SnapWriter) {
        w.count(self.len());
        for (vpage, meta) in self.iter() {
            w.put(&vpage);
            w.put(meta);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count(<(VirtPage, PageMeta)>::MIN_BYTES)?;
        let mut table = RegionTable::new();
        for _ in 0..n {
            let (vpage, meta): (VirtPage, PageMeta) = r.get()?;
            if table.insert(vpage, meta).is_some() {
                return Err(SnapError::Corrupt("duplicate region table page"));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::PageSize;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = RegionTable::new();
        assert!(t.is_empty());
        assert!(t.insert(VirtPage(513), PageMeta::new_base(3)).is_none());
        assert!(t.insert(VirtPage(0), PageMeta::new_huge(7)).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(VirtPage(513)).unwrap().count, 3);
        assert_eq!(t.get(VirtPage(0)).unwrap().size, PageSize::Huge);
        assert!(t.get(VirtPage(514)).is_none());
        assert!(t.get(VirtPage(1 << 30)).is_none());
        t.get_mut(VirtPage(513)).unwrap().count += 1;
        assert_eq!(t.remove(VirtPage(513)).unwrap().count, 4);
        assert!(t.remove(VirtPage(513)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = RegionTable::new();
        t.insert(VirtPage(42), PageMeta::new_base(1));
        let old = t.insert(VirtPage(42), PageMeta::new_base(9)).unwrap();
        assert_eq!(old.count, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(VirtPage(42)).unwrap().count, 9);
    }

    #[test]
    fn iteration_is_sorted_by_vpn() {
        let mut t = RegionTable::new();
        for vpn in [5000u64, 1, 512, 4096, 0, 513] {
            t.insert(VirtPage(vpn), PageMeta::new_base(vpn));
        }
        let order: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![0, 1, 512, 513, 4096, 5000]);
        let counts: Vec<u64> = t.iter().map(|(_, m)| m.count).collect();
        assert_eq!(counts, vec![0, 1, 512, 513, 4096, 5000]);
    }

    #[test]
    fn emptied_regions_are_removed_without_aliasing() {
        let mut t = RegionTable::new();
        t.insert(VirtPage(0), PageMeta::new_base(1));
        t.insert(VirtPage(512), PageMeta::new_base(2));
        // Look region 0 up, then empty it.
        assert!(t.get(VirtPage(0)).is_some());
        t.remove(VirtPage(0));
        assert_eq!(t.regions_sorted(), vec![1]);
        assert!(t.get(VirtPage(0)).is_none());
        assert_eq!(t.spare.len(), 1);
        // A new region takes the freed place and the emptied slab; the old
        // region still misses.
        t.insert(VirtPage(1024), PageMeta::new_base(3));
        assert!(t.spare.is_empty());
        assert!(t.get(VirtPage(0)).is_none());
        assert_eq!(t.get(VirtPage(1024)).unwrap().count, 3);
        assert_eq!(t.get(VirtPage(512)).unwrap().count, 2);
        // Regions past bit 36 of the vpn stay apart from low ones.
        let high = VirtPage(512 + (1 << 36));
        assert!(t.get(high).is_none());
        t.insert(high, PageMeta::new_base(4));
        assert_eq!(t.get(VirtPage(512)).unwrap().count, 2);
        let order: Vec<u64> = t.iter().map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![512, 1024, high.0]);
    }

    #[test]
    fn region_scan_visits_live_slots_in_order() {
        let mut t = RegionTable::new();
        for j in [9u64, 2, 511] {
            t.insert(VirtPage(1024 + j), PageMeta::new_base(j));
        }
        let mut seen = Vec::new();
        for (v, m) in t.region_entries_mut(2) {
            m.count += 100;
            seen.push(v.0);
        }
        assert_eq!(seen, vec![1026, 1033, 1535]);
        assert_eq!(t.get(VirtPage(1026)).unwrap().count, 102);
        assert_eq!(t.region_entries_mut(7).count(), 0);
        // A huge page's region stops at its one entry.
        t.insert(VirtPage(2048), PageMeta::new_huge(5));
        let huge: Vec<u64> = t.region_entries_mut(4).map(|(v, _)| v.0).collect();
        assert_eq!(huge, vec![2048]);
    }
}
