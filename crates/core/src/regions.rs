//! Region-indexed dense page-metadata table.
//!
//! [`MemtisPolicy`](crate::policy::MemtisPolicy) used to key every
//! [`PageMeta`] by `VirtPage` in one big hash map, which made the
//! per-sample lookup a full hash probe and the cooling/skewness pass a
//! pointer-chasing walk in hash order. This table instead indexes by
//! *huge-page region* (`vpn >> 9`): a small hash map resolves the region to
//! a slab, and the slab holds a dense 512-slot subpage array. The effects:
//!
//! - the per-sample hot path hashes the region (not the page) and usually
//!   skips even that via a one-entry last-region cache — consecutive PEBS
//!   samples overwhelmingly land in the same 2 MiB region;
//! - cooling, demotion-list refill, and skewness selection become
//!   contiguous scans over slab arrays in sorted region order;
//! - collapse-candidate detection needs no auxiliary grouping map: the base
//!   pages of a 2 MiB region already sit in one slab.
//!
//! Iteration order is *sorted by virtual page number*, which is fully
//! deterministic regardless of insertion/removal history (the old map was
//! merely deterministic for identical operation sequences).

use crate::meta::PageMeta;
use memtis_sim::obs::{Snap, SnapError, SnapReader, SnapWriter};
use memtis_sim::prelude::{VirtPage, NR_SUBPAGES};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel region number for the empty last-region cache and freed slabs.
const NO_REGION: u64 = u64::MAX;

/// Multiplicative (Fibonacci) hash of a region number, its high half
/// folded into the low bits the map indexes by: one multiply where SipHash
/// took a dozen rounds on every sample that missed the last-region cache.
/// Unkeyed, like the fixed-key SipHash it replaces, so the map's iteration
/// order is a pure function of its contents — and nothing depends on that
/// order, since every iteration of the index sorts the region numbers
/// first.
#[derive(Default)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, region: u64) {
        let h = region.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// One 2 MiB region worth of metadata: a dense subpage array.
///
/// A region tracking a huge page stores its meta at the slot of the huge
/// page's (aligned) base vpn; a region tracking base pages uses one slot
/// per 4 KiB page. The distinction lives in [`PageMeta::size`], exactly as
/// it did under the flat map.
#[derive(Debug)]
struct RegionSlab {
    /// Region number (`vpn >> 9`), or [`NO_REGION`] when on the free list.
    region: u64,
    /// Number of `Some` slots.
    live: u32,
    /// Per-subpage metadata, indexed by `vpn & 511`.
    slots: Box<[Option<PageMeta>]>,
}

impl RegionSlab {
    fn new(region: u64) -> Self {
        RegionSlab {
            region,
            live: 0,
            slots: (0..NR_SUBPAGES).map(|_| None).collect(),
        }
    }
}

/// Dense per-region page-metadata table (drop-in for the flat hash map).
#[derive(Debug, Default)]
pub struct RegionTable {
    /// Region number → slab index.
    index: HashMap<u64, u32, BuildHasherDefault<RegionHasher>>,
    /// Slab storage; slabs never move once allocated (freed ones are
    /// recycled via `free`), so cached slab indices stay valid.
    slabs: Vec<RegionSlab>,
    /// Recycled slab indices.
    free: Vec<u32>,
    /// Total live entries across all slabs.
    len: usize,
    /// One-entry last-region cache: `(region, slab index)`. A `Cell` so
    /// read-only lookups can refresh it too. Hits are validated against the
    /// slab's own region tag, so a recycled slab can never alias.
    last: Cell<(u64, u32)>,
}

impl RegionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RegionTable {
            index: HashMap::default(),
            slabs: Vec::new(),
            free: Vec::new(),
            len: 0,
            last: Cell::new((NO_REGION, 0)),
        }
    }

    /// Number of tracked pages (live entries, not regions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolves a region number to its slab index, consulting the
    /// last-region cache first.
    #[inline]
    fn slab_of(&self, region: u64) -> Option<u32> {
        let (r, i) = self.last.get();
        if r == region && self.slabs[i as usize].region == region {
            return Some(i);
        }
        let i = *self.index.get(&region)?;
        self.last.set((region, i));
        Some(i)
    }

    /// Looks up the metadata for `vpage`.
    #[inline]
    pub fn get(&self, vpage: VirtPage) -> Option<&PageMeta> {
        let i = self.slab_of(vpage.0 >> 9)?;
        self.slabs[i as usize].slots[(vpage.0 & 511) as usize].as_ref()
    }

    /// Looks up the metadata for `vpage`, mutably.
    #[inline]
    pub fn get_mut(&mut self, vpage: VirtPage) -> Option<&mut PageMeta> {
        let i = self.slab_of(vpage.0 >> 9)?;
        self.slabs[i as usize].slots[(vpage.0 & 511) as usize].as_mut()
    }

    /// Inserts metadata for `vpage`, returning any previous entry.
    pub fn insert(&mut self, vpage: VirtPage, meta: PageMeta) -> Option<PageMeta> {
        let region = vpage.0 >> 9;
        let i = match self.slab_of(region) {
            Some(i) => i,
            None => {
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slabs[i as usize].region = region;
                        i
                    }
                    None => {
                        self.slabs.push(RegionSlab::new(region));
                        (self.slabs.len() - 1) as u32
                    }
                };
                self.index.insert(region, i);
                self.last.set((region, i));
                i
            }
        };
        let slot = &mut self.slabs[i as usize].slots[(vpage.0 & 511) as usize];
        let old = slot.replace(meta);
        if old.is_none() {
            self.slabs[i as usize].live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes and returns the metadata for `vpage`. An emptied region's
    /// slab goes on the free list for recycling.
    pub fn remove(&mut self, vpage: VirtPage) -> Option<PageMeta> {
        let region = vpage.0 >> 9;
        let i = self.slab_of(region)?;
        let slab = &mut self.slabs[i as usize];
        let old = slab.slots[(vpage.0 & 511) as usize].take()?;
        slab.live -= 1;
        self.len -= 1;
        if slab.live == 0 {
            slab.region = NO_REGION;
            self.index.remove(&region);
            self.free.push(i);
            self.last.set((NO_REGION, 0));
        }
        Some(old)
    }

    /// Live region numbers in ascending order — the deterministic scan
    /// order for cooling and demotion-list refill.
    pub fn regions_sorted(&self) -> Vec<u64> {
        let mut regions: Vec<u64> = self.index.keys().copied().collect();
        regions.sort_unstable();
        regions
    }

    /// Iterates all tracked pages in ascending virtual-page order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, &PageMeta)> {
        self.regions_sorted().into_iter().flat_map(move |region| {
            let i = *self.index.get(&region).expect("region just listed");
            self.slabs[i as usize]
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(j, slot)| {
                    slot.as_ref()
                        .map(|m| (VirtPage((region << 9) | j as u64), m))
                })
        })
    }

    /// The live entries of `region` in ascending subpage order, with
    /// mutable access. The scan ends at the region's last live entry, so a
    /// huge page's region (one entry, at slot 0) costs one slot.
    pub(crate) fn region_entries_mut(
        &mut self,
        region: u64,
    ) -> impl Iterator<Item = (VirtPage, &mut PageMeta)> {
        let slab = self.slab_of(region).map(|i| &mut self.slabs[i as usize]);
        let live = slab.as_ref().map_or(0, |s| s.live as usize);
        slab.into_iter()
            .flat_map(|s| s.slots.iter_mut().enumerate())
            .filter_map(move |(j, slot)| {
                slot.as_mut()
                    .map(|m| (VirtPage((region << 9) | j as u64), m))
            })
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
    fn emptied_slabs_are_recycled_without_aliasing() {
        let mut t = RegionTable::new();
        t.insert(VirtPage(0), PageMeta::new_base(1));
        t.insert(VirtPage(512), PageMeta::new_base(2));
        // Warm the cache on region 0, then free it.
        assert!(t.get(VirtPage(0)).is_some());
        t.remove(VirtPage(0));
        assert_eq!(t.free.len(), 1);
        // Region 0 lookups must miss, not alias into a stale slab.
        assert!(t.get(VirtPage(0)).is_none());
        // A new region recycles the freed slab; old region still misses.
        t.insert(VirtPage(1024), PageMeta::new_base(3));
        assert_eq!(t.slabs.len(), 2);
        assert!(t.get(VirtPage(0)).is_none());
        assert_eq!(t.get(VirtPage(1024)).unwrap().count, 3);
        assert_eq!(t.get(VirtPage(512)).unwrap().count, 2);
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
