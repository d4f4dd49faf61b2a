//! Four-level radix page table with 4 KiB and 2 MiB mappings.
//!
//! The layout mirrors x86-64: a 2 MiB mapping occupies one L2 (PMD) slot and
//! terminates the walk one level early; splitting replaces the PMD entry with
//! a table of 512 PTEs over the *same* physical frames (in-place THP split,
//! as in the kernel), and collapsing installs a PMD entry over a freshly
//! allocated huge frame.
//!
//! Each entry carries the bits tiering systems rely on: the hardware
//! `accessed`/`dirty` bits (harvested and cleared by page-table-scanning
//! policies), a `hint` bit emulating AutoNUMA-style protection faults, and a
//! sticky `ever_written` bit per 4 KiB subpage that the huge-page splitter
//! uses to free all-zero subpages (§4.3.3 of the paper).

use crate::addr::{Frame, PageSize, VirtPage, NR_SUBPAGES};
use crate::error::{SimError, SimResult};
use std::ptr::NonNull;

const FANOUT: usize = 512;
const SUBPAGE_WORDS: usize = (NR_SUBPAGES as usize) / 64;

/// A 4 KiB page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub frame: Frame,
    /// Hardware accessed bit (set on every access, cleared by scanners).
    pub accessed: bool,
    /// Hardware dirty bit (set on stores, cleared by scanners).
    pub dirty: bool,
    /// Sticky "was ever stored to" bit; never cleared, survives migration.
    pub ever_written: bool,
    /// NUMA-hint protection: next access traps to the policy.
    pub hint: bool,
}

impl Pte {
    /// A fresh entry mapping `frame` with all bits clear.
    pub fn new(frame: Frame) -> Self {
        Pte {
            frame,
            accessed: false,
            dirty: false,
            ever_written: false,
            hint: false,
        }
    }
}

/// A 2 MiB page-table entry (PMD level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HugeEntry {
    /// First frame of the 512-frame contiguous physical block.
    pub frame: Frame,
    /// Hardware accessed bit for the whole huge page. Note that hardware
    /// cannot report *which* subpage was touched — the paper's motivation
    /// for PEBS-based subpage tracking.
    pub accessed: bool,
    /// Hardware dirty bit for the whole huge page.
    pub dirty: bool,
    /// NUMA-hint protection for the whole huge page.
    pub hint: bool,
    /// Sticky per-subpage "ever stored to" bitmap (simulator-side knowledge
    /// standing in for the kernel's zero-subpage detection at split time).
    pub sub_written: [u64; SUBPAGE_WORDS],
}

impl HugeEntry {
    /// A fresh huge entry mapping the block starting at `frame`.
    pub fn new(frame: Frame) -> Self {
        HugeEntry {
            frame,
            accessed: false,
            dirty: false,
            hint: false,
            sub_written: [0; SUBPAGE_WORDS],
        }
    }

    /// Whether subpage `idx` (0..512) was ever stored to.
    pub fn subpage_written(&self, idx: usize) -> bool {
        self.sub_written[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Marks subpage `idx` as stored to.
    pub fn mark_subpage_written(&mut self, idx: usize) {
        self.sub_written[idx / 64] |= 1 << (idx % 64);
    }

    /// Number of subpages ever stored to.
    pub fn written_subpages(&self) -> u32 {
        self.sub_written.iter().map(|w| w.count_ones()).sum()
    }
}

/// Result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The exact 4 KiB frame backing the accessed page (for a huge mapping,
    /// `huge_frame + subpage_index`).
    pub frame: Frame,
    /// The mapping size the translation used.
    pub size: PageSize,
    /// Whether the entry had the NUMA-hint bit set (a real access would trap).
    pub hint: bool,
}

#[derive(Debug)]
struct L1Table {
    entries: Vec<Option<Pte>>,
    mapped: u16,
}

impl L1Table {
    fn new() -> Self {
        L1Table {
            entries: vec![None; FANOUT],
            mapped: 0,
        }
    }
}

#[derive(Debug)]
enum L2Slot {
    Empty,
    Huge(HugeEntry),
    Table(Box<L1Table>),
}

#[derive(Debug)]
struct L2Table {
    slots: Vec<L2Slot>,
}

impl L2Table {
    fn new() -> Self {
        L2Table {
            slots: (0..FANOUT).map(|_| L2Slot::Empty).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct L3Table {
    entries: Vec<Option<Box<L2Table>>>,
}

#[derive(Debug, Default)]
struct L4Table {
    entries: Vec<Option<Box<L3Table>>>,
}

/// Mutable view over a mapped entry, produced by the scan API.
pub enum EntryMut<'a> {
    /// A base-page entry.
    Base(&'a mut Pte),
    /// A huge-page entry.
    Huge(&'a mut HugeEntry),
}

/// Sentinel meaning "this walk-cache way holds nothing".
const NO_REGION: u64 = u64::MAX;

/// Number of ways in the software walk cache. Power of two so the way index
/// is a mask; 1024 regions cover 2 GiB of virtual space, comfortably more
/// than the simulated working sets hop across between structural changes.
const WALK_CACHE_WAYS: usize = 1024;

/// One way of the walk cache; valid while `region` matches the probe.
#[derive(Debug, Clone, Copy)]
struct WalkCacheWay {
    /// `vpn >> 9` of the cached region, or [`NO_REGION`].
    region: u64,
    /// Pointer to the region's L2 slot, inside this table's own heap
    /// allocations; only dereferenced while `region` matches.
    slot: NonNull<L2Slot>,
}

/// Direct-mapped software walk cache: remembers the L2 (PMD) slot of
/// recently walked 2 MiB regions (way = `region & 1023`), so repeated
/// accesses inside cached regions skip the L4→L3→L2 descent entirely.
///
/// This is **simulator-speed machinery**, not the simulated TLB — it never
/// affects costs or statistics. It needs no invalidation because of one
/// invariant: an L2 slot's storage is never moved or freed while the table
/// lives. L3 and L2 tables are boxed, created on first map and never
/// dropped, and each L2 table's slot array has a fixed length. Map, unmap,
/// split and collapse only rewrite a slot's contents (its variant), and
/// [`PageTable::walk_mut`] reads that variant afresh on every call, so a
/// cached slot pointer always answers exactly as an uncached walk would.
#[derive(Debug)]
struct WalkCache {
    ways: Box<[WalkCacheWay]>,
}

impl WalkCache {
    fn empty() -> Self {
        WalkCache {
            ways: vec![
                WalkCacheWay {
                    region: NO_REGION,
                    slot: NonNull::dangling(),
                };
                WALK_CACHE_WAYS
            ]
            .into_boxed_slice(),
        }
    }
}

/// The four-level page table of the simulated address space.
#[derive(Debug)]
pub struct PageTable {
    root: L4Table,
    mapped_base: u64,
    mapped_huge: u64,
    walk_cache: WalkCache,
}

// SAFETY: `walk_cache.slot` points into heap allocations exclusively owned
// by this `PageTable` and never moved or freed while it lives (see
// [`WalkCache`]); boxed tables stay put when the struct itself is moved
// between threads, so sending the table cannot leave the pointer dangling.
// The cache is only read through `&mut self`.
unsafe impl Send for PageTable {}

#[inline]
fn idx(vpn: u64, level: u32) -> usize {
    // `level` 1..=4; level 1 indexes the PTE table.
    ((vpn >> (9 * (level - 1))) & (FANOUT as u64 - 1)) as usize
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            root: L4Table {
                entries: (0..FANOUT).map(|_| None).collect(),
            },
            mapped_base: 0,
            mapped_huge: 0,
            walk_cache: WalkCache::empty(),
        }
    }

    /// Number of mapped 4 KiB entries.
    pub fn mapped_base_pages(&self) -> u64 {
        self.mapped_base
    }

    /// Number of mapped 2 MiB entries.
    pub fn mapped_huge_pages(&self) -> u64 {
        self.mapped_huge
    }

    /// Resident set size in bytes implied by current mappings.
    pub fn rss_bytes(&self) -> u64 {
        self.mapped_base * PageSize::Base.bytes() + self.mapped_huge * PageSize::Huge.bytes()
    }

    fn l2_slot(&self, vpn: u64) -> Option<&L2Slot> {
        let l3 = self.root.entries[idx(vpn, 4)].as_ref()?;
        let l2 = l3.entries.get(idx(vpn, 3))?.as_ref()?;
        Some(&l2.slots[idx(vpn, 2)])
    }

    fn l2_slot_mut(&mut self, vpn: u64, create: bool) -> Option<&mut L2Slot> {
        let l3_slot = &mut self.root.entries[idx(vpn, 4)];
        let l3 = match l3_slot {
            Some(l3) => l3,
            None if create => l3_slot.insert(Box::new(L3Table {
                entries: (0..FANOUT).map(|_| None).collect(),
            })),
            None => return None,
        };
        if l3.entries.is_empty() {
            l3.entries = (0..FANOUT).map(|_| None).collect();
        }
        let l2_slot = &mut l3.entries[idx(vpn, 3)];
        let l2 = match l2_slot {
            Some(l2) => l2,
            None if create => l2_slot.insert(Box::new(L2Table::new())),
            None => return None,
        };
        Some(&mut l2.slots[idx(vpn, 2)])
    }

    /// Translates a virtual page to its backing frame.
    pub fn translate(&self, vpage: VirtPage) -> Option<Translation> {
        match self.l2_slot(vpage.0)? {
            L2Slot::Empty => None,
            L2Slot::Huge(h) => Some(Translation {
                frame: h.frame.add(vpage.subpage_index() as u64),
                size: PageSize::Huge,
                hint: h.hint,
            }),
            L2Slot::Table(t) => {
                let pte = t.entries[idx(vpage.0, 1)].as_ref()?;
                Some(Translation {
                    frame: pte.frame,
                    size: PageSize::Base,
                    hint: pte.hint,
                })
            }
        }
    }

    /// Single-walk access fast path: one descent yields the mutable entry
    /// covering `vpage`, from which the caller reads the translation *and*
    /// updates accessed/dirty/hint bits — replacing the former
    /// translate + entry_mut + entry_mut triple walk.
    ///
    /// Calls landing in a cached 2 MiB region skip the descent via the
    /// direct-mapped walk cache (see [`WalkCache`]); results are
    /// bit-identical to an uncached walk because the cached slot is never
    /// moved or freed and its variant is read here on every call.
    #[inline]
    pub fn walk_mut(&mut self, vpage: VirtPage) -> Option<EntryMut<'_>> {
        let region = vpage.0 >> 9;
        let way_idx = (region as usize) & (WALK_CACHE_WAYS - 1);
        let way = self.walk_cache.ways[way_idx];
        let ptr = if way.region == region {
            way.slot
        } else {
            let p = NonNull::from(self.l2_slot_mut(vpage.0, false)?);
            self.walk_cache.ways[way_idx] = WalkCacheWay { region, slot: p };
            p
        };
        // SAFETY: the pointer was produced from this table's own slot
        // storage, which is never moved or freed while the table lives (see
        // [`WalkCache`]); `&mut self` guarantees no other live borrow of the
        // table.
        let slot = unsafe { &mut *ptr.as_ptr() };
        match slot {
            L2Slot::Empty => None,
            L2Slot::Huge(h) => Some(EntryMut::Huge(h)),
            L2Slot::Table(t) => t.entries[idx(vpage.0, 1)].as_mut().map(EntryMut::Base),
        }
    }

    /// Maps a 4 KiB page to `frame`.
    pub fn map_base(&mut self, vpage: VirtPage, frame: Frame) -> SimResult<()> {
        let slot = self
            .l2_slot_mut(vpage.0, true)
            .ok_or(SimError::Internal("l2 slot creation failed"))?;
        match slot {
            L2Slot::Huge(_) => return Err(SimError::AlreadyMapped(vpage)),
            L2Slot::Empty => *slot = L2Slot::Table(Box::new(L1Table::new())),
            L2Slot::Table(_) => {}
        }
        let L2Slot::Table(t) = slot else {
            return Err(SimError::Internal("l2 slot changed variant mid-map"));
        };
        let e = &mut t.entries[idx(vpage.0, 1)];
        if e.is_some() {
            return Err(SimError::AlreadyMapped(vpage));
        }
        *e = Some(Pte::new(frame));
        t.mapped += 1;
        self.mapped_base += 1;
        Ok(())
    }

    /// Maps a 2 MiB page (2 MiB-aligned `vpage`) to the block at `frame`.
    pub fn map_huge(&mut self, vpage: VirtPage, frame: Frame) -> SimResult<()> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let slot = self
            .l2_slot_mut(vpage.0, true)
            .ok_or(SimError::Internal("l2 slot creation failed"))?;
        match slot {
            L2Slot::Huge(_) => Err(SimError::AlreadyMapped(vpage)),
            L2Slot::Table(t) if t.mapped > 0 => Err(SimError::AlreadyMapped(vpage)),
            _ => {
                *slot = L2Slot::Huge(HugeEntry::new(frame));
                self.mapped_huge += 1;
                Ok(())
            }
        }
    }

    /// Unmaps a 4 KiB page, returning the old entry.
    pub fn unmap_base(&mut self, vpage: VirtPage) -> SimResult<Pte> {
        let slot = self
            .l2_slot_mut(vpage.0, false)
            .ok_or(SimError::NotMapped(vpage))?;
        match slot {
            L2Slot::Table(t) => {
                let e = t.entries[idx(vpage.0, 1)]
                    .take()
                    .ok_or(SimError::NotMapped(vpage))?;
                t.mapped -= 1;
                self.mapped_base -= 1;
                Ok(e)
            }
            L2Slot::Huge(_) => Err(SimError::WrongPageSize {
                vpage,
                expected: PageSize::Base,
            }),
            L2Slot::Empty => Err(SimError::NotMapped(vpage)),
        }
    }

    /// Unmaps a 2 MiB page, returning the old entry.
    pub fn unmap_huge(&mut self, vpage: VirtPage) -> SimResult<HugeEntry> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let slot = self
            .l2_slot_mut(vpage.0, false)
            .ok_or(SimError::NotMapped(vpage))?;
        match std::mem::replace(slot, L2Slot::Empty) {
            L2Slot::Huge(h) => {
                self.mapped_huge -= 1;
                Ok(h)
            }
            other => {
                *slot = other;
                Err(SimError::WrongPageSize {
                    vpage,
                    expected: PageSize::Huge,
                })
            }
        }
    }

    /// Returns a mutable reference to the entry covering `vpage`, if mapped.
    pub fn entry_mut(&mut self, vpage: VirtPage) -> Option<EntryMut<'_>> {
        match self.l2_slot_mut(vpage.0, false)? {
            L2Slot::Huge(h) => Some(EntryMut::Huge(h)),
            L2Slot::Table(t) => t.entries[idx(vpage.0, 1)].as_mut().map(EntryMut::Base),
            L2Slot::Empty => None,
        }
    }

    /// Returns the huge entry at `vpage`, if it is huge-mapped.
    pub fn huge_entry(&self, vpage: VirtPage) -> Option<&HugeEntry> {
        match self.l2_slot(vpage.huge_aligned().0)? {
            L2Slot::Huge(h) => Some(h),
            _ => None,
        }
    }

    /// Splits the huge mapping at `vpage` in place: the PMD entry is replaced
    /// by 512 PTEs over the same physical frames. Returns the old huge entry;
    /// subpage PTEs inherit `accessed`/`dirty` and per-subpage `ever_written`.
    pub fn split_huge(&mut self, vpage: VirtPage) -> SimResult<HugeEntry> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let slot = self
            .l2_slot_mut(vpage.0, false)
            .ok_or(SimError::NotMapped(vpage))?;
        let L2Slot::Huge(h) = slot else {
            return Err(SimError::WrongPageSize {
                vpage,
                expected: PageSize::Huge,
            });
        };
        let h = h.clone();
        let mut t = Box::new(L1Table::new());
        for i in 0..NR_SUBPAGES as usize {
            t.entries[i] = Some(Pte {
                frame: h.frame.add(i as u64),
                accessed: h.accessed,
                dirty: h.dirty && h.subpage_written(i),
                ever_written: h.subpage_written(i),
                hint: h.hint,
            });
        }
        t.mapped = NR_SUBPAGES as u16;
        *slot = L2Slot::Table(t);
        self.mapped_huge -= 1;
        self.mapped_base += NR_SUBPAGES;
        Ok(h)
    }

    /// Collapses 512 base mappings into one huge mapping over `new_frame`.
    /// All 512 subpages must currently be base-mapped. Returns the old PTEs
    /// (whose frames the caller must free after copying).
    pub fn collapse_huge(&mut self, vpage: VirtPage, new_frame: Frame) -> SimResult<Vec<Pte>> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let slot = self
            .l2_slot_mut(vpage.0, false)
            .ok_or(SimError::NotMapped(vpage))?;
        let L2Slot::Table(t) = slot else {
            return Err(SimError::WrongPageSize {
                vpage,
                expected: PageSize::Base,
            });
        };
        if t.mapped as u64 != NR_SUBPAGES {
            return Err(SimError::NotMapped(vpage));
        }
        // Collect without unwrap: a hole reports the exact unmapped subpage
        // instead of panicking, even if the `mapped` counter were ever
        // inconsistent with the entries.
        let mut ptes: Vec<Pte> = Vec::with_capacity(FANOUT);
        for (i, e) in t.entries.iter().enumerate() {
            match e {
                Some(p) => ptes.push(*p),
                None => return Err(SimError::NotMapped(vpage.add(i as u64))),
            }
        }
        let mut h = HugeEntry::new(new_frame);
        for (i, p) in ptes.iter().enumerate() {
            h.accessed |= p.accessed;
            h.dirty |= p.dirty;
            if p.ever_written {
                h.mark_subpage_written(i);
            }
        }
        *slot = L2Slot::Huge(h);
        self.mapped_huge += 1;
        self.mapped_base -= NR_SUBPAGES;
        Ok(ptes)
    }

    /// Visits every mapped entry (PT-scan substrate, cooling walks).
    ///
    /// Huge entries are visited once with the 2 MiB-aligned page number.
    pub fn for_each_entry(&mut self, mut f: impl FnMut(VirtPage, EntryMut<'_>)) {
        for (i4, l3) in self.root.entries.iter_mut().enumerate() {
            let Some(l3) = l3 else { continue };
            for (i3, l2) in l3.entries.iter_mut().enumerate() {
                let Some(l2) = l2 else { continue };
                for (i2, slot) in l2.slots.iter_mut().enumerate() {
                    let base = ((i4 as u64) << 27) | ((i3 as u64) << 18) | ((i2 as u64) << 9);
                    match slot {
                        L2Slot::Empty => {}
                        L2Slot::Huge(h) => f(VirtPage(base), EntryMut::Huge(h)),
                        L2Slot::Table(t) => {
                            if t.mapped == 0 {
                                continue;
                            }
                            for (i1, e) in t.entries.iter_mut().enumerate() {
                                if let Some(p) = e {
                                    f(VirtPage(base | i1 as u64), EntryMut::Base(p));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

memtis_obs::snap_struct!(Pte {
    frame,
    accessed,
    dirty,
    ever_written,
    hint,
});

memtis_obs::snap_struct!(HugeEntry {
    frame,
    accessed,
    dirty,
    hint,
    sub_written,
});

/// One record of the page table's entry stream.
enum PtRecord {
    Base { vpage: VirtPage, pte: Pte },
    Huge { vpage: VirtPage, entry: HugeEntry },
    End,
}

memtis_obs::snap_enum!(PtRecord {
    0 => Base { vpage, pte },
    1 => Huge { vpage, entry },
    2 => End,
});

/// The mapped counts, then every mapped entry in ascending virtual page
/// order (huge entries once), then an end record. Loading rebuilds the
/// table through the mapping calls; the walk cache starts cold (it is a
/// pure memo, so this does not affect simulated behavior).
impl memtis_obs::Snap for PageTable {
    const MIN_BYTES: usize = 8 + 8 + 1;
    fn save(&self, w: &mut memtis_obs::SnapWriter) {
        w.put(&self.mapped_base);
        w.put(&self.mapped_huge);
        for (i4, l3) in self.root.entries.iter().enumerate() {
            let Some(l3) = l3 else { continue };
            for (i3, l2) in l3.entries.iter().enumerate() {
                let Some(l2) = l2 else { continue };
                for (i2, slot) in l2.slots.iter().enumerate() {
                    let base = ((i4 as u64) << 27) | ((i3 as u64) << 18) | ((i2 as u64) << 9);
                    match slot {
                        L2Slot::Empty => {}
                        L2Slot::Huge(h) => w.put(&PtRecord::Huge {
                            vpage: VirtPage(base),
                            entry: h.clone(),
                        }),
                        L2Slot::Table(t) => {
                            for (i1, e) in t.entries.iter().enumerate() {
                                if let Some(pte) = *e {
                                    w.put(&PtRecord::Base {
                                        vpage: VirtPage(base | i1 as u64),
                                        pte,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        w.put(&PtRecord::End);
    }

    fn load(r: &mut memtis_obs::SnapReader<'_>) -> Result<Self, memtis_obs::SnapError> {
        use memtis_obs::SnapError;
        let mapped_base: u64 = r.get()?;
        let mapped_huge: u64 = r.get()?;
        let mut pt = PageTable::new();
        loop {
            match r.get()? {
                PtRecord::End => break,
                PtRecord::Base { vpage, pte } => {
                    pt.map_base(vpage, pte.frame)
                        .map_err(|_| SnapError::Corrupt("pt base mapping"))?;
                    let Some(EntryMut::Base(p)) = pt.entry_mut(vpage) else {
                        return Err(SnapError::Corrupt("pt rebuild lost base entry"));
                    };
                    *p = pte;
                }
                PtRecord::Huge { vpage, entry } => {
                    pt.map_huge(vpage, entry.frame)
                        .map_err(|_| SnapError::Corrupt("pt huge mapping"))?;
                    let Some(EntryMut::Huge(h)) = pt.entry_mut(vpage) else {
                        return Err(SnapError::Corrupt("pt rebuild lost huge entry"));
                    };
                    *h = entry;
                }
            }
        }
        if pt.mapped_base != mapped_base || pt.mapped_huge != mapped_huge {
            return Err(SnapError::Corrupt("pt mapped counts"));
        }
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_map_translate_unmap() {
        let mut pt = PageTable::new();
        let p = VirtPage(0x1234);
        assert!(pt.translate(p).is_none());
        pt.map_base(p, Frame(99)).unwrap();
        let t = pt.translate(p).unwrap();
        assert_eq!(t.frame, Frame(99));
        assert_eq!(t.size, PageSize::Base);
        assert_eq!(pt.rss_bytes(), 4096);
        assert_eq!(pt.map_base(p, Frame(1)), Err(SimError::AlreadyMapped(p)));
        let old = pt.unmap_base(p).unwrap();
        assert_eq!(old.frame, Frame(99));
        assert!(pt.translate(p).is_none());
        assert_eq!(pt.rss_bytes(), 0);
    }

    #[test]
    fn huge_map_translates_subpages() {
        let mut pt = PageTable::new();
        let hp = VirtPage(512 * 7);
        pt.map_huge(hp, Frame(1024)).unwrap();
        for i in [0u64, 1, 100, 511] {
            let t = pt.translate(hp.add(i)).unwrap();
            assert_eq!(t.frame, Frame(1024 + i));
            assert_eq!(t.size, PageSize::Huge);
        }
        assert_eq!(pt.rss_bytes(), 2 * 1024 * 1024);
        assert_eq!(pt.mapped_huge_pages(), 1);
    }

    #[test]
    fn huge_map_requires_alignment_and_emptiness() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map_huge(VirtPage(3), Frame(0)),
            Err(SimError::Unaligned(VirtPage(3)))
        );
        pt.map_base(VirtPage(512), Frame(5)).unwrap();
        assert_eq!(
            pt.map_huge(VirtPage(512), Frame(0)),
            Err(SimError::AlreadyMapped(VirtPage(512)))
        );
        // An L1 table emptied by unmaps can be replaced by a huge mapping.
        pt.unmap_base(VirtPage(512)).unwrap();
        pt.map_huge(VirtPage(512), Frame(0)).unwrap();
    }

    #[test]
    fn split_preserves_translation_and_written_bits() {
        let mut pt = PageTable::new();
        let hp = VirtPage(0);
        pt.map_huge(hp, Frame(2048)).unwrap();
        if let Some(EntryMut::Huge(h)) = pt.entry_mut(hp) {
            h.accessed = true;
            h.mark_subpage_written(3);
            h.mark_subpage_written(511);
        } else {
            panic!("expected huge entry");
        }
        let old = pt.split_huge(hp).unwrap();
        assert_eq!(old.frame, Frame(2048));
        assert_eq!(old.written_subpages(), 2);
        // Same frames, now base-mapped.
        for i in 0..512u64 {
            let t = pt.translate(hp.add(i)).unwrap();
            assert_eq!(t.frame, Frame(2048 + i));
            assert_eq!(t.size, PageSize::Base);
        }
        // `ever_written` propagated exactly to the written subpages.
        let check = |pt: &mut PageTable, i: u64| match pt.entry_mut(hp.add(i)) {
            Some(EntryMut::Base(p)) => p.ever_written,
            _ => panic!("expected base entry"),
        };
        assert!(check(&mut pt, 3));
        assert!(check(&mut pt, 511));
        assert!(!check(&mut pt, 0));
        assert_eq!(pt.mapped_base_pages(), 512);
        assert_eq!(pt.mapped_huge_pages(), 0);
    }

    #[test]
    fn collapse_restores_huge_mapping() {
        let mut pt = PageTable::new();
        let hp = VirtPage(1024);
        for i in 0..512u64 {
            pt.map_base(hp.add(i), Frame(9000 + i)).unwrap();
        }
        if let Some(EntryMut::Base(p)) = pt.entry_mut(hp.add(10)) {
            p.ever_written = true;
        }
        let old = pt.collapse_huge(hp, Frame(4096)).unwrap();
        assert_eq!(old.len(), 512);
        assert_eq!(old[0].frame, Frame(9000));
        let t = pt.translate(hp.add(10)).unwrap();
        assert_eq!(t.frame, Frame(4096 + 10));
        assert_eq!(t.size, PageSize::Huge);
        assert!(pt.huge_entry(hp).unwrap().subpage_written(10));
        assert!(!pt.huge_entry(hp).unwrap().subpage_written(11));
    }

    #[test]
    fn collapse_requires_all_subpages() {
        let mut pt = PageTable::new();
        for i in 0..511u64 {
            pt.map_base(VirtPage(i), Frame(i)).unwrap();
        }
        assert!(pt.collapse_huge(VirtPage(0), Frame(0)).is_err());
    }

    #[test]
    fn for_each_entry_visits_all() {
        let mut pt = PageTable::new();
        pt.map_base(VirtPage(1), Frame(1)).unwrap();
        pt.map_base(VirtPage(0x40000000 / 4096), Frame(2)).unwrap();
        pt.map_huge(VirtPage(512 * 9), Frame(512)).unwrap();
        let mut seen = Vec::new();
        pt.for_each_entry(|v, e| {
            let huge = matches!(e, EntryMut::Huge(_));
            seen.push((v, huge));
        });
        seen.sort();
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&(VirtPage(512 * 9), true)));
        assert!(seen.contains(&(VirtPage(1), false)));
    }

    #[test]
    fn walk_mut_matches_translate() {
        let mut pt = PageTable::new();
        pt.map_base(VirtPage(7), Frame(70)).unwrap();
        pt.map_huge(VirtPage(1024), Frame(2048)).unwrap();
        for vp in [VirtPage(7), VirtPage(1024 + 33)] {
            let tr = pt.translate(vp).unwrap();
            let frame = match pt.walk_mut(vp).unwrap() {
                EntryMut::Base(p) => p.frame,
                EntryMut::Huge(h) => h.frame.add(vp.subpage_index() as u64),
            };
            assert_eq!(frame, tr.frame);
        }
        assert!(pt.walk_mut(VirtPage(999)).is_none());
    }

    #[test]
    fn walk_cache_hits_within_region_and_survives_entry_edits() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPage(0), Frame(0)).unwrap();
        // Populate the cache, then mutate through it repeatedly.
        for i in 0..32u64 {
            match pt.walk_mut(VirtPage(i)).unwrap() {
                EntryMut::Huge(h) => h.mark_subpage_written(i as usize),
                _ => panic!("expected huge entry"),
            }
        }
        assert_eq!(pt.huge_entry(VirtPage(0)).unwrap().written_subpages(), 32);
    }

    /// Checks `walk_mut` against `translate` on a few pages of the region
    /// at `hp`, which also leaves the region cached for the next step.
    fn check_walk(pt: &mut PageTable, hp: VirtPage, step: &str) {
        for i in [0u64, 1, 100, 511] {
            let vp = hp.add(i);
            let want = pt.translate(vp).map(|t| (t.frame, t.size));
            let got = pt.walk_mut(vp).map(|e| match e {
                EntryMut::Base(p) => (p.frame, PageSize::Base),
                EntryMut::Huge(h) => (h.frame.add(i), PageSize::Huge),
            });
            assert_eq!(got, want, "{step}: subpage {i}");
        }
    }

    #[test]
    fn walk_cache_follows_every_structural_change() {
        let mut pt = PageTable::new();
        let hp = VirtPage(512 * 3);
        // A region 1024 regions on shares `hp`'s cache way.
        let alias = VirtPage(512 * (3 + WALK_CACHE_WAYS as u64));
        pt.map_huge(hp, Frame(2048)).unwrap();
        pt.map_huge(alias, Frame(1 << 20)).unwrap();
        check_walk(&mut pt, hp, "map");
        pt.split_huge(hp).unwrap();
        check_walk(&mut pt, hp, "split");
        pt.collapse_huge(hp, Frame(4096)).unwrap();
        check_walk(&mut pt, hp, "collapse");
        check_walk(&mut pt, alias, "aliasing region");
        check_walk(&mut pt, hp, "back from the alias");
        pt.unmap_huge(hp).unwrap();
        check_walk(&mut pt, hp, "unmap");
        assert!(pt.walk_mut(hp).is_none());
        pt.map_huge(hp, Frame(8192)).unwrap();
        check_walk(&mut pt, hp, "re-map");
        // A migration's remap swaps the frame of the cached entry in place.
        let Some(EntryMut::Huge(h)) = pt.entry_mut(hp) else {
            panic!("expected huge entry");
        };
        h.frame = Frame(512);
        check_walk(&mut pt, hp, "remap huge");
        pt.split_huge(hp).unwrap();
        pt.unmap_base(hp.add(1)).unwrap();
        check_walk(&mut pt, hp, "unmap base");
        pt.map_base(hp.add(1), Frame(77)).unwrap();
        check_walk(&mut pt, hp, "re-map base");
        let Some(EntryMut::Base(p)) = pt.entry_mut(hp.add(100)) else {
            panic!("expected base entry");
        };
        p.frame = Frame(99);
        check_walk(&mut pt, hp, "remap base");
        for i in 0..512 {
            pt.unmap_base(hp.add(i)).unwrap();
        }
        check_walk(&mut pt, hp, "unmap every base page");
        pt.map_huge(hp, Frame(16384)).unwrap();
        check_walk(&mut pt, hp, "re-map over an emptied table");
    }

    #[test]
    fn collapse_partial_region_errors_instead_of_panicking() {
        // Regression: collapse_huge used to `unwrap()` every subpage entry.
        let mut pt = PageTable::new();
        for i in 0..512u64 {
            if i != 100 {
                pt.map_base(VirtPage(i), Frame(i)).unwrap();
            }
        }
        assert_eq!(
            pt.collapse_huge(VirtPage(0), Frame(4096)),
            Err(SimError::NotMapped(VirtPage(0)))
        );
        // The table stays intact and usable: filling the hole lets the
        // collapse succeed.
        pt.map_base(VirtPage(100), Frame(100)).unwrap();
        let old = pt.collapse_huge(VirtPage(0), Frame(4096)).unwrap();
        assert_eq!(old.len(), 512);
        assert_eq!(pt.mapped_huge_pages(), 1);
    }

    #[test]
    fn snap_round_trips_mixed_mappings() {
        let mut pt = PageTable::new();
        pt.map_base(VirtPage(7), Frame(70)).unwrap();
        pt.map_huge(VirtPage(1024), Frame(2048)).unwrap();
        pt.map_base(VirtPage(0x40000000 / 4096), Frame(5)).unwrap();
        if let Some(EntryMut::Base(p)) = pt.entry_mut(VirtPage(7)) {
            p.accessed = true;
            p.ever_written = true;
        }
        if let Some(EntryMut::Huge(h)) = pt.entry_mut(VirtPage(1024)) {
            h.dirty = true;
            h.mark_subpage_written(42);
        }

        let mut w = memtis_obs::SnapWriter::new();
        w.put(&pt);
        let bytes = w.finish().unwrap();

        let mut r = memtis_obs::SnapReader::new(&bytes);
        let mut pt2: PageTable = r.get().unwrap();
        r.expect_end().unwrap();

        assert_eq!(pt2.mapped_base_pages(), pt.mapped_base_pages());
        assert_eq!(pt2.mapped_huge_pages(), pt.mapped_huge_pages());
        assert_eq!(pt2.translate(VirtPage(7)), pt.translate(VirtPage(7)));
        assert_eq!(
            pt2.translate(VirtPage(1024 + 42)),
            pt.translate(VirtPage(1024 + 42))
        );
        assert!(pt2.huge_entry(VirtPage(1024)).unwrap().subpage_written(42));
        match pt2.entry_mut(VirtPage(7)) {
            Some(EntryMut::Base(p)) => {
                assert!(p.accessed && p.ever_written && !p.dirty);
            }
            _ => panic!("expected base entry"),
        }
        // Re-serializing the restored table gives identical bytes.
        let mut w2 = memtis_obs::SnapWriter::new();
        w2.put(&pt2);
        assert_eq!(w2.finish().unwrap(), bytes);
    }

    #[test]
    fn snap_restore_rejects_corrupt_streams() {
        let pt = {
            let mut pt = PageTable::new();
            pt.map_base(VirtPage(1), Frame(1)).unwrap();
            pt
        };
        let mut w = memtis_obs::SnapWriter::new();
        w.put(&pt);
        let mut bytes = w.finish().unwrap();
        // Corrupt the entry tag (first byte after the two mapped counts).
        bytes[16] = 9;
        let mut r = memtis_obs::SnapReader::new(&bytes);
        assert!(matches!(
            r.get::<PageTable>(),
            Err(memtis_obs::SnapError::Corrupt("unknown PtRecord tag"))
        ));
        // Truncation mid-entry is a typed error, not a panic.
        let mut w = memtis_obs::SnapWriter::new();
        w.put(&pt);
        let bytes = w.finish().unwrap();
        let mut r = memtis_obs::SnapReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.get::<PageTable>().is_err());
    }

    #[test]
    fn unmap_wrong_size_reports_error() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPage(0), Frame(0)).unwrap();
        assert!(matches!(
            pt.unmap_base(VirtPage(0)),
            Err(SimError::WrongPageSize { .. })
        ));
        assert!(pt.unmap_huge(VirtPage(0)).is_ok());
    }
}
