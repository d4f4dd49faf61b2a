//! Page table with 4 KiB and 2 MiB mappings.
//!
//! Each mapped 2 MiB region owns one PMD slot, found through a
//! [`RegionMap`] keyed by the full region number (`vpn >> 9`). A 2 MiB
//! mapping occupies the slot itself; 4 KiB mappings hang a table of 512
//! PTEs off it. Splitting replaces the PMD entry with a PTE table over the
//! *same* physical frames (in-place THP split, as in the kernel), and
//! collapsing installs a PMD entry over a freshly allocated huge frame.
//! The upper levels of an x86-64 radix tree are not stored: the simulated
//! walk is priced by [`PageSize::walk_levels`] (4 levels for a base page,
//! 3 for a huge page), not by the storage that answers it.
//!
//! Each entry carries the bits tiering systems rely on: the hardware
//! `accessed`/`dirty` bits (harvested and cleared by page-table-scanning
//! policies), a `hint` bit emulating AutoNUMA-style protection faults, and a
//! sticky `ever_written` bit per 4 KiB subpage that the huge-page splitter
//! uses to free all-zero subpages (§4.3.3 of the paper).

use crate::addr::{Frame, PageSize, VirtPage, NR_SUBPAGES};
use crate::error::{SimError, SimResult};
use crate::region_map::RegionMap;

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

/// What a mapped 2 MiB region's PMD slot holds. An unmapped region has no
/// slot: the table removes a region when its last mapping goes.
#[derive(Debug)]
enum L2Slot {
    Huge(HugeEntry),
    Table(Box<L1Table>),
}

/// Mutable view over a mapped entry, produced by the scan API.
pub enum EntryMut<'a> {
    /// A base-page entry.
    Base(&'a mut Pte),
    /// A huge-page entry.
    Huge(&'a mut HugeEntry),
}

/// The page table of the simulated address space: one PMD slot per mapped
/// 2 MiB region, keyed by the full region number.
#[derive(Debug, Default)]
pub struct PageTable {
    pmds: RegionMap<L2Slot>,
    mapped_base: u64,
    mapped_huge: u64,
}

/// The region (`vpn >> 9`) holding `vpage`.
#[inline]
fn region(vpage: VirtPage) -> u64 {
    vpage.0 >> 9
}

/// The first page of `region`.
fn region_page(region: u64) -> VirtPage {
    VirtPage(region << 9)
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
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

    /// Translates a virtual page to its backing frame.
    pub fn translate(&self, vpage: VirtPage) -> Option<Translation> {
        match self.pmds.get(region(vpage))? {
            L2Slot::Huge(h) => Some(Translation {
                frame: h.frame.add(vpage.subpage_index() as u64),
                size: PageSize::Huge,
                hint: h.hint,
            }),
            L2Slot::Table(t) => {
                let pte = t.entries[vpage.subpage_index()].as_ref()?;
                Some(Translation {
                    frame: pte.frame,
                    size: PageSize::Base,
                    hint: pte.hint,
                })
            }
        }
    }

    /// Single-walk access fast path: one lookup yields the mutable entry
    /// covering `vpage`, from which the caller reads the translation *and*
    /// updates accessed/dirty/hint bits.
    #[inline]
    pub fn walk_mut(&mut self, vpage: VirtPage) -> Option<EntryMut<'_>> {
        match self.pmds.get_mut(region(vpage))? {
            L2Slot::Huge(h) => Some(EntryMut::Huge(h)),
            L2Slot::Table(t) => t.entries[vpage.subpage_index()]
                .as_mut()
                .map(EntryMut::Base),
        }
    }

    /// Maps a 4 KiB page to `frame`.
    pub fn map_base(&mut self, vpage: VirtPage, frame: Frame) -> SimResult<()> {
        let slot = self
            .pmds
            .get_or_insert_with(region(vpage), || L2Slot::Table(Box::new(L1Table::new())));
        let L2Slot::Table(t) = slot else {
            return Err(SimError::AlreadyMapped(vpage));
        };
        let e = &mut t.entries[vpage.subpage_index()];
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
        if self.pmds.get(region(vpage)).is_some() {
            return Err(SimError::AlreadyMapped(vpage));
        }
        self.pmds
            .get_or_insert_with(region(vpage), || L2Slot::Huge(HugeEntry::new(frame)));
        self.mapped_huge += 1;
        Ok(())
    }

    /// Unmaps a 4 KiB page, returning the old entry.
    pub fn unmap_base(&mut self, vpage: VirtPage) -> SimResult<Pte> {
        let t = match self.pmds.get_mut(region(vpage)) {
            Some(L2Slot::Table(t)) => t,
            Some(L2Slot::Huge(_)) => {
                return Err(SimError::WrongPageSize {
                    vpage,
                    expected: PageSize::Base,
                })
            }
            None => return Err(SimError::NotMapped(vpage)),
        };
        let e = t.entries[vpage.subpage_index()]
            .take()
            .ok_or(SimError::NotMapped(vpage))?;
        t.mapped -= 1;
        if t.mapped == 0 {
            self.pmds.remove(region(vpage));
        }
        self.mapped_base -= 1;
        Ok(e)
    }

    /// Unmaps a 2 MiB page, returning the old entry.
    pub fn unmap_huge(&mut self, vpage: VirtPage) -> SimResult<HugeEntry> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        match self.pmds.get(region(vpage)) {
            None => return Err(SimError::NotMapped(vpage)),
            Some(L2Slot::Table(_)) => {
                return Err(SimError::WrongPageSize {
                    vpage,
                    expected: PageSize::Huge,
                })
            }
            Some(L2Slot::Huge(_)) => {}
        }
        let Some(L2Slot::Huge(h)) = self.pmds.remove(region(vpage)) else {
            return Err(SimError::Internal("huge slot changed variant mid-unmap"));
        };
        self.mapped_huge -= 1;
        Ok(h)
    }

    /// Returns a mutable reference to the entry covering `vpage`, if mapped.
    pub fn entry_mut(&mut self, vpage: VirtPage) -> Option<EntryMut<'_>> {
        self.walk_mut(vpage)
    }

    /// Returns the huge entry at `vpage`, if it is huge-mapped.
    pub fn huge_entry(&self, vpage: VirtPage) -> Option<&HugeEntry> {
        match self.pmds.get(region(vpage))? {
            L2Slot::Huge(h) => Some(h),
            L2Slot::Table(_) => None,
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
            .pmds
            .get_mut(region(vpage))
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
            .pmds
            .get_mut(region(vpage))
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

    /// Visits every mapped entry in ascending virtual page order (PT-scan
    /// substrate, cooling walks).
    ///
    /// Huge entries are visited once with the 2 MiB-aligned page number.
    pub fn for_each_entry(&mut self, mut f: impl FnMut(VirtPage, EntryMut<'_>)) {
        self.pmds.for_each_mut(|region, slot| match slot {
            L2Slot::Huge(h) => f(region_page(region), EntryMut::Huge(h)),
            L2Slot::Table(t) => {
                for (i, e) in t.entries.iter_mut().enumerate() {
                    if let Some(p) = e {
                        f(region_page(region).add(i as u64), EntryMut::Base(p));
                    }
                }
            }
        });
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
/// table through the mapping calls.
impl memtis_obs::Snap for PageTable {
    const MIN_BYTES: usize = 8 + 8 + 1;
    fn save(&self, w: &mut memtis_obs::SnapWriter) {
        w.put(&self.mapped_base);
        w.put(&self.mapped_huge);
        for (region, slot) in self.pmds.iter() {
            match slot {
                L2Slot::Huge(h) => w.put(&PtRecord::Huge {
                    vpage: region_page(region),
                    entry: h.clone(),
                }),
                L2Slot::Table(t) => {
                    for (i, e) in t.entries.iter().enumerate() {
                        if let Some(pte) = *e {
                            w.put(&PtRecord::Base {
                                vpage: region_page(region).add(i as u64),
                                pte,
                            });
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
    fn walk_mut_edits_persist_within_region() {
        let mut pt = PageTable::new();
        pt.map_huge(VirtPage(0), Frame(0)).unwrap();
        // Mutate one region's entry through repeated walks.
        for i in 0..32u64 {
            match pt.walk_mut(VirtPage(i)).unwrap() {
                EntryMut::Huge(h) => h.mark_subpage_written(i as usize),
                _ => panic!("expected huge entry"),
            }
        }
        assert_eq!(pt.huge_entry(VirtPage(0)).unwrap().written_subpages(), 32);
    }

    /// Checks `walk_mut` against `translate` on a few pages of the region
    /// at `hp`, which also leaves the region in the map's memo for the next
    /// step.
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
    fn walk_mut_follows_every_structural_change() {
        let mut pt = PageTable::new();
        let hp = VirtPage(512 * 3);
        // A region 1024 regions on shares `hp`'s memo way.
        let alias = VirtPage(512 * (3 + 1024));
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
        // A migration's remap swaps the frame of the entry in place.
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
    fn high_address_bits_do_not_alias() {
        // Regression: the radix tree this table replaced dropped vpn bits
        // 36 and up, so this page answered with page 5's frame and could
        // not be mapped.
        let mut pt = PageTable::new();
        let low = VirtPage(5);
        let high = VirtPage(5 + (1 << 36));
        pt.map_base(low, Frame(7)).unwrap();
        assert_eq!(pt.translate(high), None);
        assert!(pt.walk_mut(high).is_none());
        pt.map_base(high, Frame(8)).unwrap();
        assert_eq!(pt.translate(low).unwrap().frame, Frame(7));
        assert_eq!(pt.translate(high).unwrap().frame, Frame(8));
        let listed = |pt: &mut PageTable| {
            let mut seen = Vec::new();
            pt.for_each_entry(|v, e| {
                let EntryMut::Base(p) = e else {
                    panic!("expected base entries");
                };
                seen.push((v, p.frame));
            });
            seen
        };
        let want = vec![(low, Frame(7)), (high, Frame(8))];
        assert_eq!(listed(&mut pt), want);
        let mut w = memtis_obs::SnapWriter::new();
        w.put(&pt);
        let bytes = w.finish().unwrap();
        let mut restored: PageTable = memtis_obs::SnapReader::new(&bytes).get().unwrap();
        assert_eq!(listed(&mut restored), want);
        assert_eq!(restored.mapped_base_pages(), 2);
    }

    #[test]
    fn emptied_regions_are_dropped_and_remappable() {
        let mut pt = PageTable::new();
        pt.map_base(VirtPage(512), Frame(1)).unwrap();
        pt.map_huge(VirtPage(1024), Frame(512)).unwrap();
        pt.unmap_base(VirtPage(512)).unwrap();
        pt.unmap_huge(VirtPage(1024)).unwrap();
        assert_eq!(pt.pmds.iter().count(), 0);
        assert_eq!(
            pt.unmap_huge(VirtPage(1024)),
            Err(SimError::NotMapped(VirtPage(1024)))
        );
        pt.map_huge(VirtPage(512), Frame(1024)).unwrap();
        pt.map_base(VirtPage(1024 + 3), Frame(3)).unwrap();
        assert_eq!(pt.translate(VirtPage(512 + 9)).unwrap().frame, Frame(1033));
        assert_eq!(pt.translate(VirtPage(1024 + 3)).unwrap().frame, Frame(3));
        assert_eq!(pt.rss_bytes(), 2 * 1024 * 1024 + 4096);
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
