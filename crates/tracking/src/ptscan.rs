//! Page-table scanning substrate.
//!
//! The classic software tracking mechanism (Nimble, TPP's aging, kstaled):
//! periodically walk every mapped page-table entry, harvest and clear the
//! hardware accessed/dirty bits. The paper's Insight #1 criticisms are
//! reproduced by construction: the cost grows with the number of mapped
//! entries (charged per entry by [`memtis_sim::policy::PolicyOps::scan_entries`]),
//! the result is a single recency bit per scan interval, and a huge page
//! yields one bit for all 512 subpages — no subpage resolution.

use memtis_sim::page_table::EntryMut;
use memtis_sim::prelude::{PageSize, PolicyOps, VirtPage};

/// Harvested state of one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRecord {
    /// The page (2 MiB-aligned for a huge mapping).
    pub vpage: VirtPage,
    /// Mapping size.
    pub size: PageSize,
    /// Accessed since the previous scan.
    pub accessed: bool,
}

/// Walks every mapped entry, reporting its accessed bit and clearing the
/// accessed and dirty bits.
///
/// The per-entry CPU cost is charged to the caller's cost sink, which is the
/// scalability wall of this mechanism for large memory.
pub fn scan_and_clear(ops: &mut PolicyOps<'_>, mut f: impl FnMut(ScanRecord)) {
    ops.scan_entries(|vpage, entry| {
        let rec = match entry {
            EntryMut::Base(p) => {
                let r = ScanRecord {
                    vpage,
                    size: PageSize::Base,
                    accessed: p.accessed,
                };
                p.accessed = false;
                p.dirty = false;
                r
            }
            EntryMut::Huge(h) => {
                let r = ScanRecord {
                    vpage,
                    size: PageSize::Huge,
                    accessed: h.accessed,
                };
                h.accessed = false;
                h.dirty = false;
                r
            }
        };
        f(rec);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn scan_reports_and_clears_bits() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.access(Access::store(0)).unwrap();
        m.access(Access::load(512 * 4096)).unwrap();

        let mut acct = CostAccounting::default();
        let mut recs = Vec::new();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        scan_and_clear(&mut ops, |r| recs.push(r));
        recs.sort_by_key(|r| r.vpage);
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].vpage, recs[0].size), (VirtPage(0), PageSize::Base));
        assert_eq!(
            (recs[1].vpage, recs[1].size),
            (VirtPage(512), PageSize::Huge)
        );
        assert!(recs.iter().all(|r| r.accessed));
        // Both bits are cleared, the store's dirty bit included.
        ops.scan_entries(|_, entry| match entry {
            EntryMut::Base(p) => assert!(!p.accessed && !p.dirty),
            EntryMut::Huge(h) => assert!(!h.accessed && !h.dirty),
        });
        // Scanning again finds every entry unaccessed.
        recs.clear();
        scan_and_clear(&mut ops, |r| recs.push(r));
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| !r.accessed));
        // Cost charged per entry, over three walks.
        assert!(acct.daemon_ns >= 6.0 * memtis_sim::policy::SCAN_ENTRY_NS);
    }

    #[test]
    fn huge_page_hides_subpage_detail() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        // Touch a single subpage: the scan sees the whole 2 MiB as accessed.
        m.access(Access::load(137 * 4096)).unwrap();
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        let mut got = None;
        scan_and_clear(&mut ops, |r| got = Some(r));
        let r = got.unwrap();
        assert_eq!(r.size, PageSize::Huge);
        assert!(r.accessed);
        // One record for 512 subpages: no way to tell which one was hot.
    }
}
