//! Memory-access records flowing from workloads through the machine.

use crate::addr::{PageSize, TierId, VirtAddr, VirtPage};

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read).
    Load,
    /// A store (write).
    Store,
}

/// One memory access issued by the simulated application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The virtual address touched.
    pub vaddr: VirtAddr,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A load of `vaddr`.
    pub fn load(vaddr: u64) -> Self {
        Access {
            vaddr: VirtAddr(vaddr),
            kind: AccessKind::Load,
        }
    }

    /// A store to `vaddr`.
    pub fn store(vaddr: u64) -> Self {
        Access {
            vaddr: VirtAddr(vaddr),
            kind: AccessKind::Store,
        }
    }

    /// Whether this access is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.kind == AccessKind::Store
    }
}

/// What happened when the machine executed one access.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Total latency charged to the application for this access (ns),
    /// including translation, cache, memory, and any fault handling.
    pub latency_ns: f64,
    /// The 4 KiB virtual page touched.
    pub vpage: VirtPage,
    /// Size of the mapping that served the access.
    pub page_size: PageSize,
    /// Tier that served the access (meaningful whether or not the LLC hit;
    /// it is the tier the page resides on).
    pub tier: TierId,
    /// Whether the access missed the LLC and paid the tier latency. PEBS
    /// samples exactly these (LLC-miss loads) plus retired stores.
    pub llc_miss: bool,
    /// Whether the TLB missed and a page walk was performed.
    pub tlb_miss: bool,
    /// Whether a NUMA-hint protection fault fired (the policy's
    /// `on_hint_fault` will be invoked by the driver).
    pub hint_fault: bool,
    /// Whether a demand-paging fault fired (page was unmapped and the driver
    /// mapped it on the fly).
    pub demand_fault: bool,
}

/// One executed access awaiting deferred policy delivery: the access, what
/// happened, and the simulated wall clock at which the per-event driver loop
/// would have delivered it to [`TieringPolicy::on_access`].
///
/// [`TieringPolicy::on_access`]: crate::policy::TieringPolicy::on_access
#[derive(Debug, Clone, Copy)]
pub struct AccessRecord {
    /// The access as issued by the workload.
    pub access: Access,
    /// The machine's outcome for it.
    pub outcome: AccessOutcome,
    /// Wall clock (ns) at delivery time — before this access's own latency
    /// advanced the clock, exactly as the per-event loop timestamps it.
    pub now_ns: f64,
}

/// Number of access classes a [`RecordFilter`] counts: LLC-hit loads,
/// LLC-miss loads and stores, indexed 0, 1 and 2 in that order.
pub const ACCESS_CLASSES: usize = 3;

/// A PEBS program for [`Machine::access_batch`]: which executed accesses a
/// deferring driver materializes as [`AccessRecord`]s for batched policy
/// delivery.
///
/// Like a PEBS counter, each access class counts down to its next record
/// and re-arms with its period after each one; the record cap then ends the
/// burst. The machine still executes every access — state, statistics and
/// clocks advance normally — and leaves the number of events it counted in
/// each class in [`Machine::batch_tally`], so a sampling policy handed only
/// the firing records can bring its own counters up to date in O(records).
/// A class set to [`RecordFilter::OFF`] is never counted or recorded.
///
/// [`Machine::access_batch`]: crate::machine::Machine::access_batch
/// [`Machine::batch_tally`]: crate::machine::Machine::batch_tally
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFilter {
    /// Per class: counted events up to and including the next recorded one
    /// (≥ 1), or [`RecordFilter::OFF`].
    pub next: [u64; ACCESS_CLASSES],
    /// Per class: what `next` re-arms to after each record (≥ 1).
    pub period: [u64; ACCESS_CLASSES],
    /// The burst stops after this many records (≥ 1).
    pub cap: usize,
}

impl RecordFilter {
    /// Countdown of a class that is never counted.
    pub const OFF: u64 = u64::MAX;

    /// Record every access (required by any policy that replays records
    /// one-by-one through `on_access`).
    pub const ALL: RecordFilter = RecordFilter {
        next: [1; ACCESS_CLASSES],
        period: [1; ACCESS_CLASSES],
        cap: usize::MAX,
    };

    /// Record nothing (policies that ignore accesses entirely).
    pub const NONE: RecordFilter = RecordFilter {
        next: [Self::OFF; ACCESS_CLASSES],
        period: [Self::OFF; ACCESS_CLASSES],
        cap: usize::MAX,
    };

    /// The class of an access, without branching on its kind: 0 for an
    /// LLC-hit load, 1 for an LLC-miss load, 2 for a store.
    #[inline]
    pub(crate) fn class_of(kind: AccessKind, llc_miss: bool) -> usize {
        let store = (kind == AccessKind::Store) as usize;
        (store << 1) | (llc_miss as usize & (store ^ 1))
    }

    /// Whether this program counts class `class`.
    #[inline]
    pub(crate) fn counts(&self, class: usize) -> bool {
        self.next[class] != Self::OFF
    }

    /// Counts one event of class `class`; true when it is recorded, which
    /// re-arms the class with its period. An [`RecordFilter::OFF`] class
    /// would need 2^64 events to fire.
    #[inline]
    pub(crate) fn fire(&mut self, class: usize) -> bool {
        self.next[class] -= 1;
        if self.next[class] == 0 {
            self.next[class] = self.period[class];
            true
        } else {
            false
        }
    }

    /// Events of each counted class between program state `self` and the
    /// later state `now`, given how many records each class `fired` in
    /// between: every event decrements its countdown once and every record
    /// adds the period back. Uncounted classes read 0.
    pub(crate) fn tally(
        &self,
        now: &RecordFilter,
        fired: &[u64; ACCESS_CLASSES],
    ) -> [u64; ACCESS_CLASSES] {
        std::array::from_fn(|c| {
            if self.counts(c) {
                self.next[c]
                    .wrapping_add(fired[c].wrapping_mul(self.period[c]))
                    .wrapping_sub(now.next[c])
            } else {
                0
            }
        })
    }

    /// Runs the program over `candidates` — stream-ordered records of the
    /// counted classes, e.g. a sharded burst's merged records — appending
    /// each one that fires to `out` and stopping after the cap'th. Returns
    /// how many candidates it consumed and the per-class tally of them.
    pub(crate) fn select(
        &self,
        candidates: &[AccessRecord],
        out: &mut Vec<AccessRecord>,
    ) -> (usize, [u64; ACCESS_CLASSES]) {
        let mut prog = *self;
        let mut fired = [0u64; ACCESS_CLASSES];
        let mut kept = 0usize;
        let mut consumed = candidates.len();
        for (i, rec) in candidates.iter().enumerate() {
            let class = Self::class_of(rec.access.kind, rec.outcome.llc_miss);
            debug_assert!(self.counts(class), "candidate of an uncounted class");
            if prog.fire(class) {
                fired[class] += 1;
                out.push(*rec);
                kept += 1;
                if kept == self.cap {
                    consumed = i + 1;
                    break;
                }
            }
        }
        (consumed, self.tally(&prog, &fired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let l = Access::load(0x1000);
        assert_eq!(l.kind, AccessKind::Load);
        assert!(!l.is_store());
        let s = Access::store(0x2000);
        assert!(s.is_store());
        assert_eq!(s.vaddr, VirtAddr(0x2000));
    }
}
