//! NUMA-hint-fault sampling substrate (AutoNUMA-style).
//!
//! AutoNUMA-family systems (AutoNUMA, AutoTiering, Tiering-0.8, TPP) learn
//! about accesses by periodically write-protecting a window of the address
//! space; the next touch of a protected page traps, and the fault handler
//! records — and often migrates — on the *application's critical path*.
//! The simulator's machine charges the trap cost to the faulting access; this
//! module provides the rotating-window arming logic the kernel calls
//! `task_numa_work`.

use memtis_sim::prelude::{PageSize, PolicyOps, VirtPage};
use std::collections::BTreeSet;

/// Rotating-window hint-fault armer.
///
/// Tracks the set of mapped pages (fed by the policy's alloc/free hooks) and
/// arms the hint bit on the next `pages_per_round` pages each round, wrapping
/// at the end — the same cyclic coverage as the kernel's NUMA balancing.
#[derive(Debug)]
pub struct HintFaultSampler {
    pages: BTreeSet<VirtPage>,
    cursor: Option<VirtPage>,
    /// Pages armed per round.
    pub pages_per_round: usize,
    /// When set, pages per round scale with the tracked set so one full
    /// sweep takes this many rounds (the kernel's scan-period behaviour:
    /// coverage time is roughly constant regardless of memory size).
    pub sweep_rounds: Option<u32>,
    /// Total hint bits armed.
    pub armed: u64,
}

impl HintFaultSampler {
    /// Creates a sampler arming `pages_per_round` pages per round.
    pub fn new(pages_per_round: usize) -> Self {
        HintFaultSampler {
            pages: BTreeSet::new(),
            cursor: None,
            pages_per_round,
            sweep_rounds: None,
            armed: 0,
        }
    }

    /// Creates a sampler that sweeps the whole tracked set once every
    /// `rounds` rounds, whatever its size.
    pub fn sweeping(rounds: u32) -> Self {
        HintFaultSampler {
            sweep_rounds: Some(rounds.max(1)),
            ..Self::new(1)
        }
    }

    /// Registers a newly mapped page (huge pages register their head page).
    pub fn on_alloc(&mut self, vpage: VirtPage, _size: PageSize) {
        self.pages.insert(vpage);
    }

    /// Unregisters a freed page.
    pub fn on_free(&mut self, vpage: VirtPage) {
        self.pages.remove(&vpage);
    }

    /// Re-registers a page under a new granularity after split/collapse.
    pub fn replace(&mut self, old: VirtPage, new: impl IntoIterator<Item = VirtPage>) {
        self.pages.remove(&old);
        self.pages.extend(new);
    }

    /// Number of tracked pages.
    pub fn tracked(&self) -> usize {
        self.pages.len()
    }

    /// Arms the next window of pages. Each armed page will deliver one hint
    /// fault on its next access.
    pub fn arm_round(&mut self, ops: &mut PolicyOps<'_>) {
        if self.pages.is_empty() {
            return;
        }
        let per_round = match self.sweep_rounds {
            Some(r) => (self.pages.len()).div_ceil(r as usize).max(1),
            None => self.pages_per_round,
        };
        let mut armed_now = 0;
        let mut cursor = self.cursor;
        while armed_now < per_round {
            // Advance (with wraparound) from the cursor.
            let next = match cursor {
                Some(c) => self
                    .pages
                    .range((std::ops::Bound::Excluded(c), std::ops::Bound::Unbounded))
                    .next()
                    .copied(),
                None => None,
            }
            .or_else(|| self.pages.iter().next().copied());
            let Some(p) = next else { break };
            if ops.set_hint(p) {
                self.armed += 1;
            }
            armed_now += 1;
            cursor = Some(p);
            if self.pages.len() <= armed_now {
                break;
            }
        }
        self.cursor = cursor;
    }
}

memtis_sim::obs::snap_struct!(HintFaultSampler {
    pages,
    cursor,
    pages_per_round,
    sweep_rounds,
    armed,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn arms_in_rotating_windows() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        for i in 0..6u64 {
            m.alloc_and_map(VirtPage(i), PageSize::Base, TierId::FAST)
                .unwrap();
        }
        let mut s = HintFaultSampler::new(2);
        for i in 0..6u64 {
            s.on_alloc(VirtPage(i), PageSize::Base);
        }
        let mut acct = CostAccounting::default();
        let mut armed_pages = Vec::new();
        for _ in 0..3 {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            s.arm_round(&mut ops);
            // Record which pages now fault.
            for i in 0..6u64 {
                let o = m.access(Access::load(i * 4096)).unwrap();
                if o.hint_fault {
                    armed_pages.push(i);
                }
            }
        }
        armed_pages.sort_unstable();
        assert_eq!(armed_pages, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.armed, 6);
    }

    #[test]
    fn wraps_around_after_last_page() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        for i in 0..3u64 {
            m.alloc_and_map(VirtPage(i), PageSize::Base, TierId::FAST)
                .unwrap();
        }
        let mut s = HintFaultSampler::new(2);
        for i in 0..3u64 {
            s.on_alloc(VirtPage(i), PageSize::Base);
        }
        let mut acct = CostAccounting::default();
        for _ in 0..2 {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            s.arm_round(&mut ops);
        }
        // 4 arms over 3 pages: at least one page armed twice (wraparound).
        assert_eq!(s.armed, 4);
    }

    #[test]
    fn free_removes_from_tracking() {
        let mut s = HintFaultSampler::new(8);
        s.on_alloc(VirtPage(1), PageSize::Base);
        s.on_alloc(VirtPage(2), PageSize::Base);
        s.on_free(VirtPage(1));
        assert_eq!(s.tracked(), 1);
        s.replace(VirtPage(2), (0..4).map(VirtPage));
        assert_eq!(s.tracked(), 4);
    }
}
