//! AutoTiering (ATC '21) — page management for multi-tier NUMA systems.
//!
//! Reproduced decision rules (paper Table 1, §2.2, §6.2.6):
//!
//! - NUMA-hint faults drive an N-bit access-history vector per page (one bit
//!   per scan interval).
//! - Promotion uses a static access count (first fault in the current
//!   interval promotes, critical path); when the fast tier is full, the
//!   *demotion victim is chosen by LFU* over the history vectors, and the
//!   pages are effectively exchanged.
//! - A background thread demotes to keep free pages in reserve, but the
//!   reserve is used **only for promotions** — new allocations of
//!   short-lived data go to the capacity tier when the free space is at or
//!   below the reserve, the behaviour that costs it 603.bwaves performance.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    DetHashMap, PageSize, PolicyDescriptor, PolicyOps, RecordFilter, SimError, TierId,
    TieringPolicy, VirtPage,
};
use memtis_tracking::hintfault::HintFaultSampler;

/// AutoTiering tunables.
#[derive(Debug, Clone)]
pub struct AutoTieringConfig {
    /// Hint-bit sweep length: one full pass over tracked pages takes
    /// this many ticks (kernel-like constant coverage time).
    pub sweep_rounds: u32,
    /// History-vector shift period, in ticks (one "scan interval").
    pub shift_every_ticks: u32,
    /// Fast-tier reserve kept free by the background demoter (fraction).
    pub reserve_frac: f64,
    /// Demotion budget per tick (bytes).
    pub demote_batch_bytes: u64,
}

impl Default for AutoTieringConfig {
    fn default() -> Self {
        AutoTieringConfig {
            sweep_rounds: 192,
            shift_every_ticks: 8,
            reserve_frac: 0.02,
            demote_batch_bytes: 16 << 20,
        }
    }
}

/// One LFU bucket per possible popcount of the 8-bit history (0..=8).
const LFU_BUCKETS: usize = 9;

#[derive(Debug, Clone, Copy, Default)]
struct Hist {
    bits: u8,
    size_huge: bool,
}

impl Hist {
    fn lfu(&self) -> u32 {
        self.bits.count_ones()
    }
}

/// The AutoTiering policy.
pub struct AutoTieringPolicy {
    cfg: AutoTieringConfig,
    sampler: HintFaultSampler,
    pages: DetHashMap<VirtPage, Hist>,
    /// LFU demotion candidates (fast tier), rebuilt at each history shift:
    /// bucket index = popcount of the history vector.
    lfu_buckets: Vec<Vec<VirtPage>>,
    ticks: u32,
    /// Promotions performed in the fault handler.
    pub critical_path_promotions: u64,
}

impl AutoTieringPolicy {
    /// Creates the policy.
    pub fn new(cfg: AutoTieringConfig) -> Self {
        let sweep = cfg.sweep_rounds;
        AutoTieringPolicy {
            cfg,
            sampler: HintFaultSampler::sweeping(sweep),
            pages: DetHashMap::default(),
            lfu_buckets: vec![Vec::new(); LFU_BUCKETS],
            ticks: 0,
            critical_path_promotions: 0,
        }
    }

    fn size_of(h: &Hist) -> PageSize {
        if h.size_huge {
            PageSize::Huge
        } else {
            PageSize::Base
        }
    }

    /// Demotes the least-frequently-used fast-tier pages.
    fn demote_lfu(&mut self, ops: &mut PolicyOps<'_>, need: u64, mut budget: u64) -> u64 {
        let start = budget;
        'outer: for b in 0..self.lfu_buckets.len() {
            while let Some(victim) = self.lfu_buckets[b].pop() {
                if ops.free_bytes(TierId::FAST) >= need || budget == 0 {
                    break 'outer;
                }
                let Some(h) = self.pages.get(&victim) else {
                    continue;
                };
                // Stale LFU entries (page got hotter) are skipped.
                if h.lfu() as usize > b {
                    continue;
                }
                let size = Self::size_of(h);
                match ops.locate(victim) {
                    Some((TierId::FAST, s)) if s == size => {}
                    _ => continue,
                }
                match ops.migrate(victim, TierId::CAPACITY) {
                    Ok(_) => {
                        budget = budget.saturating_sub(size.bytes());
                        self.sampler.on_alloc(victim, size);
                    }
                    Err(SimError::OutOfMemory { .. }) => break 'outer,
                    Err(_) => continue,
                }
            }
        }
        start - budget
    }
}

impl TieringPolicy for AutoTieringPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "AutoTiering",
            mechanism: "Page fault",
            subpage_tracking: false,
            promotion_metric: "Recency",
            demotion_metric: "Frequency",
            thresholding: "Static count (promo), LFU (demo)",
            critical_path_migration: "Promotion",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
        // The reserve is for promotions only: new data spills to the
        // capacity tier once free space reaches the reserve.
        let reserve = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.reserve_frac) as u64;
        if ops.free_bytes(TierId::FAST) >= size.bytes() + reserve {
            TierId::FAST
        } else {
            TierId::CAPACITY
        }
    }

    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        vpage: VirtPage,
        size: PageSize,
        tier: TierId,
    ) {
        self.pages.insert(
            vpage,
            Hist {
                bits: 0,
                size_huge: size == PageSize::Huge,
            },
        );
        if tier != TierId::FAST {
            self.sampler.on_alloc(vpage, size);
        }
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.pages.remove(&vpage);
        self.sampler.on_free(vpage);
    }

    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        let key = match ops.locate(vpage) {
            Some((_, PageSize::Huge)) => vpage.huge_aligned(),
            _ => vpage,
        };
        let Some(h) = self.pages.get_mut(&key) else {
            return;
        };
        h.bits |= 1;
        let size = Self::size_of(h);
        match ops.locate(key) {
            Some((t, s)) if t != TierId::FAST && s == size => {}
            _ => return,
        }
        // Promote on the critical path; make room by LFU demotion.
        if ops.free_bytes(TierId::FAST) < size.bytes() {
            self.demote_lfu(ops, size.bytes(), self.cfg.demote_batch_bytes);
        }
        if ops.migrate(key, TierId::FAST).is_ok() {
            self.critical_path_promotions += 1;
            self.sampler.on_free(key);
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        self.sampler.arm_round(ops);
        if self.ticks.is_multiple_of(self.cfg.shift_every_ticks) {
            // End of a scan interval: shift history vectors and rebuild the
            // LFU buckets over fast-tier residents.
            for b in &mut self.lfu_buckets {
                b.clear();
            }
            let mut entries: Vec<(VirtPage, u32)> = Vec::new();
            for (&v, h) in self.pages.iter_mut() {
                h.bits <<= 1;
                entries.push((v, h.lfu()));
            }
            // Bucket order decides demotion order, so fill the buckets in
            // page order, not hash-table order: a map restored from a
            // checkpoint has a different layout than the one it was saved
            // from.
            entries.sort_unstable_by_key(|e| e.0);
            for (v, lfu) in entries {
                if matches!(ops.locate(v), Some((TierId::FAST, _))) {
                    self.lfu_buckets[lfu as usize].push(v);
                }
            }
        }
        // Background demoter keeps the promotion reserve.
        let reserve = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.reserve_frac) as u64;
        if ops.free_bytes(TierId::FAST) < reserve {
            self.demote_lfu(ops, reserve, self.cfg.demote_batch_bytes);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

memtis_sim::obs::snap_struct!(Hist { bits, size_huge });

memtis_sim::obs::snap_struct!(in AutoTieringPolicy {
    @fp cfg,
    sampler,
    pages,
    lfu_buckets,
    ticks,
    critical_path_promotions,
} check |p: &mut AutoTieringPolicy| {
    if p.lfu_buckets.len() != LFU_BUCKETS {
        return Err(SnapError::Corrupt("lfu bucket count"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn new_allocations_avoid_the_promotion_reserve() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            2 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = AutoTieringPolicy::new(AutoTieringConfig {
            reserve_frac: 0.5,
            ..Default::default()
        });
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        // First huge page fits above the 50% reserve.
        assert_eq!(
            p.alloc_tier(&mut ops, VirtPage(0), PageSize::Huge),
            TierId::FAST
        );
        let _ = ops;
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        // The second would dip into the reserve: goes to capacity.
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        assert_eq!(
            p.alloc_tier(&mut ops, VirtPage(512), PageSize::Huge),
            TierId::CAPACITY
        );
    }

    #[test]
    fn fault_promotes_with_lfu_exchange() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        let mut p = AutoTieringPolicy::new(AutoTieringConfig {
            shift_every_ticks: 1,
            reserve_frac: 0.0,
            ..Default::default()
        });
        // Cold page fills the fast tier; hot page waits in capacity.
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::FAST);
            p.on_alloc(&mut ops, VirtPage(512), PageSize::Huge, TierId::CAPACITY);
        }
        // Build LFU buckets (page 0 has history 0 → LFU victim).
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        // Fault on the capacity page: exchange happens on the critical path.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_hint_fault(&mut ops, VirtPage(512));
        }
        assert_eq!(m.locate(VirtPage(512)).unwrap().0, TierId::FAST);
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        assert!(acct.app_extra_ns > 0.0);
    }
}
