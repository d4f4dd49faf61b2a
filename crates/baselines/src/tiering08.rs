//! Tiering-0.8 — the Linux kernel tiering patch series (V. Verma).
//!
//! Reproduced decision rules (paper Table 1, §2.2):
//!
//! - NUMA-hint faults measure an approximate *re-fault interval* per page;
//!   a page whose faults recur within the promotion-interval threshold is
//!   promoted in the fault handler (critical path).
//! - The threshold adapts to throttle the **promotion rate** toward a
//!   target — the paper's example of a system that adapts its threshold,
//!   but only to limit migration traffic, not to fit the hot set to the
//!   fast tier.
//! - Demotion is recency-based (kswapd-style) and keeps free headroom that
//!   new allocations may also use (which is why it does well on
//!   603.bwaves' short-lived data, §6.2.6).

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    DetHashMap, PageSize, PolicyDescriptor, PolicyOps, RecordFilter, SimError, TierId,
    TieringPolicy, VirtPage,
};
use memtis_tracking::hintfault::HintFaultSampler;
use std::collections::VecDeque;

/// Tiering-0.8 tunables.
#[derive(Debug, Clone)]
pub struct Tiering08Config {
    /// Hint-bit sweep length: one full pass over tracked pages takes
    /// this many ticks (kernel-like constant coverage time).
    pub sweep_rounds: u32,
    /// Initial re-fault-interval threshold for promotion (ns).
    pub initial_threshold_ns: f64,
    /// Target promotions per tick; the threshold adapts toward it.
    pub target_promotions_per_tick: f64,
    /// Fast-tier free headroom (fraction) maintained by demotion.
    pub headroom_frac: f64,
    /// Demotion budget per tick (bytes).
    pub demote_batch_bytes: u64,
}

impl Default for Tiering08Config {
    fn default() -> Self {
        Tiering08Config {
            sweep_rounds: 192,
            initial_threshold_ns: 1e7,
            target_promotions_per_tick: 4.0,
            headroom_frac: 0.02,
            demote_batch_bytes: 16 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Page {
    size: PageSize,
    last_fault_ns: f64,
}

/// The Tiering-0.8 policy.
pub struct Tiering08Policy {
    cfg: Tiering08Config,
    sampler: HintFaultSampler,
    pages: DetHashMap<VirtPage, Page>,
    /// FIFO of fast-tier pages in arrival order (recency demotion).
    fast_fifo: VecDeque<VirtPage>,
    threshold_ns: f64,
    promotions_this_tick: u32,
    /// Promotions performed in the fault handler.
    pub critical_path_promotions: u64,
}

impl Tiering08Policy {
    /// Creates the policy.
    pub fn new(cfg: Tiering08Config) -> Self {
        let sweep = cfg.sweep_rounds;
        let thr = cfg.initial_threshold_ns;
        Tiering08Policy {
            cfg,
            sampler: HintFaultSampler::sweeping(sweep),
            pages: DetHashMap::default(),
            fast_fifo: VecDeque::new(),
            threshold_ns: thr,
            promotions_this_tick: 0,
            critical_path_promotions: 0,
        }
    }

    /// Current adaptive promotion threshold (ns).
    pub fn threshold_ns(&self) -> f64 {
        self.threshold_ns
    }

    fn demote_for_headroom(&mut self, ops: &mut PolicyOps<'_>, need: u64) {
        let mut budget = self.cfg.demote_batch_bytes;
        while ops.free_bytes(TierId::FAST) < need && budget > 0 {
            let Some(victim) = self.fast_fifo.pop_front() else {
                break;
            };
            let Some(p) = self.pages.get(&victim) else {
                continue;
            };
            let size = p.size;
            match ops.locate(victim) {
                Some((TierId::FAST, s)) if s == size => {}
                _ => continue,
            }
            match ops.migrate(victim, TierId::CAPACITY) {
                Ok(_) => {
                    budget = budget.saturating_sub(size.bytes());
                    self.sampler.on_alloc(victim, size);
                }
                Err(SimError::OutOfMemory { .. }) => break,
                Err(_) => continue,
            }
        }
    }
}

impl TieringPolicy for Tiering08Policy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "Tiering-0.8",
            mechanism: "Page fault",
            subpage_tracking: false,
            promotion_metric: "Recency",
            demotion_metric: "Recency",
            thresholding: "Promotion rate",
            critical_path_migration: "Promotion",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
        // Headroom is shared with new allocations (unlike AutoTiering).
        if ops.free_bytes(TierId::FAST) >= size.bytes() {
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
            Page {
                size,
                last_fault_ns: f64::NEG_INFINITY,
            },
        );
        if tier == TierId::FAST {
            self.fast_fifo.push_back(vpage);
        } else {
            self.sampler.on_alloc(vpage, size);
        }
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.pages.remove(&vpage);
        self.sampler.on_free(vpage);
    }

    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        let now = ops.now_ns();
        let key = match ops.locate(vpage) {
            Some((_, PageSize::Huge)) => vpage.huge_aligned(),
            _ => vpage,
        };
        let Some(p) = self.pages.get_mut(&key) else {
            return;
        };
        let interval = now - p.last_fault_ns;
        p.last_fault_ns = now;
        let size = p.size;
        if interval > self.threshold_ns {
            return; // Re-fault interval too long: not promotion-worthy yet.
        }
        match ops.locate(key) {
            Some((t, s)) if t != TierId::FAST && s == size => {}
            _ => return,
        }
        if ops.free_bytes(TierId::FAST) < size.bytes() {
            self.demote_for_headroom(ops, size.bytes());
        }
        if ops.migrate(key, TierId::FAST).is_ok() {
            self.critical_path_promotions += 1;
            self.promotions_this_tick += 1;
            self.sampler.on_free(key);
            self.fast_fifo.push_back(key);
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.sampler.arm_round(ops);
        // Adapt the threshold to throttle the promotion rate.
        let rate = self.promotions_this_tick as f64;
        if rate > self.cfg.target_promotions_per_tick * 1.5 {
            self.threshold_ns *= 0.8;
        } else if rate < self.cfg.target_promotions_per_tick * 0.5 {
            self.threshold_ns *= 1.25;
        }
        self.threshold_ns = self.threshold_ns.clamp(1e3, 1e12);
        self.promotions_this_tick = 0;
        // Recency-based demotion keeps the headroom.
        let headroom = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.headroom_frac) as u64;
        if ops.free_bytes(TierId::FAST) < headroom {
            self.demote_for_headroom(ops, headroom);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

memtis_sim::obs::snap_struct!(Page {
    size,
    last_fault_ns
});

// `pages` is only ever accessed by key; its encoding is key-sorted.
memtis_sim::obs::snap_struct!(in Tiering08Policy {
    @fp cfg,
    sampler,
    pages,
    fast_fifo,
    threshold_ns,
    promotions_this_tick,
    critical_path_promotions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn refault_within_threshold_promotes() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = Tiering08Policy::new(Tiering08Config::default());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        // First fault establishes recency; second (quick) refault promotes.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 1000.0);
            p.on_hint_fault(&mut ops, VirtPage(3));
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 2000.0);
            p.on_hint_fault(&mut ops, VirtPage(3));
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
    }

    #[test]
    fn slow_refaults_are_throttled() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = Tiering08Policy::new(Tiering08Config {
            initial_threshold_ns: 10.0,
            ..Default::default()
        });
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Base, TierId::CAPACITY);
        }
        for t in [1e6, 2e6, 3e6] {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, t);
            p.on_hint_fault(&mut ops, VirtPage(0));
        }
        // Intervals of 1 ms with a 10 ns threshold: never promoted.
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
    }

    #[test]
    fn threshold_adapts_to_promotion_rate() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = Tiering08Policy::new(Tiering08Config::default());
        let t0 = p.threshold_ns();
        // No promotions happened: threshold loosens to find candidates.
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        p.tick(&mut ops);
        assert!(p.threshold_ns() > t0);
    }
}
