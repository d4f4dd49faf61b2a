//! TPP (ASPLOS '23) — Transparent Page Placement for CXL tiered memory.
//!
//! Reproduced decision rules (paper Table 1, §2.2, §6.2.3):
//!
//! - NUMA-hint faults on capacity-tier pages; a page is promoted on its
//!   *second* fault (static threshold 2, "extending LRU policies"), **in the
//!   fault handler** — critical-path promotion.
//! - Fast-tier pages age through active/inactive LRU lists refreshed by
//!   page-table scanning; demotion takes inactive-tail pages in the
//!   background to keep a free-page watermark for new allocations.
//! - New allocations go to the fast tier while the watermark holds (the
//!   behaviour that serves 603.bwaves' short-lived data well).
//!
//! The coarse 2Q classification is what the paper blames for TPP identifying
//! more hot pages than fast-tier capacity at 1:8/1:16 on Liblinear.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    DetHashMap, PageSize, PolicyDescriptor, PolicyOps, RecordFilter, SimError, TierId,
    TieringPolicy, VirtPage,
};
use memtis_tracking::hintfault::HintFaultSampler;
use memtis_tracking::lru2q::Lru2Q;
use memtis_tracking::ptscan::scan_and_clear;

/// TPP tunables.
#[derive(Debug, Clone)]
pub struct TppConfig {
    /// Fault count that triggers promotion (TPP: 2).
    pub promote_faults: u8,
    /// Hint-bit sweep length over capacity-tier pages, in ticks.
    pub sweep_rounds: u32,
    /// Fast-tier free watermark as a fraction of capacity.
    pub watermark_frac: f64,
    /// Page-table scan period, in ticks (fast-tier aging).
    pub scan_every_ticks: u32,
    /// Demotion budget per tick (bytes).
    pub demote_batch_bytes: u64,
}

impl Default for TppConfig {
    fn default() -> Self {
        TppConfig {
            promote_faults: 2,
            sweep_rounds: 192,
            watermark_frac: 0.02,
            scan_every_ticks: 8,
            demote_batch_bytes: 16 << 20,
        }
    }
}

/// The TPP policy.
pub struct TppPolicy {
    cfg: TppConfig,
    sampler: HintFaultSampler,
    /// Hint-fault counters for capacity-tier pages.
    fault_counts: DetHashMap<VirtPage, u8>,
    /// Active/inactive aging of fast-tier pages.
    lru: Lru2Q,
    sizes: DetHashMap<VirtPage, PageSize>,
    ticks: u32,
    /// Promotions performed in the fault handler.
    pub critical_path_promotions: u64,
}

impl TppPolicy {
    /// Creates the policy.
    pub fn new(cfg: TppConfig) -> Self {
        let sweep = cfg.sweep_rounds;
        TppPolicy {
            cfg,
            sampler: HintFaultSampler::sweeping(sweep),
            fault_counts: DetHashMap::default(),
            lru: Lru2Q::new(),
            sizes: DetHashMap::default(),
            ticks: 0,
            critical_path_promotions: 0,
        }
    }

    fn demote_for_watermark(&mut self, ops: &mut PolicyOps<'_>, need: u64) {
        let mut budget = self.cfg.demote_batch_bytes;
        while ops.free_bytes(TierId::FAST) < need && budget > 0 {
            let Some(victim) = self.lru.pop_inactive() else {
                break;
            };
            let Some(&size) = self.sizes.get(&victim) else {
                continue;
            };
            match ops.locate(victim) {
                Some((TierId::FAST, s)) if s == size => {}
                _ => continue,
            }
            match ops.migrate(victim, TierId::CAPACITY) {
                Ok(_) => {
                    budget = budget.saturating_sub(size.bytes());
                    // Demoted pages become promotion-trackable again.
                    self.fault_counts.insert(victim, 0);
                    self.sampler.on_alloc(victim, size);
                }
                Err(SimError::OutOfMemory { .. }) => break,
                Err(_) => continue,
            }
        }
    }
}

impl TieringPolicy for TppPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "TPP",
            mechanism: "Page fault",
            subpage_tracking: false,
            promotion_metric: "Recency + Frequency",
            demotion_metric: "Recency",
            thresholding: "Static access count",
            critical_path_migration: "Promotion",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
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
        self.sizes.insert(vpage, size);
        if tier == TierId::FAST {
            self.lru.insert_inactive(vpage);
        } else {
            self.fault_counts.insert(vpage, 0);
            self.sampler.on_alloc(vpage, size);
        }
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.sizes.remove(&vpage);
        self.lru.remove(vpage);
        self.fault_counts.remove(&vpage);
        self.sampler.on_free(vpage);
    }

    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        let key = match ops.locate(vpage) {
            Some((_, PageSize::Huge)) => vpage.huge_aligned(),
            _ => vpage,
        };
        let Some(c) = self.fault_counts.get_mut(&key) else {
            return;
        };
        *c = c.saturating_add(1);
        if *c < self.cfg.promote_faults {
            return;
        }
        // Second access: promote NOW, in the fault handler (critical path —
        // the ops sink is App here).
        let Some(&size) = self.sizes.get(&key) else {
            return;
        };
        match ops.locate(key) {
            Some((t, s)) if t != TierId::FAST && s == size => {}
            _ => return,
        }
        if ops.free_bytes(TierId::FAST) < size.bytes() {
            self.demote_for_watermark(ops, size.bytes());
        }
        if ops.migrate(key, TierId::FAST).is_ok() {
            self.critical_path_promotions += 1;
            self.fault_counts.remove(&key);
            self.sampler.on_free(key);
            self.lru.insert_inactive(key);
            self.lru.on_access(key); // Promoted because hot: start active.
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        // Arm hint faults over capacity-tier pages.
        self.sampler.arm_round(ops);
        // Periodic fast-tier aging scan (the unscalable part: cost grows
        // with mapped entries).
        if self.ticks.is_multiple_of(self.cfg.scan_every_ticks) {
            let mut hits = Vec::new();
            scan_and_clear(ops, |rec| {
                if rec.accessed {
                    hits.push(rec.vpage);
                }
            });
            for v in hits {
                self.lru.on_access(v);
            }
            // Age one batch from active to inactive to keep eviction fodder.
            let target = self.lru.active_len() / 4;
            for _ in 0..target {
                self.lru.deactivate_oldest();
            }
        }
        // Background reclaim: keep the allocation watermark.
        let watermark = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.watermark_frac) as u64;
        if ops.free_bytes(TierId::FAST) < watermark {
            self.demote_for_watermark(ops, watermark);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

// Both maps are only ever accessed by key; their encoding is key-sorted.
memtis_sim::obs::snap_struct!(in TppPolicy {
    @fp cfg,
    sampler,
    lru,
    fault_counts,
    sizes,
    ticks,
    critical_path_promotions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    fn env() -> (Machine, CostAccounting) {
        (
            Machine::new(MachineConfig::dram_nvm(
                4 * HUGE_PAGE_SIZE,
                32 * HUGE_PAGE_SIZE,
            )),
            CostAccounting::default(),
        )
    }

    #[test]
    fn promotes_on_second_fault_in_fault_handler() {
        let (mut m, mut acct) = env();
        let mut p = TppPolicy::new(TppConfig::default());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        // First fault: counted, not promoted.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_hint_fault(&mut ops, VirtPage(3));
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        // Second fault: promoted on the spot, cost charged to the app sink.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_hint_fault(&mut ops, VirtPage(100));
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
        assert_eq!(p.critical_path_promotions, 1);
        assert!(acct.app_extra_ns > 0.0, "promotion cost on critical path");
        assert_eq!(acct.daemon_ns, 0.0);
    }

    #[test]
    fn reclaim_demotes_inactive_fast_pages() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            2 * HUGE_PAGE_SIZE,
            32 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = TppPolicy::new(TppConfig {
            watermark_frac: 0.5,
            ..Default::default()
        });
        for i in 0..2u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::FAST)
                .unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(i * 512), PageSize::Huge, TierId::FAST);
        }
        assert_eq!(m.free_bytes(TierId::FAST), 0);
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        // Watermark 50%: one of the two huge pages was demoted.
        assert_eq!(m.free_bytes(TierId::FAST), HUGE_PAGE_SIZE);
    }

    #[test]
    fn hint_arming_happens_on_capacity_pages() {
        let (mut m, mut acct) = env();
        let mut p = TppPolicy::new(TppConfig::default());
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Base, TierId::CAPACITY);
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        let out = m.access(Access::load(0)).unwrap();
        assert!(out.hint_fault, "armed page should fault on access");
    }

    /// Drives a policy through a busy mixed workload so every piece of
    /// internal state (sampler cursor, 2Q generations, fault counters) is
    /// populated before snapshotting.
    fn churn(p: &mut TppPolicy, m: &mut Machine, acct: &mut CostAccounting) {
        for i in 0..24u64 {
            let vpage = VirtPage(i * 512);
            let tier = if i % 3 == 0 {
                TierId::FAST
            } else {
                TierId::CAPACITY
            };
            if m.alloc_and_map(vpage, PageSize::Base, tier).is_ok() {
                let mut ops = PolicyOps::new(m, acct, CostSink::App, 0.0);
                p.on_alloc(&mut ops, vpage, PageSize::Base, tier);
            }
        }
        for round in 0..10u64 {
            {
                let mut ops = PolicyOps::new(m, acct, CostSink::Daemon, 0.0);
                p.tick(&mut ops);
            }
            for i in 0..24u64 {
                let out = m.access(Access::load(i * 512 * 4096 + round)).unwrap();
                if out.hint_fault {
                    let mut ops = PolicyOps::new(m, acct, CostSink::App, 0.0);
                    p.on_hint_fault(&mut ops, VirtPage(i * 512));
                }
            }
        }
    }

    fn snap_bytes(p: &TppPolicy) -> Vec<u8> {
        let mut w = memtis_sim::obs::SnapWriter::new();
        p.save_state(&mut w);
        w.finish().unwrap()
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            32 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        // Sweep the whole capacity set each tick so hint faults accumulate
        // fast enough to trigger critical-path promotions during churn.
        let cfg = TppConfig {
            sweep_rounds: 1,
            ..Default::default()
        };
        let mut p = TppPolicy::new(cfg.clone());
        churn(&mut p, &mut m, &mut acct);
        assert!(p.critical_path_promotions > 0, "churn must exercise promos");

        let saved = snap_bytes(&p);
        let mut fresh = TppPolicy::new(cfg);
        let mut r = memtis_sim::obs::SnapReader::new(&saved);
        fresh.load_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(snap_bytes(&fresh), saved, "load→save must be identity");
        assert_eq!(fresh.critical_path_promotions, p.critical_path_promotions);
        assert_eq!(fresh.ticks, p.ticks);
        assert_eq!(fresh.lru.active_len(), p.lru.active_len());
        assert_eq!(fresh.sampler.armed, p.sampler.armed);
    }

    #[test]
    fn snapshot_rejects_mismatched_config() {
        let p = TppPolicy::new(TppConfig::default());
        let saved = snap_bytes(&p);
        let mut other = TppPolicy::new(TppConfig {
            promote_faults: 3,
            ..Default::default()
        });
        let mut r = memtis_sim::obs::SnapReader::new(&saved);
        match other.load_state(&mut r) {
            Err(memtis_sim::obs::SnapError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
