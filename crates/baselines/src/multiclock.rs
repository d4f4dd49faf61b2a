//! MULTI-CLOCK (HPCA '22) — CLOCK-based dynamic tiering.
//!
//! Reproduced decision rules (paper Table 1): page-table scanning feeds
//! per-tier active/inactive CLOCK lists; a page is promoted after being
//! found accessed in **two** scan intervals (static threshold 2), demotion
//! takes inactive-tail pages, and all migration happens in the background.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    DetHashMap, PageSize, PolicyDescriptor, PolicyOps, SimError, TierId, TieringPolicy, VirtPage,
};
use memtis_tracking::lru2q::{AccessResult, Lru2Q};
use memtis_tracking::ptscan::scan_and_clear;

/// MULTI-CLOCK tunables.
#[derive(Debug, Clone)]
pub struct MultiClockConfig {
    /// Scan period, in ticks.
    pub scan_every_ticks: u32,
    /// Fast-tier free watermark (fraction).
    pub watermark_frac: f64,
    /// Migration budget per scan (bytes).
    pub batch_bytes: u64,
}

impl Default for MultiClockConfig {
    fn default() -> Self {
        MultiClockConfig {
            scan_every_ticks: 8,
            watermark_frac: 0.02,
            batch_bytes: 16 << 20,
        }
    }
}

/// The MULTI-CLOCK policy.
pub struct MultiClockPolicy {
    cfg: MultiClockConfig,
    /// Capacity-tier CLOCK: activation (2nd accessed scan) promotes.
    capacity: Lru2Q,
    /// Fast-tier CLOCK: inactive tail is the demotion victim pool.
    fast: Lru2Q,
    sizes: DetHashMap<VirtPage, PageSize>,
    ticks: u32,
    /// Background promotions performed.
    pub promotions: u64,
}

impl MultiClockPolicy {
    /// Creates the policy.
    pub fn new(cfg: MultiClockConfig) -> Self {
        MultiClockPolicy {
            cfg,
            capacity: Lru2Q::new(),
            fast: Lru2Q::new(),
            sizes: DetHashMap::default(),
            ticks: 0,
            promotions: 0,
        }
    }

    fn demote(&mut self, ops: &mut PolicyOps<'_>, need: u64, budget: &mut u64) {
        while ops.free_bytes(TierId::FAST) < need && *budget > 0 {
            let Some(victim) = self.fast.pop_inactive() else {
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
                    *budget = budget.saturating_sub(size.bytes());
                    self.capacity.insert_inactive(victim);
                }
                Err(SimError::OutOfMemory { .. }) => break,
                Err(_) => continue,
            }
        }
    }
}

impl TieringPolicy for MultiClockPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "MULTI-CLOCK",
            mechanism: "PT scanning",
            subpage_tracking: false,
            promotion_metric: "Recency + Frequency",
            demotion_metric: "Recency",
            thresholding: "Static access count",
            critical_path_migration: "None",
            page_size_handling: "None",
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
            self.fast.insert_inactive(vpage);
        }
        // Capacity pages enter the CLOCK on their first *accessed* scan, so
        // promotion needs two accessed scan intervals (threshold 2).
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.sizes.remove(&vpage);
        self.fast.remove(vpage);
        self.capacity.remove(vpage);
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.cfg.scan_every_ticks) {
            return;
        }
        let mut accessed = Vec::new();
        scan_and_clear(ops, |rec| {
            if rec.accessed {
                accessed.push(rec.vpage);
            }
        });
        let mut budget = self.cfg.batch_bytes;
        for v in accessed {
            match ops.locate(v) {
                Some((TierId::FAST, _)) => {
                    self.fast.on_access(v);
                }
                Some((_, size)) => {
                    if self.capacity.list_of(v).is_none() {
                        // First accessed scan: start tracking.
                        self.capacity.insert_inactive(v);
                        continue;
                    }
                    // Activation == second accessed scan == promote.
                    if self.capacity.on_access(v) == AccessResult::Activated {
                        if ops.free_bytes(TierId::FAST) < size.bytes() {
                            self.demote(ops, size.bytes(), &mut budget);
                        }
                        if budget >= size.bytes() && ops.migrate(v, TierId::FAST).is_ok() {
                            self.promotions += 1;
                            budget -= size.bytes();
                            self.capacity.remove(v);
                            self.fast.insert_inactive(v);
                            self.fast.on_access(v);
                        }
                    }
                }
                None => {}
            }
        }
        // Age the fast-tier active list so the inactive pool refills.
        let target = self.fast.active_len() / 4;
        for _ in 0..target {
            self.fast.deactivate_oldest();
        }
        let watermark = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.watermark_frac) as u64;
        if ops.free_bytes(TierId::FAST) < watermark {
            let mut b = self.cfg.batch_bytes;
            self.demote(ops, watermark, &mut b);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

// `sizes` is only ever accessed by key; its encoding is key-sorted.
memtis_sim::obs::snap_struct!(in MultiClockPolicy {
    @fp cfg,
    capacity,
    fast,
    sizes,
    ticks,
    promotions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn two_accessed_scans_promote() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            8 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = MultiClockPolicy::new(MultiClockConfig {
            scan_every_ticks: 1,
            ..Default::default()
        });
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        // Scan 1: accessed once — not promoted yet (threshold 2).
        m.access(Access::load(0)).unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        // Scan 2: accessed again — promoted in the background.
        m.access(Access::load(4096)).unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
        assert_eq!(p.promotions, 1);
        // All cost went to the daemon sink: nothing on the critical path.
        assert_eq!(acct.app_extra_ns, 0.0);
    }
}
