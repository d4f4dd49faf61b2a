//! Nimble Page Management (ASPLOS '19) as a tiering baseline.
//!
//! Reproduced decision rules (paper Table 1, §2.2, §6.2.4):
//!
//! - Page-table scanning recency: a page is "hot" if its accessed bit was
//!   set during the last scan interval (static threshold of one).
//! - Aggressive background *exchange* migration: every interval, recently
//!   accessed capacity pages are promoted, displacing not-recently-accessed
//!   fast-tier pages — with no frequency information, workloads that touch
//!   many pages per interval (Silo) trigger massive migration churn
//!   (56.43× MEMTIS's traffic in the paper).

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    PageSize, PolicyDescriptor, PolicyOps, RecordFilter, SimError, TierId, TieringPolicy, VirtPage,
};
use memtis_tracking::ptscan::scan_and_clear;

/// Nimble tunables.
#[derive(Debug, Clone)]
pub struct NimbleConfig {
    /// Scan (and migration) period, in ticks.
    pub scan_every_ticks: u32,
    /// Exchange budget per scan (bytes).
    pub exchange_batch_bytes: u64,
}

impl Default for NimbleConfig {
    fn default() -> Self {
        NimbleConfig {
            scan_every_ticks: 8,
            exchange_batch_bytes: 64 << 20,
        }
    }
}

/// The Nimble policy.
pub struct NimblePolicy {
    cfg: NimbleConfig,
    ticks: u32,
    /// Exchange migrations performed.
    pub exchanges: u64,
}

impl NimblePolicy {
    /// Creates the policy.
    pub fn new(cfg: NimbleConfig) -> Self {
        NimblePolicy {
            cfg,
            ticks: 0,
            exchanges: 0,
        }
    }
}

impl TieringPolicy for NimblePolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "Nimble",
            mechanism: "PT scanning",
            subpage_tracking: false,
            promotion_metric: "Recency",
            demotion_metric: "Recency",
            thresholding: "Static access count",
            critical_path_migration: "None",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.cfg.scan_every_ticks) {
            return;
        }
        // One scan: classify by the single recency bit.
        let mut hot_capacity: Vec<(VirtPage, PageSize)> = Vec::new();
        let mut cold_fast: Vec<(VirtPage, PageSize)> = Vec::new();
        let mut warm_fast: Vec<(VirtPage, PageSize)> = Vec::new();
        let mut records = Vec::new();
        scan_and_clear(ops, |rec| records.push(rec));
        for rec in records {
            match (ops.locate(rec.vpage), rec.accessed) {
                (Some((TierId::FAST, s)), false) => cold_fast.push((rec.vpage, s)),
                // With only one recency bit, accessed fast pages are still
                // exchange victims once the cold pool runs dry — the source
                // of Nimble's migration churn when the touched set exceeds
                // the fast tier (Silo, §6.2.4).
                (Some((TierId::FAST, s)), true) => warm_fast.push((rec.vpage, s)),
                (Some((t, s)), true) if t != TierId::FAST => hot_capacity.push((rec.vpage, s)),
                _ => {}
            }
        }
        // Exchange: promote every hot page, evicting victims as needed.
        let mut budget = self.cfg.exchange_batch_bytes;
        let mut cold = cold_fast.into_iter().chain(warm_fast);
        for (hot, size) in hot_capacity {
            if budget < size.bytes() {
                break;
            }
            while ops.free_bytes(TierId::FAST) < size.bytes() {
                let Some((victim, vsize)) = cold.next() else {
                    break;
                };
                match ops.locate(victim) {
                    Some((TierId::FAST, s)) if s == vsize => {}
                    _ => continue,
                }
                match ops.migrate(victim, TierId::CAPACITY) {
                    Ok(_) => {
                        budget = budget.saturating_sub(vsize.bytes());
                        self.exchanges += 1;
                    }
                    Err(SimError::OutOfMemory { .. }) => break,
                    Err(_) => continue,
                }
            }
            if ops.free_bytes(TierId::FAST) < size.bytes() {
                break;
            }
            if ops.migrate(hot, TierId::FAST).is_ok() {
                budget = budget.saturating_sub(size.bytes());
                self.exchanges += 1;
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

memtis_sim::obs::snap_struct!(in NimblePolicy { @fp cfg, ticks, exchanges });

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn exchanges_hot_capacity_with_cold_fast() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        let mut p = NimblePolicy::new(NimbleConfig {
            scan_every_ticks: 1,
            ..Default::default()
        });
        // Cold page occupies the fast tier; hot page sits in capacity.
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        // Clear stale accessed bits from mapping, then touch only page 512.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            scan_and_clear(&mut ops, |_| {});
        }
        m.access(Access::load(512 * 4096)).unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(512)).unwrap().0, TierId::FAST);
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        assert_eq!(p.exchanges, 2);
    }

    #[test]
    fn touching_everything_causes_churn() {
        // When the accessed working set exceeds the fast tier every scan,
        // Nimble keeps exchanging pages — the Silo pathology.
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        let mut p = NimblePolicy::new(NimbleConfig {
            scan_every_ticks: 1,
            ..Default::default()
        });
        for i in 0..4u64 {
            let tier = if i == 0 {
                TierId::FAST
            } else {
                TierId::CAPACITY
            };
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, tier)
                .unwrap();
        }
        let mut total_before = 0;
        for round in 0..4 {
            // Touch all four pages every interval.
            for i in 0..4u64 {
                m.access(Access::load(i * HUGE_PAGE_SIZE)).unwrap();
            }
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, round as f64);
            p.tick(&mut ops);
            total_before = m.stats.migration.traffic_4k();
        }
        assert!(
            total_before >= 2 * 512,
            "sustained exchange traffic expected, got {total_before}"
        );
    }
}
