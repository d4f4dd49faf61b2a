//! Static placement baselines: all-fast (all-DRAM) and all-slow (all-NVM).
//!
//! The paper normalizes every result to the all-NVM-with-THP case (§6.1);
//! the all-DRAM case (with and without THP) appears as the upper reference
//! line in Fig. 7/8.

use memtis_sim::obs::{SnapError, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    PageSize, PolicyDescriptor, PolicyOps, RecordFilter, TierId, TieringPolicy, VirtPage,
};

/// Pins all allocations to one tier and never migrates.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    tier: TierId,
    name: &'static str,
}

impl StaticPolicy {
    /// Everything on the fast tier (the all-DRAM reference).
    pub fn all_fast() -> Self {
        StaticPolicy {
            tier: TierId::FAST,
            name: "All-DRAM",
        }
    }

    /// Everything on the capacity tier (the all-NVM normalization baseline).
    pub fn all_slow() -> Self {
        StaticPolicy {
            tier: TierId::CAPACITY,
            name: "All-NVM",
        }
    }
}

impl TieringPolicy for StaticPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: self.name,
            mechanism: "None",
            subpage_tracking: false,
            promotion_metric: "-",
            demotion_metric: "-",
            thresholding: "-",
            critical_path_migration: "None",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn alloc_tier(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        _vpage: VirtPage,
        _size: PageSize,
    ) -> TierId {
        self.tier
    }

    /// Stateless: nothing to checkpoint.
    fn save_state(&self, _w: &mut SnapWriter) {}

    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn all_slow_places_everything_on_capacity() {
        let mc = MachineConfig::dram_nvm(8 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        let mut m = Machine::new(mc);
        let mut acct = CostAccounting::default();
        let mut p = StaticPolicy::all_slow();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        assert_eq!(
            p.alloc_tier(&mut ops, VirtPage(0), PageSize::Huge),
            TierId::CAPACITY
        );
        assert_eq!(p.descriptor().name, "All-NVM");
    }

    #[test]
    fn all_fast_prefers_fast() {
        let mc = MachineConfig::dram_nvm(8 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        let mut m = Machine::new(mc);
        let mut acct = CostAccounting::default();
        let mut p = StaticPolicy::all_fast();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        assert_eq!(
            p.alloc_tier(&mut ops, VirtPage(0), PageSize::Huge),
            TierId::FAST
        );
    }
}
