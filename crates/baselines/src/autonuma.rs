//! AutoNUMA — Linux automatic NUMA balancing used as a tiering baseline.
//!
//! Reproduced decision rules (paper Table 1, §2.2, §6.2.2):
//!
//! - Rotating-window NUMA-hint faults; the hotness threshold is **one** —
//!   the most recently accessed page is promoted immediately, in the fault
//!   handler (critical-path migration).
//! - **No demotion**: once the fast tier fills, nothing moves out. The paper
//!   notes this ironically helps XSBench at 1:2 (the early-allocated hot
//!   region can never be evicted) and hurts everywhere else.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    PageSize, PolicyDescriptor, PolicyOps, RecordFilter, TierId, TieringPolicy, VirtPage,
};
use memtis_tracking::hintfault::HintFaultSampler;
use std::collections::HashMap;

/// AutoNUMA tunables.
#[derive(Debug, Clone)]
pub struct AutoNumaConfig {
    /// Hint-bit sweep length: one full pass over tracked pages takes
    /// this many ticks (kernel-like constant coverage time).
    pub sweep_rounds: u32,
}

impl Default for AutoNumaConfig {
    fn default() -> Self {
        AutoNumaConfig { sweep_rounds: 192 }
    }
}

/// The AutoNUMA policy.
pub struct AutoNumaPolicy {
    cfg: AutoNumaConfig,
    sampler: HintFaultSampler,
    sizes: HashMap<VirtPage, PageSize>,
    /// Promotions performed in the fault handler.
    pub critical_path_promotions: u64,
}

impl AutoNumaPolicy {
    /// Creates the policy.
    pub fn new(cfg: AutoNumaConfig) -> Self {
        AutoNumaPolicy {
            sampler: HintFaultSampler::sweeping(cfg.sweep_rounds),
            cfg,
            sizes: HashMap::new(),
            critical_path_promotions: 0,
        }
    }
}

impl TieringPolicy for AutoNumaPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "AutoNUMA",
            mechanism: "Page fault",
            subpage_tracking: false,
            promotion_metric: "Recency",
            demotion_metric: "-",
            thresholding: "Static access count",
            critical_path_migration: "Promotion",
            page_size_handling: "None",
        }
    }

    /// No `on_access` hook, so no access record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        vpage: VirtPage,
        size: PageSize,
        tier: TierId,
    ) {
        self.sizes.insert(vpage, size);
        if tier != TierId::FAST {
            self.sampler.on_alloc(vpage, size);
        }
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.sizes.remove(&vpage);
        self.sampler.on_free(vpage);
    }

    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        // Threshold of one: promote immediately on the critical path.
        let key = match ops.locate(vpage) {
            Some((_, PageSize::Huge)) => vpage.huge_aligned(),
            _ => vpage,
        };
        let Some(&size) = self.sizes.get(&key) else {
            return;
        };
        match ops.locate(key) {
            Some((t, s)) if t != TierId::FAST && s == size => {}
            _ => return,
        }
        // No demotion exists: promotion succeeds only while the fast tier
        // has free frames.
        if ops.migrate(key, TierId::FAST).is_ok() {
            self.critical_path_promotions += 1;
            self.sampler.on_free(key);
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.sampler.arm_round(ops);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

// `sizes` is only ever accessed by key; its encoding is key-sorted.
memtis_sim::obs::snap_struct!(in AutoNumaPolicy {
    @fp cfg,
    sampler,
    sizes,
    critical_path_promotions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    #[test]
    fn single_fault_promotes_until_fast_fills() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        let mut p = AutoNumaPolicy::new(AutoNumaConfig::default());
        for i in 0..2u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY)
                .unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(
                &mut ops,
                VirtPage(i * 512),
                PageSize::Huge,
                TierId::CAPACITY,
            );
        }
        // One fault promotes page 0 (threshold = 1).
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_hint_fault(&mut ops, VirtPage(7));
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
        // Fast tier is now full and AutoNUMA cannot demote: page 512 stays.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_hint_fault(&mut ops, VirtPage(600));
        }
        assert_eq!(m.locate(VirtPage(512)).unwrap().0, TierId::CAPACITY);
        assert_eq!(p.critical_path_promotions, 1);
    }
}
