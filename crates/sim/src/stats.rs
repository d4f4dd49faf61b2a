//! Machine-wide counters.

use crate::addr::TierId;

/// Migration counters for one (direction-less) tier pair.
#[derive(Debug, Default, Clone)]
pub struct MigrationStats {
    /// Pages promoted (moved toward tier 0), counted in 4 KiB units.
    pub promoted_4k: u64,
    /// Pages demoted (moved away from tier 0), counted in 4 KiB units.
    pub demoted_4k: u64,
    /// Total bytes copied by migrations.
    pub migrated_bytes: u64,
    /// Huge pages split.
    pub splits: u64,
    /// Huge pages collapsed.
    pub collapses: u64,
    /// Subpages freed as all-zero during splits.
    pub zero_subpages_freed: u64,
    /// Migration/collapse attempts that failed in the machine (destination
    /// out of memory, stale mapping, misalignment, same-tier target).
    pub failed: u64,
    /// Queued migrations dropped by the policy at re-validation (the page
    /// was freed, reclassified, or already moved since it was enqueued).
    pub cancelled: u64,
    /// In-flight transfers that ended without remapping the page (policy
    /// abort, dirty re-copy budget exhausted, or mapping superseded).
    pub aborted: u64,
    /// Copy work discarded by aborts, in bytes (whole passes; an
    /// interrupted pass counts as a full pass).
    pub aborted_bytes: u64,
    /// Copy passes restarted because a store dirtied the source mid-copy.
    pub recopies: u64,
    /// Peak number of simultaneously queued + copying transfers.
    pub in_flight_peak: u64,
    /// Promotions rejected by anti-thrashing hysteresis backoff.
    pub promotion_backoffs: u64,
    /// Source frames retained as clean shadows after promotions (shadow
    /// mode), counted in 4 KiB units.
    pub shadow_retained_4k: u64,
    /// Demotions satisfied for free by remapping to a still-clean shadow
    /// (no bytes copied), counted in 4 KiB units.
    pub shadow_free_demotions_4k: u64,
    /// Shadow frames invalidated and freed (store, unmap, split, collapse,
    /// re-migration, or capacity reclaim), counted in 4 KiB units.
    pub shadow_reclaimed_4k: u64,
}

impl MigrationStats {
    /// Total migration traffic in 4 KiB page units (promotions + demotions).
    pub fn traffic_4k(&self) -> u64 {
        self.promoted_4k + self.demoted_4k
    }
}

/// Counters accumulated by the machine while executing accesses.
#[derive(Debug, Default, Clone)]
pub struct MachineStats {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// LLC-missing accesses served per tier (index = tier id).
    pub tier_hits: Vec<u64>,
    /// Demand-paging faults taken.
    pub demand_faults: u64,
    /// NUMA-hint faults taken.
    pub hint_faults: u64,
    /// TLB shootdowns performed (remap, migration, split, collapse).
    pub shootdowns: u64,
    /// Migration counters.
    pub migration: MigrationStats,
}

impl MachineStats {
    /// Records an LLC-missing access served by `tier`.
    pub fn count_tier_hit(&mut self, tier: TierId) {
        let i = tier.0 as usize;
        if self.tier_hits.len() <= i {
            self.tier_hits.resize(i + 1, 0);
        }
        self.tier_hits[i] += 1;
    }

    /// Fraction of LLC-missing accesses served by the fast tier — the
    /// paper's *real hit ratio* (rHR) of fast-tier memory (§4.3.1).
    pub fn fast_tier_hit_ratio(&self) -> f64 {
        let total: u64 = self.tier_hits.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.tier_hits.first().unwrap_or(&0) as f64 / total as f64
    }

    /// Total accesses executed.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

memtis_obs::snap_struct!(MigrationStats {
    promoted_4k,
    demoted_4k,
    migrated_bytes,
    splits,
    collapses,
    zero_subpages_freed,
    failed,
    cancelled,
    aborted,
    aborted_bytes,
    recopies,
    in_flight_peak,
    promotion_backoffs,
    shadow_retained_4k,
    shadow_free_demotions_4k,
    shadow_reclaimed_4k,
});

memtis_obs::snap_struct!(MachineStats {
    loads,
    stores,
    tier_hits,
    demand_faults,
    hint_faults,
    shootdowns,
    migration,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_tier_hit_ratio() {
        let mut s = MachineStats::default();
        assert_eq!(s.fast_tier_hit_ratio(), 0.0);
        for _ in 0..3 {
            s.count_tier_hit(TierId::FAST);
        }
        s.count_tier_hit(TierId::CAPACITY);
        assert!((s.fast_tier_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn migration_traffic_sums() {
        let m = MigrationStats {
            promoted_4k: 10,
            demoted_4k: 5,
            ..Default::default()
        };
        assert_eq!(m.traffic_4k(), 15);
    }
}
