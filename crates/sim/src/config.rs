//! Machine configuration: tier specifications, cache/TLB geometry, cost model.
//!
//! Latency numbers default to the paper's testbed (§6.1): local DRAM, Intel
//! Optane DCPMM (load ≈ 300 ns), and emulated CXL memory (load ≈ 177 ns).

use crate::addr::{TierId, HUGE_PAGE_SIZE};

/// Kind of memory backing a tier, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// Local DDR4 DRAM.
    Dram,
    /// Non-volatile memory (Optane DCPMM-like).
    Nvm,
    /// CXL-attached DRAM (CXL 1.1 directly attached).
    Cxl,
}

/// Specification of one memory tier.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// What kind of memory this tier is.
    pub kind: MemoryKind,
    /// Capacity in bytes. Rounded down to a whole number of huge pages.
    pub capacity: u64,
    /// Latency of a load that misses the LLC and is served by this tier (ns).
    pub load_ns: f64,
    /// Latency of a store that misses the LLC and is served by this tier (ns).
    pub store_ns: f64,
    /// Migration copy bandwidth in bytes per nanosecond (== GB/s).
    pub copy_bw_bytes_per_ns: f64,
}

impl TierSpec {
    /// Local DRAM with the given capacity (load ≈ 100 ns).
    pub fn dram(capacity: u64) -> Self {
        TierSpec {
            kind: MemoryKind::Dram,
            capacity,
            load_ns: 100.0,
            store_ns: 100.0,
            copy_bw_bytes_per_ns: 16.0,
        }
    }

    /// Optane-like NVM with the given capacity (load ≈ 300 ns, slower stores).
    pub fn nvm(capacity: u64) -> Self {
        TierSpec {
            kind: MemoryKind::Nvm,
            capacity,
            load_ns: 300.0,
            store_ns: 400.0,
            copy_bw_bytes_per_ns: 8.0,
        }
    }

    /// Emulated CXL-attached memory (load ≈ 177 ns, per Pond's 70–90 ns adder).
    pub fn cxl(capacity: u64) -> Self {
        TierSpec {
            kind: MemoryKind::Cxl,
            capacity,
            load_ns: 177.0,
            store_ns: 185.0,
            copy_bw_bytes_per_ns: 12.0,
        }
    }

    /// Capacity rounded down to whole huge pages, in bytes.
    pub fn usable_capacity(&self) -> u64 {
        (self.capacity / HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE
    }
}

/// Address-translation and cache cost parameters.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of one page-table level access during a walk (ns). A 4 KiB
    /// translation walks 4 levels, a 2 MiB translation walks 3.
    pub walk_level_ns: f64,
    /// Latency of an LLC hit (ns); applies to every access that hits.
    pub llc_hit_ns: f64,
    /// Cost of a TLB shootdown (IPI + flush) charged when a mapping changes
    /// under a live translation (ns).
    pub tlb_shootdown_ns: f64,
    /// Cost of taking any page fault (trap + handler entry/exit), excluding
    /// policy work (ns).
    pub fault_overhead_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            walk_level_ns: 25.0,
            llc_hit_ns: 30.0,
            // Per-event costs are scaled with the simulator's time
            // compression: runs execute ~100x fewer accesses per page than
            // the paper's minutes-long executions, so per-event trap and
            // shootdown costs shrink so that *per-access* policy overhead
            // ratios match the real systems'.
            // Background migration daemons batch pages per flush, so the
            // per-page amortized shootdown is far below a full IPI round.
            tlb_shootdown_ns: 200.0,
            fault_overhead_ns: 300.0,
        }
    }
}

/// TLB geometry (modeled per page size, unified L2-STLB style).
#[derive(Debug, Clone)]
pub struct TlbSpec {
    /// Number of 4 KiB TLB entries.
    pub base_entries: usize,
    /// Number of 2 MiB TLB entries.
    pub huge_entries: usize,
    /// Associativity for both structures.
    pub ways: usize,
}

impl Default for TlbSpec {
    fn default() -> Self {
        // Skylake-SP-like STLB: 1536 entries for 4 KiB, 1536 shared for 2 MiB.
        TlbSpec {
            base_entries: 1536,
            huge_entries: 1536,
            ways: 12,
        }
    }
}

/// Jenga-style anti-thrashing hysteresis (engine mode, default off).
///
/// A per-region ping-pong detector: a promote→demote→promote sequence
/// within the cooling window counts a strike, and each strike doubles the
/// re-promotion backoff. Backed-off promotions are rejected with
/// [`crate::error::SimError::PromotionBackoff`].
#[derive(Debug, Clone)]
pub struct HysteresisConfig {
    /// Cooling window (ns, sim time): a re-promotion attempted within this
    /// long of the region's last demotion counts as ping-pong.
    pub window_ns: f64,
    /// Backoff applied after the first strike (ns, sim time).
    pub base_backoff_ns: f64,
    /// Ceiling on the exponential backoff (ns, sim time).
    pub max_backoff_ns: f64,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        HysteresisConfig {
            window_ns: 2_000_000.0,
            base_backoff_ns: 2_000_000.0,
            max_backoff_ns: 64_000_000.0,
        }
    }
}

/// Asynchronous-migration engine knobs.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Cap on migration copy bandwidth per tier-pair link, in bytes per
    /// nanosecond. `None` disables the asynchronous engine entirely:
    /// migrations complete instantaneously, exactly as in the synchronous
    /// model — this is the bit-exact regression oracle.
    pub bandwidth_limit: Option<f64>,
    /// Admission bound on queued (not yet copying) transfers; enqueues past
    /// this bound fail with [`crate::error::SimError::QueueFull`].
    pub queue_depth: usize,
    /// Copy restarts tolerated when stores keep dirtying an in-flight page
    /// before the transfer aborts.
    pub max_recopies: u32,
    /// Extra latency charged to an LLC-missing demand access served by a
    /// tier whose migration link is actively copying (ns).
    pub contention_penalty_ns: f64,
    /// Nomad-style non-exclusive transactional migration: keep the clean
    /// source copy as a shadow after copy-then-remap, so cold-again pages
    /// demote for free and dirty aborts roll back without a wasted pass.
    /// Off by default.
    pub shadow: bool,
    /// Anti-thrashing re-promotion hysteresis. `None` (the default) never
    /// backs off.
    pub hysteresis: Option<HysteresisConfig>,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            bandwidth_limit: None,
            queue_depth: 128,
            max_recopies: 2,
            contention_penalty_ns: 25.0,
            shadow: false,
            hysteresis: None,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Ordered tiers, fastest first. `tiers[0]` is the fast tier.
    pub tiers: Vec<TierSpec>,
    /// LLC capacity in bytes (modeled as a direct-mapped tag array).
    pub llc_bytes: u64,
    /// TLB geometry.
    pub tlb: TlbSpec,
    /// Translation / fault / shootdown cost parameters.
    pub costs: CostModel,
    /// Number of physical cores; application threads plus daemon threads
    /// share them (used by the daemon CPU-contention model).
    pub cores: u32,
    /// Number of application threads (paper default: 20, stressing all cores).
    pub app_threads: u32,
    /// Maximum cores chargeable to background daemon work per window. Real
    /// tiering daemons are a handful of kernel threads (`ksampled` plus one
    /// `kmigrated` per tier); queued work beyond this capacity drains later
    /// instead of consuming more cores.
    pub daemon_core_cap: f64,
    /// Asynchronous-migration engine knobs.
    pub migration: MigrationConfig,
}

impl MachineConfig {
    /// Two-tier DRAM + NVM machine with the given tier capacities in bytes.
    pub fn dram_nvm(fast: u64, capacity: u64) -> Self {
        MachineConfig {
            tiers: vec![TierSpec::dram(fast), TierSpec::nvm(capacity)],
            ..MachineConfig::default_geometry()
        }
    }

    /// Two-tier DRAM + CXL machine with the given tier capacities in bytes.
    pub fn dram_cxl(fast: u64, capacity: u64) -> Self {
        MachineConfig {
            tiers: vec![TierSpec::dram(fast), TierSpec::cxl(capacity)],
            ..MachineConfig::default_geometry()
        }
    }

    fn default_geometry() -> Self {
        MachineConfig {
            tiers: Vec::new(),
            // Scaled-down LLC (paper machine: 27.5 MiB); the default sim
            // scale shrinks working sets by 64x, so shrink the LLC too.
            llc_bytes: 27_500_000 / 64,
            tlb: TlbSpec::default(),
            costs: CostModel::default(),
            cores: 20,
            app_threads: 20,
            daemon_core_cap: 3.0,
            migration: MigrationConfig::default(),
        }
    }

    /// The spec of a tier.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range.
    pub fn tier(&self, tier: TierId) -> &TierSpec {
        &self.tiers[tier.0 as usize]
    }

    /// Load-latency gap between the capacity tier and the fast tier (ns),
    /// `ΔL` in the paper's split formula (eq. 2).
    pub fn latency_gap_ns(&self) -> f64 {
        self.tier(TierId::CAPACITY).load_ns - self.tier(TierId::FAST).load_ns
    }

    /// Scales every tier's migration copy bandwidth by `f`.
    ///
    /// Used by the experiment harness to apply the simulator's time
    /// compression: a run covers ~100x fewer accesses per page than the
    /// paper's executions, so migration (tier-fill) time must shrink by the
    /// same factor to keep the migrated-bytes-to-run-length ratio — and
    /// thus the relative cost of page movement — in the paper's regime.
    pub fn with_bandwidth_scale(mut self, f: f64) -> Self {
        for t in &mut self.tiers {
            t.copy_bw_bytes_per_ns *= f;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HUGE_PAGE_SIZE;

    #[test]
    fn presets_have_expected_latencies() {
        let m = MachineConfig::dram_nvm(1 << 30, 8 << 30);
        assert_eq!(m.tier(TierId::FAST).load_ns, 100.0);
        assert_eq!(m.tier(TierId::CAPACITY).load_ns, 300.0);
        assert_eq!(m.latency_gap_ns(), 200.0);

        let c = MachineConfig::dram_cxl(1 << 30, 8 << 30);
        assert_eq!(c.tier(TierId::CAPACITY).load_ns, 177.0);
        assert!(c.latency_gap_ns() < m.latency_gap_ns());
    }

    #[test]
    fn usable_capacity_rounds_to_huge_pages() {
        let t = TierSpec::dram(HUGE_PAGE_SIZE * 3 + 123);
        assert_eq!(t.usable_capacity(), HUGE_PAGE_SIZE * 3);
    }

    #[test]
    fn nvm_stores_slower_than_loads() {
        let t = TierSpec::nvm(1 << 30);
        assert!(t.store_ns > t.load_ns);
    }
}
