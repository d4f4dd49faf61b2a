//! MEMTIS configuration — every constant the paper specifies, in one place.

/// Tunables of the MEMTIS policy.
///
/// Defaults are the paper's values. Event-count-based intervals (threshold
/// adaptation, cooling, benefit estimation) are expressed in *samples* /
/// *events* exactly as in the paper; [`MemtisConfig::sim_scaled`] shrinks
/// them together with the simulator's size scale so that the
/// samples-per-page ratios the mechanisms rely on are preserved.
#[derive(Debug, Clone)]
pub struct MemtisConfig {
    /// Initial PEBS period for retired LLC load misses (paper: 200).
    pub load_period: u64,
    /// Initial PEBS period for retired stores (paper: 100,000).
    pub store_period: u64,
    /// `ksampled` CPU budget as a fraction of one core (paper: 3%).
    pub cpu_limit: f64,
    /// CPU cost of processing one sample (ns). The paper's kernel runs on
    /// unscaled hardware; the sim-scaled config shrinks this with the size
    /// scale so the sampling rate per page stays comparable.
    pub sample_cost_ns: f64,
    /// Samples between CPU-usage checks of the dynamic period controller.
    pub control_interval: u64,
    /// Samples between threshold adaptations (paper: 100,000).
    pub adapt_interval: u64,
    /// Samples between coolings (paper: 2,000,000).
    pub cooling_interval: u64,
    /// Hot-set fill ratio α deciding whether a warm band opens (paper: 0.9).
    pub alpha: f64,
    /// Fast-tier free-space reserve triggering demotion (paper: 2%).
    pub free_reserve_frac: f64,
    /// Enable the warm set (disabled in the Fig. 10 "vanilla" ablation).
    pub warm_set: bool,
    /// Enable skewness-aware huge-page splitting (disabled in MEMTIS-NS).
    pub split: bool,
    /// Enable conservative all-hot collapsing of base pages (§4.3.3).
    pub collapse: bool,
    /// Minimum split benefit `eHR - rHR` to trigger splitting (paper: 5%).
    pub split_benefit_min: f64,
    /// Scale factor β in the `Ns` formula (paper: 0.4).
    pub beta: f64,
    /// Lower bound on samples per benefit-estimation window (the paper's
    /// trigger is a quarter of the allocated pages; this floors it for tiny
    /// runs).
    pub min_estimate_samples: u64,
    /// Benefit estimation fires when the window holds `allocated_pages /
    /// estimate_rss_divisor` samples (paper: 4). The sim-scaled config
    /// raises the divisor because runs sample each page ~100x less often
    /// than the paper's minutes-long executions.
    pub estimate_rss_divisor: u64,
    /// Consecutive estimation windows whose benefit exceeds the trigger
    /// before splits are queued — the "long-term, stable memory access
    /// trends" requirement of §4.3.1.
    pub estimate_streak: u32,
    /// Migration budget per `kmigrated` wakeup (bytes).
    pub migrate_batch_bytes: u64,
    /// Maximum huge-page splits per wakeup.
    pub max_splits_per_tick: usize,
    /// Maximum collapses per wakeup.
    pub max_collapses_per_tick: usize,
    /// Cancel in-flight promotions whose page cooled below the hot
    /// threshold before the copy finished (only meaningful when the driver
    /// runs the asynchronous migration engine). Disabled in the no-cancel
    /// ablation, which lets stale transfers burn link bandwidth to
    /// completion.
    pub cancel_inflight: bool,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        MemtisConfig {
            load_period: 200,
            store_period: 100_000,
            cpu_limit: 0.03,
            sample_cost_ns: 150.0,
            control_interval: 10_000,
            adapt_interval: 100_000,
            cooling_interval: 2_000_000,
            alpha: 0.9,
            free_reserve_frac: 0.02,
            warm_set: true,
            split: true,
            collapse: true,
            split_benefit_min: 0.05,
            beta: 0.4,
            min_estimate_samples: 200_000,
            estimate_rss_divisor: 4,
            estimate_streak: 2,
            migrate_batch_bytes: 256 << 20,
            max_splits_per_tick: 64,
            max_collapses_per_tick: 4,
            cancel_inflight: true,
        }
    }
}

impl MemtisConfig {
    /// Configuration scaled for the default 1/64 simulator scale: periods,
    /// intervals, per-sample cost, and batch sizes all shrink so that
    /// samples-per-page per cooling period and CPU-fraction budgets match
    /// the paper's regime.
    pub fn sim_scaled() -> Self {
        MemtisConfig {
            load_period: 8,
            store_period: 1_000,
            cpu_limit: 0.03,
            sample_cost_ns: 2.0,
            control_interval: 2_000,
            adapt_interval: 1_000,
            cooling_interval: 20_000,
            min_estimate_samples: 5_000,
            estimate_rss_divisor: 256,
            migrate_batch_bytes: 8 << 20,
            max_splits_per_tick: 16,
            max_collapses_per_tick: 2,
            ..Default::default()
        }
    }

    /// The MEMTIS-NS variant (no huge-page split) of this config (Fig. 11).
    pub fn without_split(mut self) -> Self {
        self.split = false;
        self.collapse = false;
        self
    }

    /// The "vanilla" ablation of this config: no split and no warm set
    /// (Fig. 10).
    pub fn vanilla(mut self) -> Self {
        self.split = false;
        self.collapse = false;
        self.warm_set = false;
        self
    }

    /// The no-cancel ablation: in-flight promotions of pages that cooled
    /// run to completion instead of being aborted.
    pub fn without_inflight_cancel(mut self) -> Self {
        self.cancel_inflight = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MemtisConfig::default();
        assert_eq!(c.load_period, 200);
        assert_eq!(c.store_period, 100_000);
        assert_eq!(c.cpu_limit, 0.03);
        assert_eq!(c.adapt_interval, 100_000);
        assert_eq!(c.cooling_interval, 2_000_000);
        assert_eq!(c.alpha, 0.9);
        assert_eq!(c.free_reserve_frac, 0.02);
        assert_eq!(c.split_benefit_min, 0.05);
        assert_eq!(c.beta, 0.4);
        assert!(c.split && c.warm_set);
    }

    #[test]
    fn ablation_helpers() {
        let ns = MemtisConfig::default().without_split();
        assert!(!ns.split && ns.warm_set);
        let v = MemtisConfig::default().vanilla();
        assert!(!v.split && !v.warm_set);
    }

    #[test]
    fn scaled_keeps_interval_ratios() {
        let p = MemtisConfig::default();
        let s = MemtisConfig::sim_scaled();
        let paper_ratio = p.cooling_interval as f64 / p.adapt_interval as f64;
        let sim_ratio = s.cooling_interval as f64 / s.adapt_interval as f64;
        assert!(
            (paper_ratio / sim_ratio - 1.0).abs() < 0.01,
            "cooling:adaptation ratio preserved"
        );
    }
}
