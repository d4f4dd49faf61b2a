//! TMTS (ASPLOS '23) — Google's warehouse-scale adaptable memory tiering.
//!
//! Reproduced decision rules (paper Table 1 and §8 "Comparison to TMTS"):
//!
//! - **Hybrid tracking**: page-table scanning builds per-page *idle ages*
//!   (kstaled-style) while hardware sampling spots hot pages.
//! - **Promotion** uses a simple static criterion: one access observed by
//!   sampling, or at least two by page-table scanning — performed in the
//!   background (no critical-path migration).
//! - **Demotion** is driven by a *cold-age histogram*: pages idle longer
//!   than an adaptive age threshold are demoted; the threshold adapts to
//!   keep the secondary-tier residency ratio (STRR) near a target (25% in
//!   production).
//! - **Huge pages are split upon demotion** (all-cold by definition), never
//!   by skew — the contrast the paper draws with MEMTIS's split policy.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    Access, AccessOutcome, DetHashMap, PageSize, PolicyDescriptor, PolicyOps, SimError, TierId,
    TieringPolicy, VirtPage,
};
use memtis_tracking::pebs::PebsSampler;
use memtis_tracking::ptscan::scan_and_clear;

/// TMTS tunables.
#[derive(Debug, Clone)]
pub struct TmtsConfig {
    /// PEBS load period (fixed; TMTS does not throttle dynamically).
    pub load_period: u64,
    /// PEBS store period.
    pub store_period: u64,
    /// Scan period, in ticks (builds idle ages).
    pub scan_every_ticks: u32,
    /// Scan-observed accesses required for promotion (paper: 2; one
    /// hardware sample also suffices).
    pub scan_promote_threshold: u8,
    /// Target secondary-tier residency ratio (paper: 25%).
    pub target_strr: f64,
    /// Initial demotion idle-age threshold, in scans.
    pub initial_demote_age: u32,
    /// Migration budget per tick (bytes).
    pub batch_bytes: u64,
}

impl Default for TmtsConfig {
    fn default() -> Self {
        TmtsConfig {
            load_period: 16,
            store_period: 2_000,
            scan_every_ticks: 8,
            scan_promote_threshold: 2,
            target_strr: 0.25,
            initial_demote_age: 4,
            batch_bytes: 16 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Page {
    size_huge: bool,
    /// Consecutive scans without an observed access.
    idle_age: u32,
    /// Accesses observed by scanning since last promotion decision.
    scan_hits: u8,
}

/// The TMTS policy.
pub struct TmtsPolicy {
    cfg: TmtsConfig,
    sampler: PebsSampler,
    pages: DetHashMap<VirtPage, Page>,
    demote_age: u32,
    ticks: u32,
    /// Cold-age histogram from the last scan (index = idle age, capped).
    pub cold_age_histogram: Vec<u64>,
    /// Huge pages split at demotion time.
    pub demotion_splits: u64,
}

impl TmtsPolicy {
    /// Creates the policy.
    pub fn new(cfg: TmtsConfig) -> Self {
        let sampler = PebsSampler::new(cfg.load_period, cfg.store_period);
        let demote_age = cfg.initial_demote_age;
        TmtsPolicy {
            cfg,
            sampler,
            pages: DetHashMap::default(),
            demote_age,
            ticks: 0,
            cold_age_histogram: vec![0; 32],
            demotion_splits: 0,
        }
    }

    /// Current adaptive demotion age threshold (scans).
    pub fn demote_age(&self) -> u32 {
        self.demote_age
    }

    fn promote(&mut self, ops: &mut PolicyOps<'_>, key: VirtPage) {
        let Some(p) = self.pages.get(&key) else {
            return;
        };
        let size = if p.size_huge {
            PageSize::Huge
        } else {
            PageSize::Base
        };
        match ops.locate(key) {
            Some((t, s)) if t != TierId::FAST && s == size => {}
            _ => return,
        }
        if ops.free_bytes(TierId::FAST) >= size.bytes() {
            let _ = ops.migrate(key, TierId::FAST);
        }
    }
}

impl TieringPolicy for TmtsPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "TMTS",
            mechanism: "PT scanning & HW-based sampling",
            subpage_tracking: false,
            promotion_metric: "Recency + Frequency",
            demotion_metric: "Recency",
            thresholding: "Static count (promo), idle age (demo)",
            critical_path_migration: "None",
            page_size_handling: "Split upon demotion",
        }
    }

    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        vpage: VirtPage,
        size: PageSize,
        _tier: TierId,
    ) {
        self.pages.insert(
            vpage,
            Page {
                size_huge: size == PageSize::Huge,
                ..Default::default()
            },
        );
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.pages.remove(&vpage);
    }

    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        let Some(sample) = self.sampler.observe(access, outcome) else {
            return;
        };
        ops.charge(4.0);
        let key = match outcome.page_size {
            PageSize::Huge => sample.vaddr.base_page().huge_aligned(),
            PageSize::Base => sample.vaddr.base_page(),
        };
        if let Some(p) = self.pages.get_mut(&key) {
            p.idle_age = 0;
        }
        // One hardware sample suffices for promotion candidacy (§8); the
        // move itself happens here in daemon context, off the critical path.
        if outcome.tier != TierId::FAST {
            self.promote(ops, key);
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.cfg.scan_every_ticks) {
            return;
        }
        // Scan: harvest accessed bits into idle ages and scan-hit counts.
        let mut accessed = Vec::new();
        let mut idle = Vec::new();
        scan_and_clear(ops, |rec| {
            if rec.accessed {
                accessed.push(rec.vpage);
            } else {
                idle.push(rec.vpage);
            }
        });
        self.cold_age_histogram.iter_mut().for_each(|v| *v = 0);
        let mut promote = Vec::new();
        for v in accessed {
            if let Some(p) = self.pages.get_mut(&v) {
                p.idle_age = 0;
                p.scan_hits = p.scan_hits.saturating_add(1);
                if p.scan_hits >= self.cfg.scan_promote_threshold {
                    p.scan_hits = 0;
                    promote.push(v);
                }
            }
        }
        let mut demote: Vec<(VirtPage, bool)> = Vec::new();
        for v in idle {
            if let Some(p) = self.pages.get_mut(&v) {
                p.idle_age = p.idle_age.saturating_add(1);
                let bucket = (p.idle_age as usize).min(self.cold_age_histogram.len() - 1);
                self.cold_age_histogram[bucket] += 1;
                if p.idle_age >= self.demote_age {
                    demote.push((v, p.size_huge));
                }
            }
        }

        // Background promotion (static criterion: 2 scan hits).
        for v in promote {
            self.promote(ops, v);
        }

        // Adapt the demotion age to steer STRR toward the target: if the
        // secondary tier holds less than the target share, demote more
        // eagerly (lower age); if more, be more protective.
        let fast_used = ops.capacity_bytes(TierId::FAST) - ops.free_bytes(TierId::FAST);
        let cap_used = ops.capacity_bytes(TierId::CAPACITY) - ops.free_bytes(TierId::CAPACITY);
        let total = (fast_used + cap_used).max(1);
        let strr = cap_used as f64 / total as f64;
        if strr < self.cfg.target_strr * 0.8 {
            self.demote_age = self.demote_age.saturating_sub(1).max(1);
        } else if strr > self.cfg.target_strr * 1.2 {
            self.demote_age = (self.demote_age + 1).min(30);
        }

        // Demotion, splitting huge pages on the way down ("all demoted huge
        // pages, which are entirely cold, undergo splitting upon demotion").
        let mut budget = self.cfg.batch_bytes;
        for (v, huge) in demote {
            if budget == 0 {
                break;
            }
            match ops.locate(v) {
                Some((TierId::FAST, size)) => {
                    if huge && size == PageSize::Huge {
                        if ops.split_huge(v, false).is_err() {
                            continue;
                        }
                        self.demotion_splits += 1;
                        // Track the subpages individually from here on.
                        self.pages.remove(&v);
                        for i in 0..memtis_sim::addr::NR_SUBPAGES {
                            let child = v.add(i);
                            self.pages.insert(
                                child,
                                Page {
                                    size_huge: false,
                                    idle_age: self.demote_age,
                                    scan_hits: 0,
                                },
                            );
                            match ops.migrate(child, TierId::CAPACITY) {
                                Ok(_) => budget = budget.saturating_sub(4096),
                                Err(SimError::OutOfMemory { .. }) => break,
                                Err(_) => continue,
                            }
                        }
                    } else {
                        match ops.migrate(v, TierId::CAPACITY) {
                            Ok(_) => budget = budget.saturating_sub(size.bytes()),
                            Err(SimError::OutOfMemory { .. }) => break,
                            Err(_) => continue,
                        }
                    }
                }
                _ => continue,
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

memtis_sim::obs::snap_struct!(Page {
    size_huge,
    idle_age,
    scan_hits
});

// `pages` is only ever accessed by key; its encoding is key-sorted.
memtis_sim::obs::snap_struct!(in TmtsPolicy {
    @fp cfg,
    sampler,
    pages,
    demote_age,
    ticks,
    cold_age_histogram,
    demotion_splits,
} check |p: &mut TmtsPolicy| {
    if p.cold_age_histogram.is_empty() {
        return Err(SnapError::Corrupt("tmts cold-age histogram empty"));
    }
    Ok(())
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

    fn cfg() -> TmtsConfig {
        TmtsConfig {
            load_period: 1,
            store_period: 1,
            scan_every_ticks: 1,
            initial_demote_age: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sampled_page_promotes_in_background() {
        let (mut m, mut acct) = env();
        let mut p = TmtsPolicy::new(cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        let a = Access::store(0);
        let out = m.access(a).unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_access(&mut ops, &a, &out);
        }
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
        assert_eq!(acct.app_extra_ns, 0.0, "no critical-path work");
    }

    #[test]
    fn idle_huge_pages_split_upon_demotion() {
        let (mut m, mut acct) = env();
        let mut p = TmtsPolicy::new(cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        // Touch every subpage once so nothing is freed as all-zero later.
        for i in 0..512u64 {
            m.access(Access::store(i * 4096)).unwrap();
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::FAST);
        }
        // Scans with no further accesses: idle age climbs past the
        // threshold and the page is split and demoted as base pages.
        for t in 0..8 {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, t as f64);
            p.tick(&mut ops);
        }
        assert!(p.demotion_splits >= 1, "huge page split at demotion");
        assert_eq!(
            m.locate(VirtPage(17)),
            Some((TierId::CAPACITY, PageSize::Base))
        );
    }

    #[test]
    fn demote_age_adapts_toward_strr_target() {
        let (mut m, mut acct) = env();
        let mut p = TmtsPolicy::new(cfg());
        // Everything resident in fast tier: STRR = 0 < target -> demote age
        // should fall toward its floor.
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::FAST);
        }
        let before = p.demote_age();
        for t in 0..3 {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, t as f64);
            p.tick(&mut ops);
        }
        assert!(p.demote_age() <= before);
    }
}
