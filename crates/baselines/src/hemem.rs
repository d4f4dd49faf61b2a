//! HeMem (SOSP '21) — user-level tiering with PEBS sampling and *static*
//! thresholds.
//!
//! Reproduced decision rules (paper §2.2, §6.2.9, Table 1, Table 3):
//!
//! - PEBS-based frequency tracking with **fixed** sampling periods and a
//!   dedicated busy-polling sampler thread (~100% of one core), modeled via
//!   [`TieringPolicy::dedicated_daemon_cores`].
//! - A page is hot once its access count crosses a **static** hot threshold;
//!   whenever any count reaches the static cooling threshold, *all* counts
//!   are halved.
//! - Anti-thrashing: promotion/demotion halt while the identified hot set
//!   exceeds the fast-tier size (§7 "Anti-thrashing mechanisms").
//! - Small (non-huge-mmap) allocations bypass tiering and are placed
//!   directly in the fast tier — the *over-allocation* the paper measures in
//!   Table 3 and compensates for in its HeMem configuration.

use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    Access, AccessOutcome, DetHashMap, PageSize, PolicyDescriptor, PolicyOps, SimError, TierId,
    TieringPolicy, VirtPage,
};
use memtis_tracking::pebs::PebsSampler;
use std::collections::VecDeque;

/// HeMem tunables.
#[derive(Debug, Clone)]
pub struct HememConfig {
    /// Fixed PEBS load period.
    pub load_period: u64,
    /// Fixed PEBS store period.
    pub store_period: u64,
    /// Static hot threshold on the access count (HeMem default: 8).
    pub hot_threshold: u64,
    /// Static cooling threshold: when any count reaches it, halve all.
    pub cool_threshold: u64,
    /// Place THP-ineligible ("small") allocations in the fast tier
    /// unconditionally (the Table 3 over-allocation behaviour).
    pub pin_small_to_fast: bool,
    /// Migration budget per wakeup (bytes).
    pub migrate_batch_bytes: u64,
    /// CPU cost per processed sample (ns) charged to the daemon budget, in
    /// addition to the dedicated polling core.
    pub sample_cost_ns: f64,
}

impl Default for HememConfig {
    fn default() -> Self {
        HememConfig {
            load_period: 32,
            store_period: 4_000,
            hot_threshold: 8,
            cool_threshold: 18,
            pin_small_to_fast: true,
            migrate_batch_bytes: 16 << 20,
            sample_cost_ns: 4.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Page {
    size: PageSize,
    count: u64,
    in_promo: bool,
}

/// The HeMem policy.
pub struct HememPolicy {
    cfg: HememConfig,
    sampler: PebsSampler,
    pages: DetHashMap<VirtPage, Page>,
    hot_bytes: u64,
    promo: VecDeque<VirtPage>,
    /// Bytes of small allocations pinned to the fast tier (Table 3).
    pub overallocated_bytes: u64,
    /// Hot-set-size timeline samples `(now_ns, hot_bytes)` (Fig. 2).
    pub hot_series: Vec<(f64, u64)>,
    /// Total coolings performed.
    pub coolings: u64,
}

impl HememPolicy {
    /// Creates the policy.
    pub fn new(cfg: HememConfig) -> Self {
        let sampler = PebsSampler::new(cfg.load_period, cfg.store_period);
        HememPolicy {
            cfg,
            sampler,
            pages: DetHashMap::default(),
            hot_bytes: 0,
            promo: VecDeque::new(),
            overallocated_bytes: 0,
            hot_series: Vec::new(),
            coolings: 0,
        }
    }

    /// Current identified hot-set size in bytes.
    pub fn hot_bytes(&self) -> u64 {
        self.hot_bytes
    }

    fn cool_all(&mut self) {
        self.coolings += 1;
        self.hot_bytes = 0;
        for p in self.pages.values_mut() {
            p.count /= 2;
            if p.count >= self.cfg.hot_threshold {
                self.hot_bytes += p.size.bytes();
            }
        }
    }
}

impl TieringPolicy for HememPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "HeMem",
            mechanism: "HW-based sampling",
            subpage_tracking: false,
            promotion_metric: "Recency + Frequency",
            demotion_metric: "Recency + Frequency",
            thresholding: "Static access count",
            critical_path_migration: "None",
            page_size_handling: "None",
        }
    }

    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
        // Small allocations bypass tiering and head for fast memory
        // unconditionally — the Table 3 over-allocation. (The machine falls
        // back to the capacity tier only when no fast frame exists at all.)
        if self.cfg.pin_small_to_fast && size == PageSize::Base {
            self.overallocated_bytes += size.bytes();
            return TierId::FAST;
        }
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
        _tier: TierId,
    ) {
        self.pages.insert(
            vpage,
            Page {
                size,
                count: 0,
                in_promo: false,
            },
        );
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        if let Some(p) = self.pages.remove(&vpage) {
            if p.count >= self.cfg.hot_threshold {
                self.hot_bytes = self.hot_bytes.saturating_sub(p.size.bytes());
            }
        }
    }

    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        let Some(sample) = self.sampler.observe(access, outcome) else {
            return;
        };
        ops.charge(self.cfg.sample_cost_ns);
        let key = match outcome.page_size {
            PageSize::Huge => sample.vaddr.base_page().huge_aligned(),
            PageSize::Base => sample.vaddr.base_page(),
        };
        let (hot_threshold, cool_threshold) = (self.cfg.hot_threshold, self.cfg.cool_threshold);
        let mut needs_cool = false;
        if let Some(p) = self.pages.get_mut(&key) {
            p.count += 1;
            if p.count == hot_threshold {
                self.hot_bytes += p.size.bytes();
                if outcome.tier != TierId::FAST && !p.in_promo {
                    p.in_promo = true;
                    self.promo.push_back(key);
                }
            }
            if p.count >= cool_threshold {
                needs_cool = true;
            }
        }
        if needs_cool {
            // "Whenever the access count of any page reaches the static
            // cooling threshold, the access count of all pages is halved."
            self.cool_all();
            ops.charge(self.pages.len() as f64 * 2.0);
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.hot_series.push((ops.now_ns(), self.hot_bytes));
        // Anti-thrashing: freeze migration while the hot set exceeds the
        // fast tier.
        if self.hot_bytes > ops.capacity_bytes(TierId::FAST) {
            return;
        }
        let mut budget = self.cfg.migrate_batch_bytes;
        while budget > 0 {
            let Some(vpage) = self.promo.pop_front() else {
                break;
            };
            let Some(p) = self.pages.get_mut(&vpage) else {
                continue;
            };
            p.in_promo = false;
            let size = p.size;
            if p.count < self.cfg.hot_threshold {
                continue;
            }
            match ops.locate(vpage) {
                Some((t, s)) if t != TierId::FAST && s == size => {}
                _ => continue,
            }
            // Make room by demoting cold fast-tier pages (static criterion).
            // Scan in ascending-vpage order: the selection must be a
            // function of the map's *contents*, not its hash-bucket layout,
            // or a policy rebuilt from a snapshot picks different victims.
            if ops.free_bytes(TierId::FAST) < size.bytes() {
                let mut victims: Vec<(VirtPage, PageSize)> = self
                    .pages
                    .iter()
                    .filter(|(_, q)| q.count < self.cfg.hot_threshold)
                    .map(|(&v, q)| (v, q.size))
                    .collect();
                victims.sort_unstable_by_key(|&(v, _)| v);
                victims.truncate(64);
                let mut freed = 0u64;
                for (v, vs) in victims {
                    if ops.free_bytes(TierId::FAST) >= size.bytes() || freed >= budget {
                        break;
                    }
                    if let Some((TierId::FAST, s)) = ops.locate(v) {
                        if s == vs && ops.migrate(v, TierId::CAPACITY).is_ok() {
                            freed += vs.bytes();
                        }
                    }
                }
                budget = budget.saturating_sub(freed);
                if ops.free_bytes(TierId::FAST) < size.bytes() {
                    let p = self.pages.get_mut(&vpage).expect("present");
                    p.in_promo = true;
                    self.promo.push_front(vpage);
                    break;
                }
            }
            match ops.migrate(vpage, TierId::FAST) {
                Ok(_) => budget = budget.saturating_sub(size.bytes()),
                Err(SimError::OutOfMemory { .. }) => break,
                Err(_) => continue,
            }
        }
    }

    fn dedicated_daemon_cores(&self) -> f64 {
        // HeMem's sampling thread busy-polls the PEBS buffers (§6.2.1:
        // "high CPU usage (~100%) of the sampling thread").
        1.0
    }

    fn timeline(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("hot_bytes", self.hot_bytes as f64));
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
    count,
    in_promo
});

// The page map is keyed *and* scanned (victim selection), but the scan
// sorts by vpage first, so the map's key-sorted encoding keeps both the
// byte stream and post-restore behaviour deterministic. The promotion
// queue is ordered state and travels as-is.
memtis_sim::obs::snap_struct!(in HememPolicy {
    @fp cfg,
    sampler,
    pages,
    hot_bytes,
    promo,
    overallocated_bytes,
    hot_series,
    coolings,
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

    fn cfg() -> HememConfig {
        HememConfig {
            load_period: 1,
            store_period: 1,
            hot_threshold: 4,
            cool_threshold: 16,
            ..Default::default()
        }
    }

    #[test]
    fn static_threshold_marks_hot_and_promotes() {
        let (mut m, mut acct) = env();
        let mut p = HememPolicy::new(cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        for i in 0..6u64 {
            let a = Access::store(i * 64);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64);
            p.on_access(&mut ops, &a, &out);
        }
        assert_eq!(p.hot_bytes(), HUGE_PAGE_SIZE);
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 100.0);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Huge)));
    }

    #[test]
    fn global_halving_at_cooling_threshold() {
        let (mut m, mut acct) = env();
        let mut p = HememPolicy::new(cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::FAST)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::FAST);
            p.on_alloc(&mut ops, VirtPage(512), PageSize::Huge, TierId::FAST);
        }
        // Drive page 0 to the cooling threshold; page 512 to 6 accesses.
        for i in 0..6u64 {
            let a = Access::store(512 * 4096 + i * 64);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64);
            p.on_access(&mut ops, &a, &out);
        }
        for i in 0..16u64 {
            let a = Access::store(i * 64);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64);
            p.on_access(&mut ops, &a, &out);
        }
        assert_eq!(p.coolings, 1);
        // All counts halved: page 512's 6 accesses became 3 (< threshold 4),
        // so the paper's criticism applies — hotness info was destroyed.
        assert_eq!(p.pages[&VirtPage(512)].count, 3);
        assert_eq!(p.hot_bytes(), HUGE_PAGE_SIZE); // Only page 0 (count 8).
    }

    #[test]
    fn anti_thrashing_freezes_migration() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            2 * HUGE_PAGE_SIZE,
            32 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = HememPolicy::new(cfg());
        // Three hot huge pages in the capacity tier: hot set (6 MiB) exceeds
        // the 4 MiB fast tier.
        for i in 0..3u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY)
                .unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(
                &mut ops,
                VirtPage(i * 512),
                PageSize::Huge,
                TierId::CAPACITY,
            );
        }
        for i in 0..3u64 {
            for k in 0..5u64 {
                let a = Access::store(i * HUGE_PAGE_SIZE + k * 64);
                let out = m.access(a).unwrap();
                let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
                p.on_access(&mut ops, &a, &out);
            }
        }
        assert!(p.hot_bytes() > 2 * HUGE_PAGE_SIZE);
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1.0);
            p.tick(&mut ops);
        }
        // Nothing moved: migration frozen.
        for i in 0..3u64 {
            assert_eq!(
                m.locate(VirtPage(i * 512)),
                Some((TierId::CAPACITY, PageSize::Huge))
            );
        }
    }

    #[test]
    fn small_allocations_overallocate_fast_tier() {
        let (mut m, mut acct) = env();
        let mut p = HememPolicy::new(cfg());
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        let t = p.alloc_tier(&mut ops, VirtPage(0), PageSize::Base);
        assert_eq!(t, TierId::FAST);
        assert_eq!(p.overallocated_bytes, 4096);
        assert_eq!(p.dedicated_daemon_cores(), 1.0);
    }
}
