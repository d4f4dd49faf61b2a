//! The MEMTIS tiering policy (§3–§4).
//!
//! `ksampled` work happens in [`MemtisPolicy::on_access`] (sample
//! processing, histogram updates, threshold adaptation, cooling triggers,
//! split-benefit estimation), `kmigrated` work in [`MemtisPolicy::tick`]
//! (promotion, demotion, huge-page split/collapse). Both are charged to the
//! background-daemon cost sink — nothing MEMTIS does extends the
//! application's critical path, which is the property the driver's cost
//! model rewards.

use crate::config::MemtisConfig;
use crate::histogram::{bin_of, AccessHistogram, MAX_BIN, NUM_BINS};
use crate::meta::{subpage_hotness, PageMeta, SubMeta};
use crate::regions::RegionTable;
use crate::threshold::{adapt, Thresholds};
use memtis_sim::obs::{SnapError, SnapFields, SnapReader, SnapWriter};
use memtis_sim::prelude::{
    Access, AccessKind, AccessOutcome, AccessRecord, EventKind, PageSize, PolicyDescriptor,
    PolicyOps, RecordFilter, SimError, ThresholdCause, TierId, TieringPolicy, TransferEnd,
    TransferId, VirtPage, HUGE_PAGE_SIZE, NR_SUBPAGES,
};
use memtis_tracking::pebs::{PebsSampler, PeriodController};
use std::collections::VecDeque;

/// CPU cost of one threshold adaptation (ns).
const ADAPT_NS: f64 = 500.0;
/// CPU cost per 4 KiB page-equivalent visited during cooling (ns).
const COOL_PAGE_NS: f64 = 2.0;
/// Number of log2 buckets for the skewness selection array.
const SKEW_BUCKETS: usize = 48;

/// Counters and series exposed for the evaluation harness.
#[derive(Debug, Default, Clone)]
pub struct MemtisStats {
    /// PEBS samples processed.
    pub samples: u64,
    /// Threshold adaptations performed.
    pub adaptations: u64,
    /// Cooling passes performed.
    pub coolings: u64,
    /// Split-benefit estimations performed.
    pub estimates: u64,
    /// Huge pages split.
    pub splits: u64,
    /// Huge pages collapsed.
    pub collapses: u64,
    /// 4 KiB pages promoted.
    pub promoted_4k: u64,
    /// 4 KiB pages demoted.
    pub demoted_4k: u64,
    /// Most recent measured fast-tier hit ratio (rHR, §4.3.1).
    pub last_rhr: f64,
    /// Most recent estimated base-page-only hit ratio (eHR).
    pub last_ehr: f64,
    /// `(now_ns, rHR, eHR)` per estimation window.
    pub hr_series: Vec<(f64, f64, f64)>,
    /// `(now_ns, load_period)` per controller decision.
    pub period_series: Vec<(f64, u64)>,
    /// Smoothed `ksampled` CPU usage (fraction of one core).
    pub cpu_usage_ema: f64,
    /// Split candidates bucketed at the most recent cooling.
    pub split_candidates: u64,
    /// Total splits requested by the benefit estimator (sum of Ns).
    pub split_requested: u64,
    /// In-flight promotions aborted because the page cooled below the hot
    /// threshold before the copy finished.
    pub inflight_cancels: u64,
    /// Promotions re-enqueued after their transfer aborted (dirty re-copy
    /// exhaustion, forced fault, …) while the page was still hot.
    pub abort_retries: u64,
}

/// The MEMTIS policy.
pub struct MemtisPolicy {
    cfg: MemtisConfig,
    pages: RegionTable,
    page_hist: AccessHistogram,
    base_hist: AccessHistogram,
    thr: Thresholds,
    base_thr: Thresholds,
    sampler: PebsSampler,
    controller: PeriodController,
    // Event-count clocks.
    since_adapt: u64,
    since_cool: u64,
    since_control: u64,
    last_control_ns: f64,
    window_cpu_ns: f64,
    // Benefit-estimation window (§4.3.1).
    win_samples: u64,
    win_fast: u64,
    win_ehr_hits: u64,
    win_hp_samples: u64,
    win_hp_distinct: u64,
    epoch: u32,
    // Work queues.
    promo: VecDeque<VirtPage>,
    demote_cold: VecDeque<VirtPage>,
    demote_warm: VecDeque<VirtPage>,
    split_queue: VecDeque<VirtPage>,
    collapse_queue: VecDeque<VirtPage>,
    /// Transfers this policy admitted to the asynchronous migration engine
    /// and has not yet seen end: `(page, transfer, destination)`. Empty in
    /// unlimited-bandwidth mode, where every migration completes in place.
    in_flight: Vec<(VirtPage, TransferId, TierId)>,
    skew_buckets: Vec<Vec<VirtPage>>,
    benefit_streak: u32,
    ticks_since_refill: u32,
    /// Public statistics.
    pub stats: MemtisStats,
}

impl MemtisPolicy {
    /// Creates the policy with the given configuration.
    pub fn new(cfg: MemtisConfig) -> Self {
        let sampler = PebsSampler::new(cfg.load_period, cfg.store_period);
        let controller =
            PeriodController::with_limits(cfg.cpu_limit, (cfg.load_period / 4).max(1), 1_000_000);
        MemtisPolicy {
            cfg,
            pages: RegionTable::new(),
            page_hist: AccessHistogram::new(),
            base_hist: AccessHistogram::new(),
            thr: Thresholds::default(),
            base_thr: Thresholds::default(),
            sampler,
            controller,
            since_adapt: 0,
            since_cool: 0,
            since_control: 0,
            last_control_ns: 0.0,
            window_cpu_ns: 0.0,
            win_samples: 0,
            win_fast: 0,
            win_ehr_hits: 0,
            win_hp_samples: 0,
            win_hp_distinct: 0,
            epoch: 1,
            promo: VecDeque::new(),
            demote_cold: VecDeque::new(),
            demote_warm: VecDeque::new(),
            split_queue: VecDeque::new(),
            collapse_queue: VecDeque::new(),
            in_flight: Vec::new(),
            skew_buckets: vec![Vec::new(); SKEW_BUCKETS],
            benefit_streak: 0,
            ticks_since_refill: u32::MAX / 2,
            stats: MemtisStats::default(),
        }
    }

    /// Current thresholds over the page access histogram.
    pub fn thresholds(&self) -> Thresholds {
        self.thr
    }

    /// Current thresholds over the emulated base-page histogram.
    pub fn base_thresholds(&self) -> Thresholds {
        self.base_thr
    }

    /// The page access histogram.
    pub fn histogram(&self) -> &AccessHistogram {
        &self.page_hist
    }

    /// The emulated base-page histogram.
    pub fn base_histogram(&self) -> &AccessHistogram {
        &self.base_hist
    }

    /// Current PEBS load period (after dynamic adjustment).
    pub fn load_period(&self) -> u64 {
        self.sampler.load_period()
    }

    /// Metadata view for tests and analysis tools.
    pub fn page_meta(&self, vpage: VirtPage) -> Option<&PageMeta> {
        self.pages.get(vpage)
    }

    /// Iterates all tracked pages in ascending virtual-page order
    /// (analysis tools, Fig. 3 scatter).
    pub fn pages_iter(&self) -> impl Iterator<Item = (VirtPage, &PageMeta)> {
        self.pages.iter()
    }

    fn initial_count(&self, size: PageSize) -> u64 {
        // "Initial hotness for newly allocated pages is set to the current
        // hotness threshold (T_hot)" — §4.2.1.
        let bin = self.thr.hot.min(MAX_BIN);
        match size {
            PageSize::Huge => 1u64 << bin,
            PageSize::Base => 1u64 << (bin.saturating_sub(9)),
        }
    }

    fn remove_from_hists(&mut self, meta: &PageMeta) {
        self.page_hist.remove(meta.bin as usize, meta.pages_4k());
        match &meta.sub {
            Some(sub) => {
                for &b in sub.bins.iter() {
                    self.base_hist.remove(b as usize, 1);
                }
            }
            None => self.base_hist.remove(meta.bin as usize, 1),
        }
    }

    fn add_to_hists(&mut self, meta: &PageMeta) {
        self.page_hist.add(meta.bin as usize, meta.pages_4k());
        match &meta.sub {
            Some(sub) => {
                for &b in sub.bins.iter() {
                    self.base_hist.add(b as usize, 1);
                }
            }
            None => self.base_hist.add(meta.bin as usize, 1),
        }
    }

    fn run_adaptation(&mut self, ops: &mut PolicyOps<'_>, cause: ThresholdCause) {
        let _span = ops.span(memtis_sim::obs::SpanId::ThresholdRecompute);
        let fast = ops.capacity_bytes(TierId::FAST);
        self.thr = adapt(&self.page_hist, fast, self.cfg.alpha, self.cfg.warm_set);
        self.base_thr = adapt(&self.base_hist, fast, self.cfg.alpha, true);
        ops.charge(ADAPT_NS);
        self.window_cpu_ns += ADAPT_NS;
        self.stats.adaptations += 1;
        ops.emit(EventKind::ThresholdRecompute {
            cause,
            hot: self.thr.hot as u32,
            warm: self.thr.warm as u32,
            cold: self.thr.cold as u32,
        });
    }

    /// `ksampled`'s work for one PEBS sample of `access` (§4.1): charge its
    /// cost, count it against its page and subpage with one metadata
    /// lookup, move both histograms, queue a hot capacity-tier page for
    /// promotion, and advance the sample-count clocks (adaptation,
    /// cooling, benefit estimation, period control).
    fn process_sample(
        &mut self,
        ops: &mut PolicyOps<'_>,
        access: &Access,
        outcome: &AccessOutcome,
    ) {
        ops.charge(self.cfg.sample_cost_ns);
        self.window_cpu_ns += self.cfg.sample_cost_ns;
        self.stats.samples += 1;

        let vpage = access.vaddr.base_page();
        let is_huge = outcome.page_size == PageSize::Huge;
        let key = if is_huge { vpage.huge_aligned() } else { vpage };
        if let Some(meta) = self.pages.get_mut(key) {
            meta.count += 1;
            let old_bin = meta.bin as usize;
            let new_bin = bin_of(meta.hotness());
            meta.bin = new_bin as u8;
            self.page_hist.move_pages(old_bin, new_bin, meta.pages_4k());
            // The sampled 4 KiB page's bin in the emulated base-page
            // histogram, for eHR: would it hit if only base pages were used?
            let sampled_base_bin = if is_huge {
                meta.sub.as_mut().map(|sub| {
                    let j = vpage.subpage_index();
                    sub.counts[j] = sub.counts[j].saturating_add(1);
                    let nb = bin_of(subpage_hotness(sub.counts[j]));
                    self.base_hist.move_pages(sub.bins[j] as usize, nb, 1);
                    sub.bins[j] = nb as u8;
                    nb
                })
            } else {
                self.base_hist.move_pages(old_bin, new_bin, 1);
                Some(new_bin)
            };
            if sampled_base_bin.is_some_and(|bb| bb >= self.base_thr.hot) {
                self.win_ehr_hits += 1;
            }
            // Promotion candidates: hot pages currently in the capacity tier.
            if self.thr.is_hot(new_bin) && outcome.tier != TierId::FAST && !meta.in_promo {
                meta.in_promo = true;
                self.promo.push_back(key);
            }
            if is_huge {
                self.win_hp_samples += 1;
                if meta.epoch != self.epoch {
                    meta.epoch = self.epoch;
                    self.win_hp_distinct += 1;
                }
            }
        }

        // rHR: did the sampled access land in the fast tier? (§4.3.1)
        self.win_samples += 1;
        if outcome.tier == TierId::FAST {
            self.win_fast += 1;
        }

        // Event-count clocks.
        self.since_adapt += 1;
        self.since_cool += 1;
        self.since_control += 1;

        if self.since_adapt >= self.cfg.adapt_interval {
            self.since_adapt = 0;
            self.run_adaptation(ops, ThresholdCause::Periodic);
        }
        if self.since_cool >= self.cfg.cooling_interval {
            self.since_cool = 0;
            self.run_cooling(ops);
        }
        // Benefit estimation once enough records accumulated: a quarter of
        // the allocated pages, floored for small runs (§4.3.1).
        let rss_pages = ops.machine().rss_bytes() / 4096;
        let trigger =
            (rss_pages / self.cfg.estimate_rss_divisor.max(1)).max(self.cfg.min_estimate_samples);
        if self.win_samples >= trigger {
            self.run_estimation(ops);
        }
        // Dynamic period control (§4.1.1).
        if self.since_control >= self.cfg.control_interval {
            self.since_control = 0;
            let now = ops.now_ns();
            let elapsed = now - self.last_control_ns;
            if elapsed > 0.0 {
                let usage = self.window_cpu_ns / elapsed;
                self.controller.update(usage, &mut self.sampler);
                self.stats.cpu_usage_ema = self.controller.usage_ema();
                self.stats
                    .period_series
                    .push((now, self.sampler.load_period()));
                ops.emit(EventKind::SampleBatch {
                    samples: self.cfg.control_interval,
                    load_period: self.sampler.load_period(),
                    cpu_usage: self.stats.cpu_usage_ema,
                });
            }
            self.last_control_ns = now;
            self.window_cpu_ns = 0.0;
        }
    }

    /// Periodic histogram cooling (§4.2.2): halve every count, shift both
    /// histograms one bin left, correct stragglers, and rebuild the
    /// demotion lists, skewness buckets, and collapse candidates.
    fn run_cooling(&mut self, ops: &mut PolicyOps<'_>) {
        let _span = ops.span(memtis_sim::obs::SpanId::CoolingTick);
        self.page_hist.cool();
        self.base_hist.cool();
        self.demote_cold.clear();
        self.demote_warm.clear();
        for b in &mut self.skew_buckets {
            b.clear();
        }
        self.collapse_queue.clear();

        let mut visited_4k = 0u64;
        // The region table sorts its scan order and packs each 2 MiB
        // region's entries contiguously, so collapse detection needs no
        // auxiliary grouping map: count (hot, total, resident-in-fast)
        // inline while sweeping each region. A huge region's one entry is
        // its slot 0, and the sweep ends at the region's last live entry.
        for region in self.pages.regions_sorted() {
            let mut grp_hot: u16 = 0;
            let mut grp_total: u16 = 0;
            let mut grp_all_fast = true;
            for (vpage, meta) in self.pages.region_entries_mut(region) {
                let pages_4k = meta.pages_4k();
                visited_4k += pages_4k;
                // Halve the count; the histogram shift already assumed the
                // bin dropped by exactly one, so correct any page whose
                // halved hotness lands elsewhere (top bin, or zero).
                meta.count /= 2;
                let assumed = (meta.bin as usize).saturating_sub(1);
                let actual = bin_of(meta.hotness());
                meta.bin = actual as u8;
                let is_huge = meta.size == PageSize::Huge;
                self.page_hist.move_pages(assumed, actual, pages_4k);
                // Subpage cooling with the same correction on the base hist.
                match meta.sub.as_mut() {
                    Some(sub) => cool_subpages(sub, &mut self.base_hist),
                    None => self.base_hist.move_pages(assumed, actual, 1),
                }

                // Classify for the demotion lists (fast-tier residents only).
                let in_fast = matches!(ops.locate(vpage), Some((t, _)) if t == TierId::FAST);
                if in_fast {
                    if self.thr.is_cold(actual) {
                        self.demote_cold.push_back(vpage);
                    } else if self.thr.is_warm(actual) {
                        self.demote_warm.push_back(vpage);
                    }
                }

                // Skewness buckets for split candidate selection (§4.3.2).
                // Only *genuinely* skewed pages are candidates: few hot
                // subpages relative to the touched set, with the hottest
                // subpage far above the mean. Splitting a uniformly hot
                // huge page (or one whose subpage-count variation is
                // sampling noise) would sacrifice TLB reach for no
                // fast-tier savings.
                if self.cfg.split && is_huge {
                    // Any huge page with persistent subpage skew qualifies;
                    // a page that looks lukewarm at 2 MiB granularity may
                    // hold a very hot record — precisely the Silo pattern.
                    if let Some(p) = meta.skew_profile(self.base_thr.hot) {
                        if p.is_genuinely_skewed() {
                            let bucket =
                                (p.skewness.max(1.0).log2() as usize).min(SKEW_BUCKETS - 1);
                            self.skew_buckets[bucket].push(vpage);
                        }
                    }
                }

                // Collapse candidacy bookkeeping (hot base pages only).
                if self.cfg.collapse && !is_huge {
                    grp_total += 1;
                    if self.thr.is_hot(actual) {
                        grp_hot += 1;
                    }
                    grp_all_fast &= in_fast;
                }
            }

            if self.cfg.collapse
                && grp_total as u64 == NR_SUBPAGES
                && grp_hot == grp_total
                && grp_all_fast
            {
                self.collapse_queue.push_back(VirtPage(region << 9));
            }
        }

        self.stats.split_candidates = self.skew_buckets.iter().map(|b| b.len() as u64).sum();
        // The page-list walk is kmigrated work (§4.2.2): it consumes daemon
        // CPU but does not count against ksampled's sampling budget.
        ops.charge(visited_4k as f64 * COOL_PAGE_NS);
        self.stats.coolings += 1;
        // Thresholds shift with the histogram (§4.2.2).
        self.run_adaptation(ops, ThresholdCause::Cooling);
        ops.emit(EventKind::CoolingTick {
            visited_4k,
            hot_threshold: self.thr.hot as u32,
            warm_threshold: self.thr.warm as u32,
        });
    }

    /// Split-benefit estimation (§4.3.1) and candidate selection (§4.3.2).
    fn run_estimation(&mut self, ops: &mut PolicyOps<'_>) {
        let samples = self.win_samples.max(1);
        let rhr = self.win_fast as f64 / samples as f64;
        let ehr = self.win_ehr_hits as f64 / samples as f64;
        self.stats.last_rhr = rhr;
        self.stats.last_ehr = ehr;
        self.stats.hr_series.push((ops.now_ns(), rhr, ehr));
        self.stats.estimates += 1;

        if ehr - rhr >= self.cfg.split_benefit_min {
            self.benefit_streak += 1;
        } else {
            self.benefit_streak = 0;
        }
        // Split only on a sustained benefit ("long-term, stable memory
        // access trends", §4.3.1), never on a transient fill-phase gap.
        if self.cfg.split && self.benefit_streak >= self.cfg.estimate_streak {
            let cfg = ops.machine().config();
            let dl = cfg.latency_gap_ns();
            let l_fast = cfg.tier(TierId::FAST).load_ns;
            let avg_samples_hp =
                (self.win_hp_samples as f64 / self.win_hp_distinct.max(1) as f64).max(1.0);
            // Eq. 2: Ns = min((eHR − rHR) · (ΔL / L_fast) · (samples · β /
            // avg), samples / avg).
            let ns = ((ehr - rhr) * (dl / l_fast) * (samples as f64 * self.cfg.beta)
                / avg_samples_hp)
                .min(samples as f64 / avg_samples_hp)
                .floor() as usize;
            self.stats.split_requested += ns as u64;
            self.queue_top_skewed(ns);
        }

        self.win_samples = 0;
        self.win_fast = 0;
        self.win_ehr_hits = 0;
        self.win_hp_samples = 0;
        self.win_hp_distinct = 0;
        self.epoch = self.epoch.wrapping_add(1).max(1);
    }

    /// Picks the top-`n` most skewed huge pages from the bucket array built
    /// during the last cooling pass.
    fn queue_top_skewed(&mut self, n: usize) {
        let mut left = n;
        for bucket in self.skew_buckets.iter_mut().rev() {
            while left > 0 {
                let Some(vpage) = bucket.pop() else { break };
                self.split_queue.push_back(vpage);
                left -= 1;
            }
            if left == 0 {
                break;
            }
        }
    }

    /// Splinters one huge page: page-table split, zero-subpage reclaim, and
    /// metadata redistribution; hot subpages head for the fast tier, cold
    /// ones for the capacity tier (§4.3.3).
    fn do_split(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) -> bool {
        // Validate: still huge-mapped and tracked.
        let Some((tier, PageSize::Huge)) = ops.locate(vpage) else {
            return false;
        };
        let Some(meta) = self.pages.get(vpage) else {
            return false;
        };
        if meta.size != PageSize::Huge {
            return false;
        }
        // Which subpages survive the split (never-written ones are freed).
        let written: Vec<bool> = match ops.machine().huge_entry(vpage) {
            Some(h) => (0..NR_SUBPAGES as usize)
                .map(|i| h.subpage_written(i))
                .collect(),
            None => return false,
        };
        let meta = self.pages.remove(vpage).expect("checked above");
        self.remove_from_hists(&meta);
        if ops.split_huge(vpage, true).is_err() {
            // Should not happen after validation; drop metadata consistently.
            return false;
        }
        let sub = meta.sub.as_deref().cloned().unwrap_or_default();
        for (j, &w) in written.iter().enumerate() {
            if !w {
                continue;
            }
            let child = vpage.add(j as u64);
            let count = sub.counts[j] as u64;
            let new_meta = PageMeta::new_base(count);
            let bin = new_meta.bin as usize;
            self.page_hist.add(bin, 1);
            self.base_hist.add(bin, 1);
            if self.thr.is_hot(bin) && tier != TierId::FAST {
                self.promo.push_back(child);
            } else if tier == TierId::FAST && self.thr.is_cold(bin) {
                self.demote_cold.push_back(child);
            }
            self.pages.insert(child, new_meta);
        }
        self.stats.splits += 1;
        true
    }

    /// Collapses 512 all-hot, fast-tier base pages back into one huge page.
    fn do_collapse(&mut self, ops: &mut PolicyOps<'_>, group: VirtPage) -> bool {
        // Re-validate: all subpages still base-mapped in the fast tier, hot.
        for j in 0..NR_SUBPAGES {
            let child = group.add(j);
            match (ops.locate(child), self.pages.get(child)) {
                (Some((TierId::FAST, PageSize::Base)), Some(m))
                    if self.thr.is_hot(m.bin as usize) => {}
                _ => return false,
            }
        }
        if ops.collapse_huge(group, TierId::FAST).is_err() {
            return false;
        }
        let mut sub = Box::<SubMeta>::default();
        let mut total = 0u64;
        for j in 0..NR_SUBPAGES as usize {
            let child = group.add(j as u64);
            let m = self.pages.remove(child).expect("validated above");
            self.remove_from_hists(&m);
            sub.counts[j] = m.count.min(u32::MAX as u64) as u32;
            sub.bins[j] = bin_of(subpage_hotness(sub.counts[j])) as u8;
            total += m.count;
        }
        let meta = PageMeta {
            size: PageSize::Huge,
            count: total,
            bin: bin_of(total) as u8,
            sub: Some(sub),
            epoch: 0,
            in_promo: false,
        };
        self.add_to_hists(&meta);
        self.pages.insert(group, meta);
        self.stats.collapses += 1;
        true
    }

    /// Refills the demotion candidate lists by walking the page metadata
    /// (normally they are rebuilt at each cooling; `kmigrated` re-scans the
    /// page lists when it needs victims sooner).
    fn refill_demote_lists(&mut self, ops: &mut PolicyOps<'_>) {
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for (vpage, meta) in self.pages.iter() {
            let bin = meta.bin as usize;
            if self.thr.is_hot(bin) {
                continue;
            }
            if !matches!(ops.locate(vpage), Some((TierId::FAST, _))) {
                continue;
            }
            if self.thr.is_cold(bin) {
                cold.push(vpage);
            } else {
                warm.push(vpage);
            }
        }
        ops.charge(self.pages.len() as f64 * COOL_PAGE_NS);
        self.demote_cold = cold.into();
        self.demote_warm = warm.into();
    }

    /// Demotes pages (cold first, then warm) until the fast tier regains its
    /// free-space reserve or the budget runs out. Returns bytes migrated.
    fn demote_for_space(&mut self, ops: &mut PolicyOps<'_>, need_bytes: u64, budget: u64) -> u64 {
        let mut moved = 0u64;
        let mut use_warm = false;
        loop {
            if ops.free_bytes(TierId::FAST) >= need_bytes || moved >= budget {
                break;
            }
            let candidate = if !use_warm {
                match self.demote_cold.pop_front() {
                    Some(v) => Some((v, true)),
                    None => {
                        use_warm = true;
                        continue;
                    }
                }
            } else {
                self.demote_warm.pop_front().map(|v| (v, false))
            };
            let Some((vpage, want_cold)) = candidate else {
                break;
            };
            // Validate the (possibly stale) queue entry.
            let Some(meta) = self.pages.get(vpage) else {
                ops.cancel_migration(vpage, TierId::CAPACITY);
                continue;
            };
            let bin = meta.bin as usize;
            let ok_class = if want_cold {
                self.thr.is_cold(bin)
            } else {
                !self.thr.is_hot(bin)
            };
            if !ok_class {
                ops.cancel_migration(vpage, TierId::CAPACITY);
                continue;
            }
            match ops.locate(vpage) {
                Some((TierId::FAST, size)) if size == meta.size => {}
                _ => {
                    ops.cancel_migration(vpage, TierId::CAPACITY);
                    continue;
                }
            }
            match ops.migrate(vpage, TierId::CAPACITY) {
                Ok(h) => {
                    // Committed bandwidth counts against the budget whether
                    // the copy completed in place or is still in flight.
                    moved += meta_size_bytes(meta);
                    if h.is_done() {
                        self.stats.demoted_4k += meta.pages_4k();
                    } else if let Some(id) = h.transfer_id() {
                        self.in_flight.push((vpage, id, TierId::CAPACITY));
                    }
                }
                Err(SimError::OutOfMemory { .. }) | Err(SimError::QueueFull) => break,
                Err(_) => continue,
            }
        }
        moved
    }

    /// Aborts in-flight promotions whose page is no longer hot: the copy
    /// would land a cooled page in the fast tier while burning link
    /// bandwidth that hotter transfers are queued for. Demotions are never
    /// cancelled — reclaiming fast-tier space stays worthwhile.
    fn cancel_cooled_inflight(&mut self, ops: &mut PolicyOps<'_>) {
        if !self.cfg.cancel_inflight || self.in_flight.is_empty() {
            return;
        }
        let mut keep = Vec::with_capacity(self.in_flight.len());
        for (vpage, id, dst) in std::mem::take(&mut self.in_flight) {
            let still_hot = self
                .pages
                .get(vpage)
                .is_some_and(|m| self.thr.is_hot(m.bin as usize));
            if dst == TierId::FAST && !still_hot {
                if ops.abort_transfer(id).is_some() {
                    self.stats.inflight_cancels += 1;
                }
                if let Some(meta) = self.pages.get_mut(vpage) {
                    meta.in_promo = false;
                }
            } else {
                keep.push((vpage, id, dst));
            }
        }
        self.in_flight = keep;
    }
}

/// Cools a huge page's subpages: halves every count and moves each
/// subpage from the bin the base histogram's one-bin shift assumed to the
/// bin its halved hotness lands in. The moves are summed per bin without
/// branching and applied once; that equals applying them one by one
/// whenever no single move would underflow, which holds while the
/// histogram and the metadata agree.
fn cool_subpages(sub: &mut SubMeta, hist: &mut AccessHistogram) {
    let mut delta = [0i64; NUM_BINS];
    for (count, bin) in sub.counts.iter_mut().zip(sub.bins.iter_mut()) {
        *count /= 2;
        let actual = bin_of(subpage_hotness(*count));
        delta[(*bin as usize).saturating_sub(1)] -= 1;
        delta[actual] += 1;
        *bin = actual as u8;
    }
    hist.apply_deltas(&delta);
}

fn meta_size_bytes(meta: &PageMeta) -> u64 {
    meta.size.bytes()
}

impl TieringPolicy for MemtisPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "MEMTIS",
            mechanism: "HW-based sampling",
            subpage_tracking: true,
            promotion_metric: "EMA of access frequency",
            demotion_metric: "EMA of access frequency",
            thresholding: "Memory access distribution",
            critical_path_migration: "None",
            page_size_handling: "Split based on access skew",
        }
    }

    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        vpage: VirtPage,
        size: PageSize,
        _tier: TierId,
    ) {
        let count = self.initial_count(size);
        let meta = match size {
            PageSize::Huge => PageMeta::new_huge(count),
            PageSize::Base => PageMeta::new_base(count),
        };
        self.add_to_hists(&meta);
        if let Some(old) = self.pages.insert(vpage, meta) {
            // Re-mapped over stale tracking (e.g. region reuse): drop it.
            self.remove_from_hists(&old);
        }
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        if let Some(meta) = self.pages.remove(vpage) {
            self.remove_from_hists(&meta);
        }
    }

    /// Only filters through the PEBS sampler, updates policy bookkeeping,
    /// and *reads* the machine (RSS for the estimation trigger, tier
    /// occupancy during cooling); all mutation happens in `tick`, as the
    /// deferral contract asks.
    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        if self.sampler.observe(access, outcome).is_some() {
            self.process_sample(ops, access, outcome);
        }
    }

    /// The sampler programmed into the batch kernel: LLC-miss loads and
    /// retired stores count down to their next sample and re-arm with
    /// their periods, LLC-hit loads are never counted (PEBS does not see
    /// them), and the cap is the number of samples until the next
    /// period-control point, so a burst ends where
    /// [`PeriodController::update`] may reprogram the periods.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter {
            next: [
                RecordFilter::OFF,
                self.sampler.load_events_until_sample(),
                self.sampler.store_events_until_sample(),
            ],
            period: [
                RecordFilter::OFF,
                self.sampler.load_period(),
                self.sampler.store_period(),
            ],
            cap: self
                .cfg
                .control_interval
                .saturating_sub(self.since_control)
                .max(1) as usize,
        }
    }

    /// O(samples) delivery: every record is a sample the kernel counted
    /// down to, so each one skips the sampler past its class's non-firing
    /// events in O(1) and is observed; the batch's tally
    /// ([`memtis_sim::prelude::Machine::batch_tally`]) then accounts for
    /// the events after each class's last sample. The other class is
    /// synced before the last record, which may be the one that reaches
    /// a control point and reprograms the periods (the cap makes it the
    /// burst's last counted event).
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        let [_, mut loads, mut stores] = ops.machine().batch_tally();
        let last = batch.len().wrapping_sub(1);
        for (n, rec) in batch.iter().enumerate() {
            let (skip_loads, skip_stores) = match rec.access.kind {
                AccessKind::Load => (
                    self.sampler.load_events_until_sample() - 1,
                    if n == last { stores } else { 0 },
                ),
                AccessKind::Store => (
                    if n == last { loads } else { 0 },
                    self.sampler.store_events_until_sample() - 1,
                ),
            };
            self.sampler.skip(skip_loads, skip_stores);
            let store = rec.access.is_store() as u64;
            loads -= skip_loads + (1 - store);
            stores -= skip_stores + store;
            let fired = self.sampler.observe(&rec.access, &rec.outcome);
            debug_assert!(fired.is_some(), "a record the program fired must sample");
            debug_assert!(
                n == last || self.since_control + 1 < self.cfg.control_interval,
                "a control point must end its burst"
            );
            ops.set_now(rec.now_ns);
            self.process_sample(ops, &rec.access, &rec.outcome);
        }
        self.sampler.skip(loads, stores);
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.cancel_cooled_inflight(ops);
        let mut budget = self.cfg.migrate_batch_bytes;

        // Fast-tier kmigrated: restore the free-space reserve (§4.2.3).
        let reserve = (ops.capacity_bytes(TierId::FAST) as f64 * self.cfg.free_reserve_frac) as u64;
        let need_space = ops.free_bytes(TierId::FAST) < reserve
            || self
                .promo
                .front()
                .is_some_and(|_| ops.free_bytes(TierId::FAST) < HUGE_PAGE_SIZE);
        self.ticks_since_refill = self.ticks_since_refill.saturating_add(1);
        if need_space
            && self.demote_cold.is_empty()
            && self.demote_warm.is_empty()
            && self.ticks_since_refill >= 8
        {
            // Rate-limited: the page-list walk is O(pages) and kmigrated
            // would not rescan on every wakeup.
            self.ticks_since_refill = 0;
            self.refill_demote_lists(ops);
        }
        if ops.free_bytes(TierId::FAST) < reserve {
            let moved = self.demote_for_space(ops, reserve, budget);
            budget = budget.saturating_sub(moved);
        }

        // Page-size daemon: splits, then conservative collapses.
        for _ in 0..self.cfg.max_splits_per_tick {
            let Some(vpage) = self.split_queue.pop_front() else {
                break;
            };
            self.do_split(ops, vpage);
        }
        for _ in 0..self.cfg.max_collapses_per_tick {
            let Some(group) = self.collapse_queue.pop_front() else {
                break;
            };
            self.do_collapse(ops, group);
        }

        // Capacity-tier kmigrated: promote hot pages while space remains.
        while budget > 0 {
            let Some(vpage) = self.promo.pop_front() else {
                break;
            };
            let Some(meta) = self.pages.get_mut(vpage) else {
                ops.cancel_migration(vpage, TierId::FAST);
                continue;
            };
            meta.in_promo = false;
            let bin = meta.bin as usize;
            let size = meta.size;
            if !self.thr.is_hot(bin) {
                ops.cancel_migration(vpage, TierId::FAST);
                continue;
            }
            match ops.locate(vpage) {
                Some((t, s)) if t != TierId::FAST && s == size => {}
                _ => {
                    ops.cancel_migration(vpage, TierId::FAST);
                    continue;
                }
            }
            // Make room if needed (demote cold, then warm).
            if ops.free_bytes(TierId::FAST) < size.bytes() {
                let moved = self.demote_for_space(ops, size.bytes().max(reserve), budget);
                budget = budget.saturating_sub(moved);
                if ops.free_bytes(TierId::FAST) < size.bytes() {
                    // Could not secure space: re-queue and stop promoting.
                    let meta = self.pages.get_mut(vpage).expect("present");
                    meta.in_promo = true;
                    self.promo.push_front(vpage);
                    break;
                }
            }
            // Hotter pages win the migration link first: the histogram bin
            // is the arbitration priority.
            let priority = bin.min(u8::MAX as usize) as u8;
            match ops.enqueue_migration(vpage, TierId::FAST, priority) {
                Ok(h) => {
                    if h.is_done() {
                        let pages = match size {
                            PageSize::Huge => NR_SUBPAGES,
                            PageSize::Base => 1,
                        };
                        self.stats.promoted_4k += pages;
                    } else if let Some(id) = h.transfer_id() {
                        // Keep the page flagged until the transfer ends so
                        // samples don't re-enqueue it meanwhile.
                        let meta = self.pages.get_mut(vpage).expect("present");
                        meta.in_promo = true;
                        self.in_flight.push((vpage, id, TierId::FAST));
                    }
                    budget = budget.saturating_sub(size.bytes());
                }
                Err(SimError::OutOfMemory { .. }) | Err(SimError::QueueFull) => {
                    let meta = self.pages.get_mut(vpage).expect("present");
                    meta.in_promo = true;
                    self.promo.push_front(vpage);
                    break;
                }
                Err(_) => continue,
            }
        }
    }

    fn on_transfer_end(&mut self, ops: &mut PolicyOps<'_>, end: &TransferEnd) {
        let Some(idx) = self.in_flight.iter().position(|&(_, id, _)| id == end.id) else {
            return;
        };
        let (vpage, _, dst) = self.in_flight.swap_remove(idx);
        if dst == TierId::FAST {
            if let Some(meta) = self.pages.get_mut(vpage) {
                meta.in_promo = false;
            }
        }
        if end.aborted.is_none() {
            let pages = match end.size {
                PageSize::Huge => NR_SUBPAGES,
                PageSize::Base => 1,
            };
            if end.to == TierId::FAST {
                self.stats.promoted_4k += pages;
            } else {
                self.stats.demoted_4k += pages;
            }
        } else if dst == TierId::FAST {
            // Aborted promotion (dirty re-copy exhaustion, forced fault, …):
            // if the page is still hot and still on the capacity tier, retry
            // on a later tick rather than losing it until the next sample.
            let still_hot = self
                .pages
                .get(vpage)
                .is_some_and(|m| self.thr.is_hot(m.bin as usize));
            let still_remote = ops
                .locate(vpage)
                .is_some_and(|(tier, _)| tier != TierId::FAST);
            if still_hot && still_remote {
                let meta = self.pages.get_mut(vpage).expect("present");
                if !meta.in_promo {
                    meta.in_promo = true;
                    self.promo.push_back(vpage);
                    self.stats.abort_retries += 1;
                }
            }
        }
    }

    fn timeline(&self, out: &mut Vec<(&'static str, f64)>) {
        let hot = self.page_hist.bytes_at_or_above(self.thr.hot);
        let warm = self
            .page_hist
            .bytes_at_or_above(self.thr.warm)
            .saturating_sub(hot);
        let total = self.page_hist.total_pages() * 4096;
        let cold = total.saturating_sub(hot + warm);
        out.push(("hot_bytes", hot as f64));
        out.push(("warm_bytes", warm as f64));
        out.push(("cold_bytes", cold as f64));
        out.push(("rhr", self.stats.last_rhr));
        out.push(("ehr", self.stats.last_ehr));
        out.push(("splits", self.stats.splits as f64));
        out.push(("load_period", self.sampler.load_period() as f64));
        let active = self.page_hist.bins().iter().filter(|&&b| b > 0).count();
        out.push(("hist_active_bins", active as f64));
        out.push(("sampling_cpu", self.stats.cpu_usage_ema));
    }

    fn histogram_bins(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.page_hist.bins());
    }

    fn hist_underflows(&self) -> u64 {
        self.page_hist.underflows() + self.base_hist.underflows()
    }

    /// Checkpoints the complete classification state: the region table,
    /// both histograms and threshold sets, the PEBS sampler and period
    /// controller mid-period, the event-count clocks and estimation window,
    /// all work queues, in-flight transfers, skew buckets, and the
    /// statistics series. A fingerprint of the policy configuration comes
    /// first, so a restore into a differently-configured policy is rejected
    /// instead of silently diverging.
    fn save_state(&self, w: &mut SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_fields(r)
    }
}

memtis_sim::obs::snap_struct!(MemtisStats {
    samples,
    adaptations,
    coolings,
    estimates,
    splits,
    collapses,
    promoted_4k,
    demoted_4k,
    last_rhr,
    last_ehr,
    hr_series,
    period_series,
    cpu_usage_ema,
    split_candidates,
    split_requested,
    inflight_cancels,
    abort_retries,
});

memtis_sim::obs::snap_struct!(in MemtisPolicy {
    @fp cfg,
    pages,
    page_hist,
    base_hist,
    thr,
    base_thr,
    sampler,
    controller,
    since_adapt,
    since_cool,
    since_control,
    last_control_ns,
    window_cpu_ns,
    win_samples,
    win_fast,
    win_ehr_hits,
    win_hp_samples,
    win_hp_distinct,
    epoch,
    promo,
    demote_cold,
    demote_warm,
    split_queue,
    collapse_queue,
    in_flight,
    skew_buckets,
    benefit_streak,
    ticks_since_refill,
    stats,
} check |p: &mut MemtisPolicy| {
    if p.skew_buckets.len() != SKEW_BUCKETS {
        return Err(SnapError::Corrupt("skew bucket count"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    fn test_cfg() -> MemtisConfig {
        MemtisConfig {
            load_period: 1,
            store_period: 1,
            adapt_interval: 200,
            cooling_interval: 4_000,
            min_estimate_samples: 500,
            control_interval: 1_000,
            sample_cost_ns: 1.0,
            migrate_batch_bytes: 64 << 20,
            ..MemtisConfig::sim_scaled()
        }
    }

    fn ops_env() -> (Machine, CostAccounting) {
        let m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            32 * HUGE_PAGE_SIZE,
        ));
        (m, CostAccounting::default())
    }

    #[test]
    fn alloc_and_free_keep_histograms_consistent() {
        let (mut m, mut acct) = ops_env();
        let mut p = MemtisPolicy::new(test_cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Base, TierId::FAST)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::FAST);
            p.on_alloc(&mut ops, VirtPage(512), PageSize::Base, TierId::FAST);
        }
        assert_eq!(p.histogram().total_pages(), 513);
        assert_eq!(p.base_histogram().total_pages(), 513);
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_free(&mut ops, VirtPage(0), PageSize::Huge);
        }
        assert_eq!(p.histogram().total_pages(), 1);
        assert_eq!(p.base_histogram().total_pages(), 1);
    }

    #[test]
    fn samples_move_pages_up_the_histogram() {
        let (mut m, mut acct) = ops_env();
        let mut p = MemtisPolicy::new(test_cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        let bin0 = p.page_meta(VirtPage(0)).unwrap().bin;
        for i in 0..100u64 {
            let a = Access::load((i % 512) * 4096);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64);
            p.on_access(&mut ops, &a, &out);
        }
        let meta = p.page_meta(VirtPage(0)).unwrap();
        assert!(meta.count >= 50, "count {}", meta.count);
        assert!(meta.bin >= bin0);
        // Subpage counters track which 4 KiB pages were touched.
        let sub = meta.sub.as_ref().unwrap();
        assert!(sub.counts.iter().filter(|&&c| c > 0).count() > 50);
        // Hot capacity-tier page lands on the promotion list.
        assert!(p.promo.iter().any(|&v| v == VirtPage(0)) || meta.in_promo);
    }

    #[test]
    fn tick_promotes_hot_capacity_pages() {
        let (mut m, mut acct) = ops_env();
        let mut p = MemtisPolicy::new(test_cfg());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        for i in 0..400u64 {
            let a = Access::load((i % 512) * 4096);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64 * 100.0);
            p.on_access(&mut ops, &a, &out);
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e6);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Huge)));
        assert!(p.stats.promoted_4k >= 512);
    }

    #[test]
    fn cooling_halves_counts_and_corrects_bins() {
        let (mut m, mut acct) = ops_env();
        let mut cfg = test_cfg();
        cfg.cooling_interval = 1_000_000; // Trigger manually.
        let mut p = MemtisPolicy::new(cfg);
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Base, TierId::FAST);
        }
        for i in 0..64u64 {
            let a = Access::load(0);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64);
            p.on_access(&mut ops, &a, &out);
        }
        let before = p.page_meta(VirtPage(0)).unwrap().count;
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e5);
            p.run_cooling(&mut ops);
        }
        let meta = p.page_meta(VirtPage(0)).unwrap();
        assert_eq!(meta.count, before / 2);
        assert_eq!(meta.bin as usize, bin_of(meta.hotness()));
        assert_eq!(p.histogram().total_pages(), 1);
        assert_eq!(p.stats.coolings, 1);
    }

    #[test]
    fn skewed_huge_page_gets_split_and_bloat_reclaimed() {
        let (mut m, mut acct) = ops_env();
        let mut cfg = test_cfg();
        cfg.min_estimate_samples = 1_000_000; // Drive estimation manually.
        let mut p = MemtisPolicy::new(cfg);
        // A skewed huge page in the capacity tier: only 8 subpages written
        // and hammered; plus a dense hot huge page filling the fast tier.
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        for i in 0..800u64 {
            // Stores always qualify for PEBS sampling (retired stores),
            // unlike loads which must miss the LLC. Concentrate most
            // accesses on two subpages with a lightly-touched tail — a
            // contrasting skew profile like a hot record in a hash page.
            let sub = if i % 10 < 9 { 0 } else { 1 + (i % 7) };
            let a = Access::store(sub * 4096 + (i * 64) % 4096);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64 * 50.0);
            p.on_access(&mut ops, &a, &out);
        }
        // Build the skew buckets (cooling) and force a split of the page.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e5);
            p.run_cooling(&mut ops);
        }
        let skew_total: usize = p.skew_buckets.iter().map(Vec::len).sum();
        assert!(skew_total >= 1, "skewed page should be bucketed");
        p.queue_top_skewed(1);
        let rss_before = m.rss_bytes();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 2e5);
            p.tick(&mut ops);
        }
        assert_eq!(p.stats.splits, 1);
        // 504 never-written subpages reclaimed.
        assert_eq!(m.rss_bytes(), rss_before - 504 * 4096);
        // Hot survivors are tracked as base pages.
        let meta = p.page_meta(VirtPage(0)).unwrap();
        assert_eq!(meta.size, PageSize::Base);
        assert_eq!(p.histogram().total_pages(), 8);
        // And queued for promotion to the fast tier.
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 3e5);
            p.tick(&mut ops);
        }
        assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Base)));
    }

    #[test]
    fn demotion_restores_free_reserve() {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            2 * HUGE_PAGE_SIZE,
            32 * HUGE_PAGE_SIZE,
        ));
        let mut acct = CostAccounting::default();
        let mut p = MemtisPolicy::new(test_cfg());
        // Fill the fast tier completely with two huge pages.
        for i in 0..2u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::FAST)
                .unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(i * 512), PageSize::Huge, TierId::FAST);
        }
        assert_eq!(m.free_bytes(TierId::FAST), 0);
        // Cool twice so the untouched pages decay to cold bins and the
        // demotion lists are rebuilt.
        for c in 0..6 {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, c as f64 * 1e5);
            p.run_cooling(&mut ops);
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e6);
            p.tick(&mut ops);
        }
        assert!(
            m.free_bytes(TierId::FAST) >= HUGE_PAGE_SIZE,
            "demotion should free at least one huge page"
        );
        assert!(p.stats.demoted_4k >= 512);
    }

    /// Builds a bandwidth-limited machine and a policy with one hot huge
    /// page in the capacity tier whose promotion is in flight after a tick.
    fn inflight_promo_env(cfg: MemtisConfig) -> (Machine, CostAccounting, MemtisPolicy) {
        let mut mc = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 32 * HUGE_PAGE_SIZE);
        mc.migration.bandwidth_limit = Some(1.0); // 2 MiB takes ~2 ms.
        let mut m = Machine::new(mc);
        let mut acct = CostAccounting::default();
        let mut p = MemtisPolicy::new(cfg);
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            p.on_alloc(&mut ops, VirtPage(0), PageSize::Huge, TierId::CAPACITY);
        }
        for i in 0..400u64 {
            let a = Access::load((i % 512) * 4096);
            let out = m.access(a).unwrap();
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, i as f64 * 100.0);
            p.on_access(&mut ops, &a, &out);
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e5);
            p.tick(&mut ops);
        }
        (m, acct, p)
    }

    #[test]
    fn bandwidth_limited_promotion_stays_in_flight_until_reported() {
        let (mut m, mut acct, mut p) = inflight_promo_env(test_cfg());
        // The promotion was admitted, not completed: the page still reads
        // from the capacity tier and the policy tracks the transfer.
        assert_eq!(p.in_flight.len(), 1);
        assert_eq!(p.stats.promoted_4k, 0);
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
        assert!(p.page_meta(VirtPage(0)).unwrap().in_promo);
        // Drain the copy and deliver the terminal records like the driver.
        let events = m.pump_transfers(1e10);
        let ends: Vec<TransferEnd> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Ended(end) => Some(*end),
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 1);
        for end in &ends {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 1e10);
            p.on_transfer_end(&mut ops, end);
        }
        assert!(p.in_flight.is_empty());
        assert_eq!(p.stats.promoted_4k, 512);
        assert!(!p.page_meta(VirtPage(0)).unwrap().in_promo);
        assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::FAST);
    }

    #[test]
    fn cooled_inflight_promotion_is_cancelled_unless_ablated() {
        for (cancel, expect_cancels) in [(true, 1u64), (false, 0u64)] {
            let cfg = if cancel {
                test_cfg()
            } else {
                test_cfg().without_inflight_cancel()
            };
            let (mut m, mut acct, mut p) = inflight_promo_env(cfg);
            assert_eq!(p.in_flight.len(), 1);
            // Cool the page below the hot threshold, then tick: the cancel
            // sweep runs before any new migration work.
            let bin = p.page_meta(VirtPage(0)).unwrap().bin as usize;
            p.thr.hot = bin + 1;
            assert!(!p.thresholds().is_hot(bin), "page must have cooled");
            {
                let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 3e5);
                p.tick(&mut ops);
            }
            assert_eq!(p.stats.inflight_cancels, expect_cancels);
            if cancel {
                assert!(p.in_flight.is_empty());
                assert_eq!(m.stats.migration.aborted, 1);
                assert!(!p.page_meta(VirtPage(0)).unwrap().in_promo);
                // The page never reaches the fast tier.
                let _ = m.pump_transfers(1e10);
                assert_eq!(m.locate(VirtPage(0)).unwrap().0, TierId::CAPACITY);
            } else {
                // Ablation: the stale transfer keeps burning the link and
                // eventually lands the cooled page in the fast tier.
                assert_eq!(p.in_flight.len(), 1);
                assert_eq!(m.stats.migration.aborted, 0);
            }
        }
    }

    /// Serializes `p` through the policy snapshot hook.
    fn policy_snap(p: &MemtisPolicy) -> Vec<u8> {
        let mut w = memtis_sim::obs::SnapWriter::new();
        p.save_state(&mut w);
        w.finish().unwrap()
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable_over_busy_state() {
        // Build a policy with every kind of live state: tracked huge and
        // base pages, mid-period sampler counters, an in-flight transfer,
        // cooling-built demotion lists and skew buckets, and stats series.
        let (mut m, mut acct, mut p) = inflight_promo_env(test_cfg());
        m.alloc_and_map(VirtPage(512), PageSize::Base, TierId::FAST)
            .unwrap();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 2e5);
            p.on_alloc(&mut ops, VirtPage(512), PageSize::Base, TierId::FAST);
            p.run_cooling(&mut ops);
        }
        assert_eq!(p.in_flight.len(), 1);

        let bytes = policy_snap(&p);
        let mut back = MemtisPolicy::new(test_cfg());
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        back.load_state(&mut r).unwrap();
        assert!(r.expect_end().is_ok());

        // Re-serializing the restored policy reproduces the exact bytes:
        // every field made the round trip.
        assert_eq!(policy_snap(&back), bytes);
        assert_eq!(back.in_flight, p.in_flight);
        assert_eq!(back.pages.len(), p.pages.len());
        assert_eq!(
            back.page_meta(VirtPage(0)).unwrap().count,
            p.page_meta(VirtPage(0)).unwrap().count
        );
        assert_eq!(back.sampler.snapshot(), p.sampler.snapshot());
        assert_eq!(back.thresholds(), p.thresholds());
        assert_eq!(format!("{:?}", back.stats), format!("{:?}", p.stats));
    }

    #[test]
    fn snapshot_load_rejects_config_mismatch() {
        let p = MemtisPolicy::new(test_cfg());
        let bytes = policy_snap(&p);
        let mut other_cfg = test_cfg();
        other_cfg.cooling_interval += 1;
        let mut back = MemtisPolicy::new(other_cfg);
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        assert!(matches!(
            back.load_state(&mut r),
            Err(memtis_sim::obs::SnapError::ConfigMismatch { .. })
        ));
        // Same config loads fine.
        let mut same = MemtisPolicy::new(test_cfg());
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        same.load_state(&mut r).unwrap();
    }

    #[test]
    fn descriptor_matches_table1_row() {
        let p = MemtisPolicy::new(MemtisConfig::default());
        let d = p.descriptor();
        assert_eq!(d.name, "MEMTIS");
        assert!(d.subpage_tracking);
        assert_eq!(d.critical_path_migration, "None");
    }
}
