//! Processor event-based sampling (Intel PEBS) emulation.
//!
//! MEMTIS samples *retired LLC load misses* and *retired store instructions*
//! (§4.1.1). A hardware counter decrements per qualifying event; at zero a
//! sample containing the exact virtual address is written to the PEBS buffer
//! and the counter is re-armed with the configured period. The emulation
//! reproduces exactly that: deterministic, period-based, address-exact — and
//! crucially *subpage-exact*, the property none of the page-table-based
//! trackers have (Insight #1).
//!
//! Processing cost is charged per sample, so the CPU overhead of the
//! consuming daemon is proportional to the sampling rate, which is what the
//! dynamic period controller (also here) regulates against its CPU budget.

use memtis_sim::prelude::{Access, AccessKind, AccessOutcome, VirtAddr};

/// Default period for retired LLC load misses (paper: one sample per 200).
pub const DEFAULT_LOAD_PERIOD: u64 = 200;
/// Default period for retired stores (paper: one sample per 100,000).
pub const DEFAULT_STORE_PERIOD: u64 = 100_000;
/// CPU cost of processing one PEBS sample in the consuming daemon (ns):
/// buffer drain, page lookup, statistics update.
pub const SAMPLE_PROCESS_NS: f64 = 150.0;

/// One PEBS record: the exact virtual address and the event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PebsSample {
    /// Exact virtual address of the sampled access.
    pub vaddr: VirtAddr,
    /// Whether the sampled event was a store (vs an LLC load miss).
    pub kind: AccessKind,
}

/// The sampling hardware: two independently-periodic event counters.
#[derive(Debug)]
pub struct PebsSampler {
    load_period: u64,
    store_period: u64,
    load_count: u64,
    store_count: u64,
    /// Total samples emitted.
    pub samples: u64,
    /// Total qualifying events observed (sampled or not).
    pub events: u64,
}

impl Default for PebsSampler {
    fn default() -> Self {
        Self::new(DEFAULT_LOAD_PERIOD, DEFAULT_STORE_PERIOD)
    }
}

/// Point-in-time view of a sampler's counters and periods, suitable for
/// telemetry export (the `SampleBatch` trace event and the per-window
/// `load_period` gauge are derived from these numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PebsSnapshot {
    /// Current load-miss sampling period.
    pub load_period: u64,
    /// Current store sampling period.
    pub store_period: u64,
    /// Total samples emitted since creation.
    pub samples: u64,
    /// Total qualifying events observed since creation.
    pub events: u64,
}

impl PebsSampler {
    /// Creates a sampler with the given periods (events per sample).
    pub fn new(load_period: u64, store_period: u64) -> Self {
        PebsSampler {
            load_period: load_period.max(1),
            store_period: store_period.max(1),
            load_count: 0,
            store_count: 0,
            samples: 0,
            events: 0,
        }
    }

    /// Current load period.
    pub fn load_period(&self) -> u64 {
        self.load_period
    }

    /// Current store period.
    pub fn store_period(&self) -> u64 {
        self.store_period
    }

    /// Captures the current counters and periods for telemetry.
    pub fn snapshot(&self) -> PebsSnapshot {
        PebsSnapshot {
            load_period: self.load_period,
            store_period: self.store_period,
            samples: self.samples,
            events: self.events,
        }
    }

    /// Reconfigures the periods (`__perf_event_period`). Takes effect at the
    /// next counter re-arm, like the real interface.
    pub fn set_periods(&mut self, load_period: u64, store_period: u64) {
        self.load_period = load_period.max(1);
        self.store_period = store_period.max(1);
    }

    /// Qualifying load(-miss) events until the load counter fires, computed
    /// arithmetically: the event at exactly this offset from now is the one
    /// [`observe`] would sample. Always ≥ 1; when a period reconfiguration
    /// shrank the period below the in-progress count, the *next* qualifying
    /// event fires (mirroring `observe`'s `count + 1 >= period` test).
    ///
    /// Together with [`skip`], this turns the per-event counter decrement
    /// into geometric skip-ahead: a consumer scans a run of events, counts
    /// qualifying ones until one of the two distances is reached, bulk-skips
    /// the non-firing prefix in O(1), and feeds only the firing event
    /// through `observe` (which emits the sample and re-arms the counter
    /// exactly as the per-event path would).
    ///
    /// [`observe`]: PebsSampler::observe
    /// [`skip`]: PebsSampler::skip
    #[inline]
    pub fn load_events_until_sample(&self) -> u64 {
        self.load_period.saturating_sub(self.load_count).max(1)
    }

    /// Qualifying store events until the store counter fires; see
    /// [`load_events_until_sample`].
    ///
    /// [`load_events_until_sample`]: PebsSampler::load_events_until_sample
    #[inline]
    pub fn store_events_until_sample(&self) -> u64 {
        self.store_period.saturating_sub(self.store_count).max(1)
    }

    /// Advances the counters past `loads` qualifying LLC-miss loads and
    /// `stores` qualifying stores, none of which fire. Equivalent to that
    /// many [`observe`] calls returning `None`, in O(1).
    ///
    /// Callers must keep both advances strictly below the corresponding
    /// `*_events_until_sample()` distance — skipping across a firing event
    /// would silently drop its sample (debug-asserted).
    ///
    /// [`observe`]: PebsSampler::observe
    #[inline]
    pub fn skip(&mut self, loads: u64, stores: u64) {
        debug_assert!(loads < self.load_events_until_sample() || loads == 0);
        debug_assert!(stores < self.store_events_until_sample() || stores == 0);
        self.events += loads + stores;
        self.load_count += loads;
        self.store_count += stores;
    }

    /// Observes one executed access; returns a sample when a counter fires.
    ///
    /// Qualifying events are LLC-missing loads and all retired stores,
    /// mirroring the two PEBS events MEMTIS programs.
    #[inline]
    pub fn observe(&mut self, access: &Access, outcome: &AccessOutcome) -> Option<PebsSample> {
        match access.kind {
            AccessKind::Load => {
                if !outcome.llc_miss {
                    return None;
                }
                self.events += 1;
                self.load_count += 1;
                if self.load_count >= self.load_period {
                    self.load_count = 0;
                    self.samples += 1;
                    return Some(PebsSample {
                        vaddr: access.vaddr,
                        kind: AccessKind::Load,
                    });
                }
            }
            AccessKind::Store => {
                self.events += 1;
                self.store_count += 1;
                if self.store_count >= self.store_period {
                    self.store_count = 0;
                    self.samples += 1;
                    return Some(PebsSample {
                        vaddr: access.vaddr,
                        kind: AccessKind::Store,
                    });
                }
            }
        }
        None
    }
}

/// Dynamic sampling-period controller (§4.1.1).
///
/// `ksampled` periodically computes the exponential moving average of its CPU
/// usage and nudges the sampling periods to keep usage at or below the limit
/// (3% of one core by default), with a 0.5% hysteresis band to avoid
/// continual updates.
#[derive(Debug, Clone)]
pub struct PeriodController {
    /// Upper CPU-usage limit (fraction of one core), default 0.03.
    pub cpu_limit: f64,
    /// Hysteresis band half-width, default 0.005.
    pub hysteresis: f64,
    /// EMA decay for the usage estimate.
    pub ema_alpha: f64,
    /// Multiplicative period adjustment step.
    pub step: f64,
    /// Period bounds.
    pub min_period: u64,
    /// Upper period bound (paper observed up to 1400 on 654.roms).
    pub max_period: u64,
    usage_ema: f64,
    initialized: bool,
}

impl Default for PeriodController {
    fn default() -> Self {
        PeriodController {
            cpu_limit: 0.03,
            hysteresis: 0.005,
            ema_alpha: 0.3,
            step: 1.2,
            min_period: 1,
            max_period: 1_000_000,
            usage_ema: 0.0,
            initialized: false,
        }
    }
}

/// Direction of a period adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodAdjust {
    /// Usage above limit: periods increased (fewer samples).
    Increased,
    /// Usage comfortably below limit: periods decreased (more samples).
    Decreased,
    /// Within the hysteresis band: unchanged.
    Unchanged,
}

impl PeriodController {
    /// Creates a controller with the given CPU limit and period bounds.
    pub fn with_limits(cpu_limit: f64, min_period: u64, max_period: u64) -> Self {
        PeriodController {
            cpu_limit,
            min_period,
            max_period,
            ..Default::default()
        }
    }

    /// Current smoothed CPU-usage estimate.
    pub fn usage_ema(&self) -> f64 {
        self.usage_ema
    }

    /// Feeds a new instantaneous usage measurement and adjusts the sampler's
    /// periods if the smoothed usage leaves the hysteresis band.
    pub fn update(&mut self, measured_usage: f64, sampler: &mut PebsSampler) -> PeriodAdjust {
        if self.initialized {
            self.usage_ema =
                self.ema_alpha * measured_usage + (1.0 - self.ema_alpha) * self.usage_ema;
        } else {
            self.usage_ema = measured_usage;
            self.initialized = true;
        }
        let scale = |p: u64, f: f64| -> u64 {
            (((p as f64) * f).round() as u64).clamp(self.min_period, self.max_period)
        };
        if self.usage_ema > self.cpu_limit + self.hysteresis {
            let lp = scale(sampler.load_period(), self.step).max(sampler.load_period() + 1);
            let sp = scale(sampler.store_period(), self.step).max(sampler.store_period() + 1);
            sampler.set_periods(lp.min(self.max_period), sp.min(self.max_period));
            PeriodAdjust::Increased
        } else if self.usage_ema < self.cpu_limit - self.hysteresis {
            let lp = scale(sampler.load_period(), 1.0 / self.step);
            let sp = scale(sampler.store_period(), 1.0 / self.step);
            sampler.set_periods(lp, sp);
            PeriodAdjust::Decreased
        } else {
            PeriodAdjust::Unchanged
        }
    }
}

memtis_sim::obs::snap_struct!(PebsSampler {
    load_period,
    store_period,
    load_count,
    store_count,
    samples,
    events,
} check |s: &PebsSampler| {
    if s.load_period == 0 || s.store_period == 0 {
        return Err(memtis_sim::obs::SnapError::Corrupt("sampler period zero"));
    }
    Ok(())
});

memtis_sim::obs::snap_struct!(PeriodController {
    cpu_limit,
    hysteresis,
    ema_alpha,
    step,
    min_period,
    max_period,
    usage_ema,
    initialized,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::*;

    fn outcome(llc_miss: bool) -> AccessOutcome {
        AccessOutcome {
            latency_ns: 100.0,
            vpage: VirtPage(0),
            page_size: PageSize::Base,
            tier: TierId::FAST,
            llc_miss,
            tlb_miss: false,
            hint_fault: false,
            demand_fault: false,
        }
    }

    #[test]
    fn samples_every_nth_llc_miss_load() {
        let mut s = PebsSampler::new(4, 1000);
        let mut got = 0;
        for i in 0..40u64 {
            let a = Access::load(i * 64);
            if let Some(smp) = s.observe(&a, &outcome(true)) {
                got += 1;
                assert_eq!(smp.kind, AccessKind::Load);
                // Exact address of the 4th/8th/... miss.
                assert_eq!(smp.vaddr.0 % 64, 0);
            }
        }
        assert_eq!(got, 10);
        assert_eq!(s.samples, 10);
        assert_eq!(s.events, 40);
    }

    #[test]
    fn snapshot_reflects_counters_and_periods() {
        let mut s = PebsSampler::new(2, 1000);
        for i in 0..4u64 {
            let _ = s.observe(&Access::load(i * 64), &outcome(true));
        }
        let snap = s.snapshot();
        assert_eq!(snap.load_period, 2);
        assert_eq!(snap.store_period, 1000);
        assert_eq!(snap.samples, 2);
        assert_eq!(snap.events, 4);
    }

    #[test]
    fn llc_hit_loads_do_not_qualify() {
        let mut s = PebsSampler::new(1, 1);
        assert!(s.observe(&Access::load(0), &outcome(false)).is_none());
        assert_eq!(s.events, 0);
        // Stores qualify regardless of LLC outcome.
        assert!(s.observe(&Access::store(0), &outcome(false)).is_some());
    }

    #[test]
    fn store_period_is_independent() {
        let mut s = PebsSampler::new(1, 3);
        let mut store_samples = 0;
        for _ in 0..9 {
            if s.observe(&Access::store(0), &outcome(true)).is_some() {
                store_samples += 1;
            }
        }
        assert_eq!(store_samples, 3);
    }

    #[test]
    fn controller_raises_period_over_budget() {
        let mut s = PebsSampler::new(200, 100_000);
        let mut c = PeriodController::default();
        // Sustained 10% usage: period should climb.
        let mut raised = 0;
        for _ in 0..10 {
            if c.update(0.10, &mut s) == PeriodAdjust::Increased {
                raised += 1;
            }
        }
        assert!(raised >= 9);
        assert!(s.load_period() > 200);
        assert!(s.store_period() > 100_000);
    }

    #[test]
    fn controller_lowers_period_under_budget() {
        let mut s = PebsSampler::new(1400, 700_000);
        let mut c = PeriodController::default();
        for _ in 0..10 {
            c.update(0.001, &mut s);
        }
        assert!(s.load_period() < 1400);
    }

    #[test]
    fn controller_hysteresis_holds_steady() {
        let mut s = PebsSampler::new(200, 100_000);
        let mut c = PeriodController::default();
        // 3% exactly: inside the band, no change.
        for _ in 0..10 {
            assert_eq!(c.update(0.03, &mut s), PeriodAdjust::Unchanged);
        }
        assert_eq!(s.load_period(), 200);
    }

    #[test]
    fn skip_ahead_distance_points_at_the_firing_event() {
        let mut s = PebsSampler::new(4, 1000);
        // After one non-firing miss the next sample is 3 qualifying events
        // away; skipping 2 of them and observing the 3rd fires.
        assert!(s.observe(&Access::load(0), &outcome(true)).is_none());
        assert_eq!(s.load_events_until_sample(), 3);
        s.skip(2, 0);
        assert!(s.observe(&Access::load(64), &outcome(true)).is_some());
        assert_eq!(s.load_events_until_sample(), 4);
        assert_eq!(s.events, 4);
        assert_eq!(s.samples, 1);
    }

    #[test]
    fn skip_ahead_handles_period_shrink_below_count() {
        let mut s = PebsSampler::new(100, 1000);
        for i in 0..50u64 {
            let _ = s.observe(&Access::load(i * 64), &outcome(true));
        }
        // Period now below the in-progress count: the next event fires.
        s.set_periods(10, 1000);
        assert_eq!(s.load_events_until_sample(), 1);
        assert!(s.observe(&Access::load(0), &outcome(true)).is_some());
    }

    #[test]
    fn sampler_snapshot_roundtrip_resumes_mid_period() {
        let mut s = PebsSampler::new(4, 1000);
        // Two non-firing misses leave the counter mid-period.
        for i in 0..2u64 {
            assert!(s.observe(&Access::load(i * 64), &outcome(true)).is_none());
        }
        let mut w = memtis_sim::obs::SnapWriter::new();
        w.put(&s);
        let bytes = w.finish().unwrap();
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        let mut back: PebsSampler = r.get().unwrap();
        assert!(r.expect_end().is_ok());
        assert_eq!(back.snapshot(), s.snapshot());
        assert_eq!(back.load_events_until_sample(), 2);
        // The restored counter fires on exactly the same event.
        assert!(back.observe(&Access::load(0), &outcome(true)).is_none());
        assert!(back.observe(&Access::load(64), &outcome(true)).is_some());
    }

    #[test]
    fn controller_snapshot_roundtrip_preserves_ema() {
        let mut s = PebsSampler::new(200, 100_000);
        let mut c = PeriodController::default();
        c.update(0.10, &mut s);
        c.update(0.02, &mut s);
        let mut w = memtis_sim::obs::SnapWriter::new();
        w.put(&c);
        let bytes = w.finish().unwrap();
        let mut r = memtis_sim::obs::SnapReader::new(&bytes);
        let mut back: PeriodController = r.get().unwrap();
        assert!(r.expect_end().is_ok());
        assert_eq!(back.usage_ema(), c.usage_ema());
        // Identical future decisions from the restored state.
        let mut s2 = PebsSampler::new(s.load_period(), s.store_period());
        let mut s1 = PebsSampler::new(s.load_period(), s.store_period());
        assert_eq!(c.update(0.05, &mut s1), back.update(0.05, &mut s2));
        assert_eq!(s1.load_period(), s2.load_period());
    }

    #[test]
    fn controller_respects_bounds() {
        let mut s = PebsSampler::new(2, 2);
        let mut c = PeriodController {
            min_period: 2,
            max_period: 10,
            ..Default::default()
        };
        for _ in 0..50 {
            c.update(0.5, &mut s);
        }
        assert!(s.load_period() <= 10);
        for _ in 0..50 {
            c.update(0.0, &mut s);
        }
        assert!(s.load_period() >= 2);
    }
}

#[cfg(test)]
mod skip_ahead_proptests {
    use super::*;
    use memtis_sim::prelude::*;
    use proptest::prelude::*;

    /// One synthetic event: a store, or a load with the given LLC outcome.
    #[derive(Debug, Clone, Copy)]
    struct Ev {
        store: bool,
        llc_miss: bool,
    }

    fn outcome(llc_miss: bool) -> AccessOutcome {
        AccessOutcome {
            latency_ns: 100.0,
            vpage: VirtPage(0),
            page_size: PageSize::Base,
            tier: TierId::FAST,
            llc_miss,
            tlb_miss: false,
            hint_fault: false,
            demand_fault: false,
        }
    }

    fn access(i: usize, store: bool) -> Access {
        access_at(i as u64 * 64, store)
    }

    fn access_at(vaddr: u64, store: bool) -> Access {
        if store {
            Access::store(vaddr)
        } else {
            Access::load(vaddr)
        }
    }

    /// Mid-stream reconfiguration mirroring the period controller: every
    /// 5th sample, nudge both periods.
    fn maybe_reconfigure(fired: u64, s: &mut PebsSampler) {
        if fired > 0 && fired.is_multiple_of(5) {
            let lp = (s.load_period() * 3 / 4).max(1);
            let sp = (s.store_period() / 2).max(1);
            s.set_periods(lp, sp);
        }
    }

    proptest! {
        /// The skip-ahead consumer (distance scan + bulk `skip` + `observe`
        /// only on firing events) emits the bit-identical sample sequence
        /// and final counter state as the per-event decrement loop, across
        /// period reconfigurations.
        #[test]
        fn skip_ahead_matches_per_event_observe(
            evs in proptest::collection::vec(
                (proptest::bool::ANY, proptest::bool::ANY).prop_map(|(store, llc_miss)| Ev { store, llc_miss }),
                0..600,
            ),
            load_period in 1u64..40,
            store_period in 1u64..400,
        ) {
            // Reference: one observe() per event.
            let mut refr = PebsSampler::new(load_period, store_period);
            let mut ref_fired: Vec<usize> = Vec::new();
            for (i, e) in evs.iter().enumerate() {
                if refr
                    .observe(&access(i, e.store), &outcome(e.llc_miss))
                    .is_some()
                {
                    ref_fired.push(i);
                    maybe_reconfigure(refr.samples, &mut refr);
                }
            }

            // Skip-ahead consumer over the same stream.
            let mut fast = PebsSampler::new(load_period, store_period);
            let mut fast_fired: Vec<usize> = Vec::new();
            let mut i = 0;
            while i < evs.len() {
                let until_load = fast.load_events_until_sample();
                let until_store = fast.store_events_until_sample();
                let mut loads = 0u64;
                let mut stores = 0u64;
                let mut fire: Option<usize> = None;
                for (j, e) in evs[i..].iter().enumerate() {
                    if e.store {
                        stores += 1;
                        if stores == until_store {
                            fire = Some(i + j);
                            break;
                        }
                    } else if e.llc_miss {
                        loads += 1;
                        if loads == until_load {
                            fire = Some(i + j);
                            break;
                        }
                    }
                }
                match fire {
                    Some(k) => {
                        let e = evs[k];
                        let (fl, fs) = if e.store { (0, 1) } else { (1, 0) };
                        fast.skip(loads - fl, stores - fs);
                        let got = fast.observe(&access(k, e.store), &outcome(e.llc_miss));
                        prop_assert!(got.is_some(), "scanned firing event must sample");
                        fast_fired.push(k);
                        maybe_reconfigure(fast.samples, &mut fast);
                        i = k + 1;
                    }
                    None => {
                        fast.skip(loads, stores);
                        break;
                    }
                }
            }

            prop_assert_eq!(ref_fired, fast_fired);
            prop_assert_eq!(refr.snapshot(), fast.snapshot());
        }

        /// The batch kernel's countdown ([`Machine::access_batch`] under a
        /// [`RecordFilter`] programmed from a sampler) keeps exactly the
        /// accesses per-access [`PebsSampler::observe`] samples, stops
        /// after the cap'th, and tallies exactly the qualifying events
        /// `observe` counts up to there — from any in-progress count,
        /// including one a period shrink left above its period.
        #[test]
        fn kernel_countdown_matches_per_access_observe(
            evs in proptest::collection::vec(
                (proptest::bool::ANY, proptest::bool::ANY).prop_map(|(store, llc_miss)| Ev { store, llc_miss }),
                1..400,
            ),
            load_period in 1u64..40,
            store_period in 1u64..60,
            load_start in 0u64..60,
            store_start in 0u64..90,
            cap in 1usize..12,
        ) {
            // Mid-period counts, then the periods the program runs with
            // (possibly below those counts).
            let start = || {
                let mut s = PebsSampler::new(
                    load_period.max(load_start + 1),
                    store_period.max(store_start + 1),
                );
                s.skip(load_start, store_start);
                s.set_periods(load_period, store_period);
                s
            };
            // An `llc_miss` event touches a fresh line (a cold miss); any
            // other repeats the previous access's line (an LLC hit).
            let mut line = 0u64;
            let events: Vec<WorkloadEvent> = evs
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    if e.llc_miss || i == 0 {
                        line += 1;
                    }
                    WorkloadEvent::Access(access_at(line * 64, e.store))
                })
                .collect();
            let machine = || {
                let mut m = Machine::new(MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
                m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST).unwrap();
                m
            };

            // Reference: every access through `observe`, until the cap'th
            // sample; the kept records are identified by their clock.
            let mut oracle = machine();
            let mut refr = start();
            let (mut wall, mut fired_at, mut consumed) = (0.0f64, Vec::new(), events.len());
            let (mut loads, mut stores) = (0u64, 0u64);
            for (i, ev) in events.iter().enumerate() {
                let WorkloadEvent::Access(a) = *ev else { unreachable!() };
                let o = oracle.access(a).unwrap();
                loads += (!a.is_store() && o.llc_miss) as u64;
                stores += a.is_store() as u64;
                if refr.observe(&a, &o).is_some() {
                    fired_at.push(wall.to_bits());
                }
                wall += o.latency_ns;
                if fired_at.len() == cap {
                    consumed = i + 1;
                    break;
                }
            }

            // Kernel: the sampler's program, run in one burst.
            let s = start();
            let filter = RecordFilter {
                next: [RecordFilter::OFF, s.load_events_until_sample(), s.store_events_until_sample()],
                period: [RecordFilter::OFF, load_period, store_period],
                cap,
            };
            let mut m = machine();
            let mut clock = BatchClock {
                wall_ns: 0.0,
                app_access_ns: 0.0,
                threads: 1.0,
                stop_wall_ns: f64::INFINITY,
            };
            let mut recs = Vec::new();
            let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, filter);
            prop_assert!(matches!(stop, BatchStop::Clean));
            prop_assert_eq!(n, consumed);
            let kept: Vec<u64> = recs.iter().map(|r| r.now_ns.to_bits()).collect();
            prop_assert_eq!(kept, fired_at);
            prop_assert_eq!(m.batch_tally(), [0, loads, stores]);

            // The tally and the records bring a sampler to the reference's
            // state without observing the non-firing events.
            let mut fast = start();
            let [_, mut left_l, mut left_s] = m.batch_tally();
            for r in &recs {
                let (l, st) = if r.access.is_store() {
                    (0, fast.store_events_until_sample() - 1)
                } else {
                    (fast.load_events_until_sample() - 1, 0)
                };
                fast.skip(l, st);
                prop_assert!(fast.observe(&r.access, &r.outcome).is_some());
                left_l -= l + (!r.access.is_store()) as u64;
                left_s -= st + r.access.is_store() as u64;
            }
            fast.skip(left_l, left_s);
            prop_assert_eq!(fast.snapshot(), refr.snapshot());
        }
    }
}
