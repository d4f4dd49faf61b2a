//! The [`Observer`] trait and its two canonical implementations.
//!
//! Instrumentation sites hold a `&mut dyn Observer` (or are generic over
//! `O: Observer`) and guard every emission with [`Observer::enabled`]. For
//! [`NopObserver`] that check is a constant `false` the optimizer deletes
//! together with the event-construction code behind it, so an untraced
//! build pays nothing — not even a branch — at the instrumentation sites.

use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::profile::Profiler;
use crate::registry::{CounterId, GaugeId, Registry};
use crate::ring::EventRing;
use crate::window::WindowSample;

/// Sink for trace events and window samples.
///
/// All methods have no-op defaults so implementations opt into exactly the
/// signals they care about. The trait is object-safe: policies behind
/// `Box<dyn TieringPolicy>` receive a `&mut dyn Observer`.
pub trait Observer {
    /// Whether this observer wants events at all. Emission sites check
    /// this before constructing an [`Event`], so a `false` constant makes
    /// the whole site dead code.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event.
    #[inline]
    fn record(&mut self, event: Event) {
        let _ = event;
    }

    /// Notifies that a telemetry window closed.
    #[inline]
    fn on_window(&mut self, sample: &WindowSample) {
        let _ = sample;
    }

    /// The phase self-profiler this observer carries, if any. Span sites
    /// go through this accessor, so with the default `None` (and in
    /// particular with [`NopObserver`]) every span is dead code.
    #[inline]
    fn profiler(&self) -> Option<&Arc<Profiler>> {
        None
    }

    /// Whether the flight recorder (latency histograms) should be
    /// attached. Separate from [`Observer::enabled`] so an events-only
    /// tracer can measure pure event-stream overhead.
    #[inline]
    fn flight_enabled(&self) -> bool {
        false
    }

    /// Serializes the observer's run state (event ring, counters) into a
    /// checkpoint. The default writes nothing, matching the default
    /// [`Observer::load_state`] that reads nothing — stateless observers
    /// snapshot for free.
    #[inline]
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state previously written by [`Observer::save_state`].
    /// `r` is scoped to exactly the bytes this observer saved.
    #[inline]
    fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// The default observer: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopObserver;

impl Observer for NopObserver {}

/// Blanket forwarding so `&mut O` works where `impl Observer` is expected.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn on_window(&mut self, sample: &WindowSample) {
        (**self).on_window(sample);
    }

    #[inline]
    fn profiler(&self) -> Option<&Arc<Profiler>> {
        (**self).profiler()
    }

    #[inline]
    fn flight_enabled(&self) -> bool {
        (**self).flight_enabled()
    }

    #[inline]
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        (**self).save_state(w);
    }

    #[inline]
    fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        (**self).load_state(r)
    }
}

/// A recording observer: events go into a drop-oldest [`EventRing`] and
/// every event also bumps the matching [`Registry`] counters, so counters
/// stay exact even after the ring overflows.
#[derive(Debug, Default)]
pub struct TracingObserver {
    /// The event ring (drop-oldest on overflow).
    pub ring: EventRing,
    /// Counters and gauges derived from the event stream.
    pub registry: Registry,
    /// The phase self-profiler, when the full flight recorder is on.
    pub profiler: Option<Arc<Profiler>>,
    /// Whether latency histograms should be attached to the machine.
    pub flight: bool,
}

impl TracingObserver {
    /// Creates a full tracer (events + profiler + flight recorder) with
    /// the default ring capacity.
    pub fn new() -> Self {
        TracingObserver {
            profiler: Some(Arc::new(Profiler::new())),
            flight: true,
            ..Default::default()
        }
    }

    /// Creates a full tracer retaining at most `capacity` events.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        TracingObserver {
            ring: EventRing::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Creates a tracer that records events only — no profiler spans, no
    /// latency histograms. Used to separate event-stream overhead from
    /// flight-recorder overhead in the hotpath bench.
    pub fn events_only() -> Self {
        TracingObserver::default()
    }
}

impl Observer for TracingObserver {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn profiler(&self) -> Option<&Arc<Profiler>> {
        self.profiler.as_ref()
    }

    #[inline]
    fn flight_enabled(&self) -> bool {
        self.flight
    }

    fn record(&mut self, event: Event) {
        let r = &mut self.registry;
        r.inc(CounterId::EventsRecorded);
        match event.kind {
            EventKind::Promotion { .. } => r.inc(CounterId::Promotions),
            EventKind::Demotion { .. } => r.inc(CounterId::Demotions),
            EventKind::Split { .. } => r.inc(CounterId::Splits),
            EventKind::Collapse { .. } => r.inc(CounterId::Collapses),
            EventKind::CoolingTick { .. } => r.inc(CounterId::CoolingTicks),
            EventKind::ThresholdRecompute { .. } => r.inc(CounterId::ThresholdRecomputes),
            EventKind::SampleBatch {
                samples,
                load_period,
                cpu_usage,
            } => {
                r.inc(CounterId::SampleBatches);
                r.add(CounterId::SamplesProcessed, samples);
                r.set_gauge(GaugeId::LoadPeriod, load_period as f64);
                r.set_gauge(GaugeId::SamplingCpu, cpu_usage);
            }
            EventKind::TlbShootdown { .. } => r.inc(CounterId::TlbShootdowns),
            EventKind::MigrationFailed { cause, .. } => {
                if cause == crate::event::MigrationFailure::Cancelled {
                    r.inc(CounterId::MigrationsCancelled);
                } else {
                    r.inc(CounterId::MigrationsFailed);
                }
            }
            EventKind::MigrationEnqueued { queue_depth, .. } => {
                r.inc(CounterId::MigrationsEnqueued);
                r.set_gauge(GaugeId::MigrationQueueDepth, queue_depth as f64);
            }
            EventKind::MigrationStarted { .. } => {}
            // Asynchronous completions feed the same promotion/demotion
            // counters the synchronous events do, so counter semantics
            // don't depend on the engine mode.
            EventKind::MigrationCompleted { from, to, .. } => {
                if to < from {
                    r.inc(CounterId::Promotions);
                } else {
                    r.inc(CounterId::Demotions);
                }
            }
            EventKind::MigrationAborted { .. } => r.inc(CounterId::MigrationsAborted),
            EventKind::FaultInjected { .. } => r.inc(CounterId::FaultsInjected),
            EventKind::HistUnderflow { count } => r.add(CounterId::HistUnderflow, count),
            EventKind::ShardBarrier { .. } => r.inc(CounterId::ShardBarriers),
            EventKind::ShadowReclaimed { .. } => r.inc(CounterId::ShadowReclaimed),
            EventKind::PromotionBackoff { .. } => r.inc(CounterId::PromotionBackoffs),
        }
        self.ring.push(event);
        self.registry
            .set_counter(CounterId::EventsDropped, self.ring.dropped());
    }

    fn on_window(&mut self, sample: &WindowSample) {
        let r = &mut self.registry;
        r.set_gauge(GaugeId::Rhr, sample.rhr);
        r.set_gauge(GaugeId::Ehr, sample.ehr);
        if let Some(v) = sample.gauge("hot_bytes") {
            r.set_gauge(GaugeId::HotSetBytes, v);
        }
        if let Some(v) = sample.gauge("warm_bytes") {
            r.set_gauge(GaugeId::WarmSetBytes, v);
        }
        if let Some(v) = sample.gauge("cold_bytes") {
            r.set_gauge(GaugeId::ColdSetBytes, v);
        }
        let active = sample.hist_bins.iter().filter(|&&b| b > 0).count();
        if !sample.hist_bins.is_empty() {
            r.set_gauge(GaugeId::HistActiveBins, active as f64);
        }
    }

    /// Saves the event ring and the full registry (counters and gauges in
    /// `ALL` order). Profiler spans are host-time diagnostics and are not
    /// checkpoint state.
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        w.put(&self.ring);
        w.put(&CounterId::ALL.map(|id| self.registry.counter(id)).to_vec());
        w.put(&GaugeId::ALL.map(|id| self.registry.gauge(id)).to_vec());
    }

    fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        self.ring = r.get()?;
        let counters: Vec<u64> = r.get()?;
        let gauges: Vec<f64> = r.get()?;
        if counters.len() != CounterId::ALL.len() {
            return Err(SnapError::Corrupt("registry counter count"));
        }
        if gauges.len() != GaugeId::ALL.len() {
            return Err(SnapError::Corrupt("registry gauge count"));
        }
        for (id, v) in CounterId::ALL.into_iter().zip(counters) {
            self.registry.set_counter(id, v);
        }
        for (id, v) in GaugeId::ALL.into_iter().zip(gauges) {
            self.registry.set_gauge(id, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MigrationFailure, ShootdownCause};

    #[test]
    fn nop_observer_is_disabled() {
        let mut o = NopObserver;
        assert!(!o.enabled());
        o.record(Event::new(
            0.0,
            EventKind::TlbShootdown {
                vpage: 1,
                cause: ShootdownCause::Unmap,
            },
        ));
    }

    #[test]
    fn tracer_modes_gate_profiler_and_flight() {
        let full = TracingObserver::new();
        assert!(full.profiler().is_some());
        assert!(full.flight_enabled());
        let events = TracingObserver::events_only();
        assert!(events.enabled());
        assert!(events.profiler().is_none());
        assert!(!events.flight_enabled());
        assert!(NopObserver.profiler().is_none());
        assert!(!NopObserver.flight_enabled());
    }

    #[test]
    fn tracer_derives_counters_from_events() {
        let mut o = TracingObserver::new();
        assert!(o.enabled());
        o.record(Event::new(
            1.0,
            EventKind::Promotion {
                vpage: 1,
                from: 1,
                to: 0,
                bytes: 4096,
            },
        ));
        o.record(Event::new(
            2.0,
            EventKind::SampleBatch {
                samples: 64,
                load_period: 1007,
                cpu_usage: 0.02,
            },
        ));
        o.record(Event::new(
            3.0,
            EventKind::MigrationFailed {
                vpage: 9,
                to: 0,
                cause: MigrationFailure::Cancelled,
            },
        ));
        o.record(Event::new(
            4.0,
            EventKind::MigrationFailed {
                vpage: 9,
                to: 0,
                cause: MigrationFailure::OutOfMemory,
            },
        ));
        let r = &o.registry;
        assert_eq!(r.counter(CounterId::EventsRecorded), 4);
        assert_eq!(r.counter(CounterId::Promotions), 1);
        assert_eq!(r.counter(CounterId::SampleBatches), 1);
        assert_eq!(r.counter(CounterId::SamplesProcessed), 64);
        assert_eq!(r.counter(CounterId::MigrationsCancelled), 1);
        assert_eq!(r.counter(CounterId::MigrationsFailed), 1);
        assert_eq!(r.gauge(GaugeId::LoadPeriod), 1007.0);
        assert_eq!(o.ring.len(), 4);
    }

    #[test]
    fn dropped_counter_mirrors_ring() {
        let mut o = TracingObserver::with_ring_capacity(2);
        for i in 0..5 {
            o.record(Event::new(
                i as f64,
                EventKind::TlbShootdown {
                    vpage: i,
                    cause: ShootdownCause::Migration,
                },
            ));
        }
        assert_eq!(o.registry.counter(CounterId::EventsRecorded), 5);
        assert_eq!(o.registry.counter(CounterId::EventsDropped), 3);
        assert_eq!(o.ring.dropped(), 3);
    }

    #[test]
    fn window_updates_gauges() {
        let mut o = TracingObserver::new();
        let s = WindowSample {
            index: 0,
            end_event: 10,
            wall_ns: 1e6,
            accesses: 10,
            window_accesses: 10,
            window_throughput: 1.0,
            fast_hit_ratio: 0.5,
            tier_hit_ratios: vec![0.5, 0.5],
            rhr: 0.8,
            ehr: 0.9,
            migrated_bytes: 0,
            migration_bw: 0.0,
            hist_bins: vec![0, 3, 0, 1],
            gauges: vec![("hot_bytes", 123.0)],
        };
        o.on_window(&s);
        assert_eq!(o.registry.gauge(GaugeId::Rhr), 0.8);
        assert_eq!(o.registry.gauge(GaugeId::Ehr), 0.9);
        assert_eq!(o.registry.gauge(GaugeId::HotSetBytes), 123.0);
        assert_eq!(o.registry.gauge(GaugeId::HistActiveBins), 2.0);
    }
}
