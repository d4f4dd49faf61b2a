//! Counter and gauge registry.
//!
//! Monotonic counters and point-in-time gauges stored as plain values: the
//! only writer is [`crate::TracingObserver`], which owns its registry and
//! updates it through `&mut self` as it records each event.
//!
//! # Naming convention
//!
//! Counter and gauge names are `snake_case` and end with a unit suffix:
//!
//! - `_total` — monotonic event counts (every [`CounterId`]),
//! - `_bytes` — byte quantities,
//! - `_ns` — nanosecond durations,
//! - `_ratio` — dimensionless fractions in `[0, 1]`,
//! - `_count` — point-in-time discrete quantities (bins, queue entries,
//!   sampling-period lengths).
//!
//! The [`registry_ids!`] macro generates the enum, its `ALL` table, and its
//! `name()` method from one variant list, so a new counter or gauge cannot
//! be added without a name — the match and the table are exhaustive by
//! construction — and a unit test rejects names that stray from the suffix
//! convention. The same macro names the profiler's [`crate::SpanId`]s
//! and the trace's [`crate::event::Daemon`]s.

/// Defines a registry identifier enum together with its `ALL` table and
/// `name()` accessor. One variant list feeds all three, so an unnamed or
/// unlisted identifier is unrepresentable.
macro_rules! registry_ids {
    (
        $(#[$enum_meta:meta])*
        $enum_name:ident {
            $($(#[$variant_meta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$enum_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $enum_name {
            $($(#[$variant_meta])* $variant,)+
        }

        impl $enum_name {
            /// All identifiers, in registry order.
            pub const ALL: [$enum_name; [$(stringify!($variant)),+].len()] =
                [$($enum_name::$variant,)+];

            /// Stable `snake_case` exporter name.
            pub fn name(&self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name,)+
                }
            }
        }
    };
}

registry_ids! {
    /// Monotonic counter identifiers.
    CounterId {
        /// Events recorded into the trace ring (before overflow drops).
        EventsRecorded => "events_recorded_total",
        /// Events lost to ring overflow (drop-oldest).
        EventsDropped => "events_dropped_total",
        /// Pages promoted toward the fast tier.
        Promotions => "promotions_total",
        /// Pages demoted away from the fast tier.
        Demotions => "demotions_total",
        /// Huge pages split.
        Splits => "splits_total",
        /// Huge pages collapsed.
        Collapses => "collapses_total",
        /// Histogram cooling passes.
        CoolingTicks => "cooling_ticks_total",
        /// Threshold recomputations (Algorithm 1 walks).
        ThresholdRecomputes => "threshold_recomputes_total",
        /// PEBS sample batches processed.
        SampleBatches => "sample_batches_total",
        /// PEBS samples processed (sum over batches).
        SamplesProcessed => "samples_processed_total",
        /// TLB shootdowns observed.
        TlbShootdowns => "tlb_shootdowns_total",
        /// Migration attempts that failed in the machine.
        MigrationsFailed => "migrations_failed_total",
        /// Queued migrations cancelled at re-validation.
        MigrationsCancelled => "migrations_cancelled_total",
        /// Asynchronous transfers admitted to the migration engine.
        MigrationsEnqueued => "migrations_enqueued_total",
        /// In-flight transfers that ended without remapping the page.
        MigrationsAborted => "migrations_aborted_total",
        /// Perturbations applied by the fault-injection layer.
        FaultsInjected => "faults_injected_total",
        /// Histogram bin underflows (metadata/histogram desync) detected.
        HistUnderflow => "hist_underflows_total",
        /// Epoch-barrier telemetry events emitted by sharded runs.
        ShardBarriers => "shard_barriers_total",
        /// Shadow frames invalidated and freed.
        ShadowReclaimed => "shadow_reclaimed_total",
        /// Re-promotions backed off by anti-thrashing hysteresis.
        PromotionBackoffs => "promotion_backoffs_total",
    }
}

registry_ids! {
    /// Gauge identifiers (point-in-time values, not monotonic).
    GaugeId {
        /// Bytes currently classified hot.
        HotSetBytes => "hot_set_bytes",
        /// Bytes currently classified warm.
        WarmSetBytes => "warm_set_bytes",
        /// Bytes currently classified cold.
        ColdSetBytes => "cold_set_bytes",
        /// Non-empty histogram bins (occupancy of the classification array).
        HistActiveBins => "hist_active_bins_count",
        /// Estimated sampling CPU usage (fraction of one core).
        SamplingCpu => "sampling_cpu_ratio",
        /// Current PEBS load sampling period (accesses between samples).
        LoadPeriod => "load_period_count",
        /// Most recent windowed real hit ratio (rHR).
        Rhr => "rhr_ratio",
        /// Most recent windowed estimated base-page hit ratio (eHR).
        Ehr => "ehr_ratio",
        /// Migration-engine admission-queue depth after the latest enqueue.
        MigrationQueueDepth => "migration_queue_depth_count",
    }
}

/// The counter/gauge registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: [u64; CounterId::ALL.len()],
    gauges: [f64; GaugeId::ALL.len()],
}

impl Registry {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current counter value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Sets a counter to an absolute value (used to mirror an external
    /// monotonic source like the ring's dropped count).
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id as usize] = v;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id as usize] = v;
    }

    /// Current gauge value.
    pub fn gauge(&self, id: GaugeId) -> f64 {
        self.gauges[id as usize]
    }

    /// Snapshot of all counters as `(name, value)` pairs.
    pub fn counters_snapshot(&self) -> Vec<(&'static str, u64)> {
        CounterId::ALL
            .iter()
            .map(|&id| (id.name(), self.counter(id)))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)` pairs.
    pub fn gauges_snapshot(&self) -> Vec<(&'static str, f64)> {
        GaugeId::ALL
            .iter()
            .map(|&id| (id.name(), self.gauge(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.inc(CounterId::Promotions);
        r.add(CounterId::Promotions, 4);
        assert_eq!(r.counter(CounterId::Promotions), 5);
        assert_eq!(r.counter(CounterId::Demotions), 0);
    }

    #[test]
    fn gauges_store_point_values() {
        let mut r = Registry::new();
        r.set_gauge(GaugeId::Rhr, 0.875);
        r.set_gauge(GaugeId::Rhr, 0.5);
        assert_eq!(r.gauge(GaugeId::Rhr), 0.5);
        assert_eq!(r.gauge(GaugeId::Ehr), 0.0);
    }

    #[test]
    fn snapshots_cover_every_id() {
        let r = Registry::new();
        assert_eq!(r.counters_snapshot().len(), CounterId::ALL.len());
        assert_eq!(r.gauges_snapshot().len(), GaugeId::ALL.len());
        // Names are unique (exporter keys).
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterId::ALL.len());
    }

    #[test]
    fn names_follow_unit_suffix_convention() {
        let snake = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && !n.starts_with('_')
                && !n.ends_with('_')
                && !n.contains("__")
        };
        // Monotonic counters always count events.
        for c in CounterId::ALL {
            assert!(snake(c.name()), "counter {:?} name not snake_case", c);
            assert!(
                c.name().ends_with("_total"),
                "counter {:?} name {:?} must end with _total",
                c,
                c.name()
            );
        }
        // Gauges carry the unit of whatever they measure.
        const GAUGE_UNITS: [&str; 4] = ["_bytes", "_ns", "_ratio", "_count"];
        for g in GaugeId::ALL {
            assert!(snake(g.name()), "gauge {:?} name not snake_case", g);
            assert!(
                GAUGE_UNITS.iter().any(|u| g.name().ends_with(u)),
                "gauge {:?} name {:?} lacks a unit suffix {:?}",
                g,
                g.name(),
                GAUGE_UNITS
            );
        }
    }
}
