//! Typed trace events.
//!
//! Events carry plain integers (virtual page numbers as `u64`, tier ids as
//! `u8`) so this crate stays dependency-free; the simulator's newtypes are
//! unwrapped at the emission site.

/// Why a migration attempt did not move a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationFailure {
    /// Destination tier had no free frame of the required size.
    OutOfMemory,
    /// The page was not mapped (stale queue entry, already freed).
    NotMapped,
    /// The virtual page was not aligned for its mapping size.
    Unaligned,
    /// Source and destination tier were the same.
    SameTier,
    /// A queued migration was dropped at re-validation (stale candidate:
    /// page freed, reclassified, or already moved).
    Cancelled,
    /// An in-flight transfer exhausted its re-copy budget: stores kept
    /// dirtying the source page mid-copy.
    Dirty,
    /// The mapping changed under an in-flight transfer (unmap, split,
    /// collapse, or re-allocation), invalidating the copied data.
    Superseded,
    /// Any other simulator error.
    Other,
}

impl MigrationFailure {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationFailure::OutOfMemory => "out_of_memory",
            MigrationFailure::NotMapped => "not_mapped",
            MigrationFailure::Unaligned => "unaligned",
            MigrationFailure::SameTier => "same_tier",
            MigrationFailure::Cancelled => "cancelled",
            MigrationFailure::Dirty => "dirty",
            MigrationFailure::Superseded => "superseded",
            MigrationFailure::Other => "other",
        }
    }
}

/// What a fault-injection plan perturbed (see `memtis-sim`'s `faults`
/// module). Carried by [`EventKind::FaultInjected`] so chaos runs leave an
/// auditable record of every perturbation in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An in-flight transfer was forcibly aborted.
    ForcedAbort,
    /// A dirty store was injected into an active copy pass.
    InjectedDirty,
    /// A migration link went down for a window (bandwidth lost).
    LinkOutage,
    /// A PEBS sample was dropped before the policy saw it.
    SampleDrop,
    /// A PEBS sample was delivered twice.
    SampleDup,
    /// A `kmigrated` wakeup was skipped outright.
    TickSkip,
    /// A `kmigrated` wakeup was delayed.
    TickDelay,
    /// A tier-capacity pressure spike began (frames stolen).
    PressureSpike,
    /// A pressure spike ended (stolen frames released).
    PressureRelease,
}

impl FaultKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ForcedAbort => "forced_abort",
            FaultKind::InjectedDirty => "injected_dirty",
            FaultKind::LinkOutage => "link_outage",
            FaultKind::SampleDrop => "sample_drop",
            FaultKind::SampleDup => "sample_dup",
            FaultKind::TickSkip => "tick_skip",
            FaultKind::TickDelay => "tick_delay",
            FaultKind::PressureSpike => "pressure_spike",
            FaultKind::PressureRelease => "pressure_release",
        }
    }
}

/// What triggered a TLB shootdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShootdownCause {
    /// Page migration remapped the page.
    Migration,
    /// A huge page was split into base pages.
    Split,
    /// Base pages were collapsed into a huge page.
    Collapse,
    /// The workload unmapped the page.
    Unmap,
}

impl ShootdownCause {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            ShootdownCause::Migration => "migration",
            ShootdownCause::Split => "split",
            ShootdownCause::Collapse => "collapse",
            ShootdownCause::Unmap => "unmap",
        }
    }
}

/// What triggered a threshold recomputation (MEMTIS Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdCause {
    /// The periodic adaptation interval elapsed.
    Periodic,
    /// A cooling pass shifted the histogram, so thresholds follow.
    Cooling,
}

impl ThresholdCause {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            ThresholdCause::Periodic => "periodic",
            ThresholdCause::Cooling => "cooling",
        }
    }
}

/// One traced occurrence in the tiering substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A page moved toward the fast tier.
    Promotion {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Source tier id.
        from: u8,
        /// Destination tier id.
        to: u8,
        /// Bytes copied.
        bytes: u64,
    },
    /// A page moved away from the fast tier.
    Demotion {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Source tier id.
        from: u8,
        /// Destination tier id.
        to: u8,
        /// Bytes copied.
        bytes: u64,
    },
    /// A huge page was split into base pages.
    Split {
        /// Virtual page number of the huge page head.
        vpage: u64,
        /// Tier the page resided on.
        tier: u8,
        /// Never-written subpages unmapped and freed during the split.
        zero_subpages_freed: u32,
    },
    /// 512 base pages were collapsed into one huge page.
    Collapse {
        /// Virtual page number of the new huge page head.
        vpage: u64,
        /// Tier the huge page was allocated on.
        tier: u8,
    },
    /// A histogram cooling pass ran (counts halved, bins shifted).
    CoolingTick {
        /// 4 KiB page-equivalents visited by the cooling walk.
        visited_4k: u64,
        /// Hot-threshold bin after the pass.
        hot_threshold: u32,
        /// Warm-threshold bin after the pass.
        warm_threshold: u32,
    },
    /// Thresholds were recomputed from the access distribution.
    ThresholdRecompute {
        /// What triggered the recomputation.
        cause: ThresholdCause,
        /// New hot-threshold bin.
        hot: u32,
        /// New warm-threshold bin.
        warm: u32,
        /// New cold-threshold bin.
        cold: u32,
    },
    /// A batch of PEBS samples was processed by the sampling daemon.
    SampleBatch {
        /// Samples in the batch.
        samples: u64,
        /// Sampler load period in effect after the batch.
        load_period: u64,
        /// Smoothed sampling CPU usage (fraction of one core).
        cpu_usage: f64,
    },
    /// A TLB shootdown was performed.
    TlbShootdown {
        /// Virtual page number the shootdown targeted.
        vpage: u64,
        /// What caused the shootdown.
        cause: ShootdownCause,
    },
    /// A migration attempt failed or a queued migration was cancelled.
    MigrationFailed {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Intended destination tier id.
        to: u8,
        /// Why the page did not move.
        cause: MigrationFailure,
    },
    /// An asynchronous transfer was admitted to the migration engine.
    MigrationEnqueued {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Source tier id.
        from: u8,
        /// Destination tier id.
        to: u8,
        /// Bytes the transfer will copy.
        bytes: u64,
        /// Transfers queued behind the engine's links after admission.
        queue_depth: u64,
    },
    /// A queued transfer won its link and began copying.
    MigrationStarted {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Source tier id.
        from: u8,
        /// Destination tier id.
        to: u8,
        /// Bytes being copied.
        bytes: u64,
    },
    /// An in-flight transfer finished its copy and remapped the page.
    MigrationCompleted {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Source tier id.
        from: u8,
        /// Destination tier id.
        to: u8,
        /// Bytes copied.
        bytes: u64,
    },
    /// An in-flight transfer ended without remapping the page.
    MigrationAborted {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Intended destination tier id.
        to: u8,
        /// Bytes the transfer was to copy.
        bytes: u64,
        /// Copy work discarded, in bytes (whole passes).
        wasted_bytes: u64,
        /// Why the transfer died.
        cause: MigrationFailure,
    },
    /// The fault-injection layer perturbed the run.
    FaultInjected {
        /// What was perturbed.
        fault: FaultKind,
        /// Virtual page number the fault targeted (0 when not page-scoped).
        vpage: u64,
    },
    /// `AccessHistogram::remove` underflowed a bin: histogram/metadata
    /// desync that release builds previously saturated away silently.
    HistUnderflow {
        /// Underflows detected since the previous report.
        count: u64,
    },
    /// A sharded run cut a telemetry window: cumulative epoch-barrier
    /// tallies at the cut. Field values are shard-count-invariant (burst
    /// boundaries and lane spills do not depend on the thread grouping), so
    /// traces stay byte-identical across `--shards` values.
    ShardBarrier {
        /// Parallel bursts merged so far.
        bursts: u64,
        /// Accesses that spilled from a stopped lane to the coordinator's
        /// serial path so far.
        spills: u64,
    },
    /// A retained shadow frame was invalidated and freed (store to the
    /// page, unmap, split, collapse, re-migration, or capacity reclaim).
    ShadowReclaimed {
        /// Virtual page number (4 KiB granule) the shadow backed.
        vpage: u64,
        /// Tier the shadow frame lived on.
        tier: u8,
        /// Bytes returned to the tier.
        bytes: u64,
    },
    /// Anti-thrashing hysteresis backed off a re-promotion of a
    /// ping-ponging region.
    PromotionBackoff {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Simulated time until which re-promotion stays backed off (ns).
        until_ns: f64,
    },
}

/// One trace event: a kind plus the simulated time it occurred at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated wall-clock time of the event (ns).
    pub t_ns: f64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event at simulated time `t_ns`.
    pub fn new(t_ns: f64, kind: EventKind) -> Self {
        Event { t_ns, kind }
    }
}

// Snapshot encoding: label enums serialize as their declaration-order tag,
// event kinds as a tag followed by their fields in declaration order.

crate::snap_enum!(MigrationFailure {
    0 => OutOfMemory,
    1 => NotMapped,
    2 => Unaligned,
    3 => SameTier,
    4 => Cancelled,
    5 => Dirty,
    6 => Superseded,
    7 => Other,
});

crate::snap_enum!(FaultKind {
    0 => ForcedAbort,
    1 => InjectedDirty,
    2 => LinkOutage,
    3 => SampleDrop,
    4 => SampleDup,
    5 => TickSkip,
    6 => TickDelay,
    7 => PressureSpike,
    8 => PressureRelease,
});

crate::snap_enum!(ShootdownCause {
    0 => Migration,
    1 => Split,
    2 => Collapse,
    3 => Unmap,
});

crate::snap_enum!(ThresholdCause {
    0 => Periodic,
    1 => Cooling,
});

/// The one event-kind variant table: each row's snapshot tag, variant,
/// stable exporter label, and fields. Generates [`EventKind::label`],
/// [`EventKind::LABELS`] and the snapshot codec from the same rows.
macro_rules! event_kinds {
    ($( $tag:literal => $variant:ident $label:literal { $($f:ident),* } ),+ $(,)?) => {
        impl EventKind {
            /// Every kind label, in tag order (the JSONL validator's
            /// vocabulary).
            pub(crate) const LABELS: &'static [&'static str] = &[$($label),+];

            /// Stable lower-case kind label used by the exporters.
            pub fn label(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $label, )+
                }
            }
        }

        crate::snap_enum!(EventKind { $( $tag => $variant { $($f),* } ),+ });
    };
}

// Tag 16 (admission rejections) is retired; never reuse it.
event_kinds! {
    0 => Promotion "promotion" { vpage, from, to, bytes },
    1 => Demotion "demotion" { vpage, from, to, bytes },
    2 => Split "split" { vpage, tier, zero_subpages_freed },
    3 => Collapse "collapse" { vpage, tier },
    4 => CoolingTick "cooling_tick" { visited_4k, hot_threshold, warm_threshold },
    5 => ThresholdRecompute "threshold_recompute" { cause, hot, warm, cold },
    6 => SampleBatch "sample_batch" { samples, load_period, cpu_usage },
    7 => TlbShootdown "tlb_shootdown" { vpage, cause },
    8 => MigrationFailed "migration_failed" { vpage, to, cause },
    9 => MigrationEnqueued "migration_enqueued" { vpage, from, to, bytes, queue_depth },
    10 => MigrationStarted "migration_started" { vpage, from, to, bytes },
    11 => MigrationCompleted "migration_completed" { vpage, from, to, bytes },
    12 => MigrationAborted "migration_aborted" { vpage, to, bytes, wasted_bytes, cause },
    13 => FaultInjected "fault_injected" { fault, vpage },
    14 => HistUnderflow "hist_underflow" { count },
    15 => ShardBarrier "shard_barrier" { bursts, spills },
    17 => ShadowReclaimed "shadow_reclaimed" { vpage, tier, bytes },
    18 => PromotionBackoff "promotion_backoff" { vpage, until_ns },
}

crate::snap_struct!(Event { t_ns, kind });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{SnapReader, SnapWriter};

    #[test]
    fn snap_round_trips_every_kind() {
        let kinds = [
            EventKind::Promotion {
                vpage: 7,
                from: 1,
                to: 0,
                bytes: 4096,
            },
            EventKind::Demotion {
                vpage: 8,
                from: 0,
                to: 1,
                bytes: 2 << 20,
            },
            EventKind::Split {
                vpage: 512,
                tier: 0,
                zero_subpages_freed: 3,
            },
            EventKind::Collapse {
                vpage: 512,
                tier: 1,
            },
            EventKind::CoolingTick {
                visited_4k: 1000,
                hot_threshold: 9,
                warm_threshold: 4,
            },
            EventKind::ThresholdRecompute {
                cause: ThresholdCause::Cooling,
                hot: 9,
                warm: 4,
                cold: 1,
            },
            EventKind::SampleBatch {
                samples: 17,
                load_period: 1999,
                cpu_usage: 0.031,
            },
            EventKind::TlbShootdown {
                vpage: 3,
                cause: ShootdownCause::Unmap,
            },
            EventKind::MigrationFailed {
                vpage: 3,
                to: 0,
                cause: MigrationFailure::Superseded,
            },
            EventKind::MigrationEnqueued {
                vpage: 3,
                from: 1,
                to: 0,
                bytes: 4096,
                queue_depth: 5,
            },
            EventKind::MigrationStarted {
                vpage: 3,
                from: 1,
                to: 0,
                bytes: 4096,
            },
            EventKind::MigrationCompleted {
                vpage: 3,
                from: 1,
                to: 0,
                bytes: 4096,
            },
            EventKind::MigrationAborted {
                vpage: 3,
                to: 0,
                bytes: 4096,
                wasted_bytes: 8192,
                cause: MigrationFailure::Dirty,
            },
            EventKind::FaultInjected {
                fault: FaultKind::LinkOutage,
                vpage: 0,
            },
            EventKind::HistUnderflow { count: 2 },
            EventKind::ShardBarrier {
                bursts: 40,
                spills: 2,
            },
            EventKind::ShadowReclaimed {
                vpage: 512,
                tier: 1,
                bytes: 2 << 20,
            },
            EventKind::PromotionBackoff {
                vpage: 3,
                until_ns: 42e6,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = Event::new(i as f64 * 1.5, kind);
            let mut w = SnapWriter::new();
            w.put(&ev);
            let bytes = w.finish().unwrap();
            let mut r = SnapReader::new(&bytes);
            let back: Event = r.get().unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn labels_are_stable() {
        let e = Event::new(
            1.0,
            EventKind::Promotion {
                vpage: 7,
                from: 1,
                to: 0,
                bytes: 4096,
            },
        );
        assert_eq!(e.kind.label(), "promotion");
        assert_eq!(MigrationFailure::Cancelled.label(), "cancelled");
        assert_eq!(ShootdownCause::Unmap.label(), "unmap");
        assert_eq!(ThresholdCause::Cooling.label(), "cooling");
    }
}
