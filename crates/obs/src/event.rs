//! Typed trace events.
//!
//! Events carry plain integers (virtual page numbers as `u64`, tier ids as
//! `u8`) so this crate stays dependency-free; the simulator's newtypes are
//! unwrapped at the emission site.

use crate::json::fmt_f64;

/// How an event field is written into a trace record: integers as-is,
/// `f64` through [`fmt_f64`], label enums as their quoted label.
pub(crate) trait TraceField {
    /// Appends the field's JSON value to `out`.
    fn push_json(&self, out: &mut String);
}

macro_rules! int_trace_field {
    ($($t:ty),*) => {$(
        impl TraceField for $t {
            fn push_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

int_trace_field!(u8, u32, u64);

impl TraceField for f64 {
    fn push_json(&self, out: &mut String) {
        out.push_str(&fmt_f64(*self));
    }
}

/// Declares a label enum from one row per variant: its snapshot tag,
/// variant and stable exporter label. Generates the enum, `label()`, the
/// snapshot codec, and the trace-field writer (the quoted label).
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        $ty:ident {
            $( $(#[$vmeta:meta])* $tag:literal => $variant:ident $label:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $ty {
            /// Stable lower-case label used by the exporters.
            pub fn label(&self) -> &'static str {
                match self {
                    $( $ty::$variant => $label, )+
                }
            }
        }

        impl TraceField for $ty {
            fn push_json(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.label());
                out.push('"');
            }
        }

        crate::snap_enum!($ty { $( $tag => $variant ),+ });
    };
}

label_enum! {
    /// Why a migration attempt did not move a page.
    MigrationFailure {
        /// Destination tier had no free frame of the required size.
        0 => OutOfMemory "out_of_memory",
        /// The page was not mapped (stale queue entry, already freed).
        1 => NotMapped "not_mapped",
        /// The virtual page was not aligned for its mapping size.
        2 => Unaligned "unaligned",
        /// Source and destination tier were the same.
        3 => SameTier "same_tier",
        /// A queued migration was dropped at re-validation (stale candidate:
        /// page freed, reclassified, or already moved).
        4 => Cancelled "cancelled",
        /// An in-flight transfer exhausted its re-copy budget: stores kept
        /// dirtying the source page mid-copy.
        5 => Dirty "dirty",
        /// The mapping changed under an in-flight transfer (unmap, split,
        /// collapse, or re-allocation), invalidating the copied data.
        6 => Superseded "superseded",
        /// Any other simulator error.
        7 => Other "other",
    }
}

label_enum! {
    /// What a fault-injection plan perturbed (see `memtis-sim`'s `faults`
    /// module). Carried by [`EventKind::FaultInjected`] so chaos runs leave an
    /// auditable record of every perturbation in the trace.
    FaultKind {
        /// An in-flight transfer was forcibly aborted.
        0 => ForcedAbort "forced_abort",
        /// A dirty store was injected into an active copy pass.
        1 => InjectedDirty "injected_dirty",
        /// A migration link went down for a window (bandwidth lost).
        2 => LinkOutage "link_outage",
        /// A PEBS sample was dropped before the policy saw it.
        3 => SampleDrop "sample_drop",
        /// A PEBS sample was delivered twice.
        4 => SampleDup "sample_dup",
        /// A `kmigrated` wakeup was skipped outright.
        5 => TickSkip "tick_skip",
        /// A `kmigrated` wakeup was delayed.
        6 => TickDelay "tick_delay",
        /// A tier-capacity pressure spike began (frames stolen).
        7 => PressureSpike "pressure_spike",
        /// A pressure spike ended (stolen frames released).
        8 => PressureRelease "pressure_release",
    }
}

label_enum! {
    /// What triggered a TLB shootdown.
    ShootdownCause {
        /// Page migration remapped the page.
        0 => Migration "migration",
        /// A huge page was split into base pages.
        1 => Split "split",
        /// Base pages were collapsed into a huge page.
        2 => Collapse "collapse",
        /// The workload unmapped the page.
        3 => Unmap "unmap",
    }
}

label_enum! {
    /// What triggered a threshold recomputation (MEMTIS Algorithm 1).
    ThresholdCause {
        /// The periodic adaptation interval elapsed.
        0 => Periodic "periodic",
        /// A cooling pass shifted the histogram, so thresholds follow.
        1 => Cooling "cooling",
    }
}

registry_ids! {
    /// The MEMTIS kernel daemon an event is attributed to. The Perfetto
    /// exporter draws one thread per daemon, numbered from 1 in this order.
    Daemon {
        /// Sampling, cooling and threshold adaptation.
        Ksampled => "ksampled",
        /// Migrations, shootdowns and fault injection.
        Kmigrated => "kmigrated",
        /// Huge-page splits and collapses.
        Khugepaged => "khugepaged",
    }
}

/// The one event-kind table. Each row gives a kind's snapshot tag,
/// variant, stable exporter label, [`Daemon`], and typed fields in trace
/// order. Generates [`EventKind`], its `label()` and `daemon()`, the
/// per-kind field writer both exporters use, the field lists the
/// validators check records against, and the snapshot codec.
macro_rules! event_kinds {
    ($(
        $(#[$meta:meta])*
        $tag:literal => $variant:ident $label:literal $daemon:ident {
            $( $(#[$fmeta:meta])* $f:ident: $t:ty, )+
        }
    ),+ $(,)?) => {
        /// One traced occurrence in the tiering substrate.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {
            $( $(#[$meta])* $variant { $( $(#[$fmeta])* $f: $t, )+ }, )+
        }

        impl EventKind {
            /// Every kind's label and field names, in tag order (the
            /// validators' vocabulary).
            pub(crate) const SCHEMA: &'static [(&'static str, &'static [&'static str])] =
                &[$( ($label, &[$(stringify!($f)),+]) ),+];

            /// Stable lower-case kind label used by the exporters.
            pub fn label(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $label, )+
                }
            }

            /// The daemon whose Perfetto thread the event lands on.
            pub(crate) fn daemon(&self) -> Daemon {
                match self {
                    $( EventKind::$variant { .. } => Daemon::$daemon, )+
                }
            }

            /// Appends `,"field":value` for every field, in row order.
            pub(crate) fn push_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($f),+ } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($f), "\":"));
                            $f.push_json(out);
                        )+
                    } )+
                }
            }
        }

        crate::snap_enum!(EventKind { $( $tag => $variant { $($f),+ } ),+ });
    };
}

// Tag 16 (admission rejections) is retired; never reuse it.
event_kinds! {
    /// A page moved toward the fast tier.
    0 => Promotion "promotion" Kmigrated {
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
    1 => Demotion "demotion" Kmigrated {
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
    2 => Split "split" Khugepaged {
        /// Virtual page number of the huge page head.
        vpage: u64,
        /// Tier the page resided on.
        tier: u8,
        /// Never-written subpages unmapped and freed during the split.
        zero_subpages_freed: u32,
    },
    /// 512 base pages were collapsed into one huge page.
    3 => Collapse "collapse" Khugepaged {
        /// Virtual page number of the new huge page head.
        vpage: u64,
        /// Tier the huge page was allocated on.
        tier: u8,
    },
    /// A histogram cooling pass ran (counts halved, bins shifted).
    4 => CoolingTick "cooling_tick" Ksampled {
        /// 4 KiB page-equivalents visited by the cooling walk.
        visited_4k: u64,
        /// Hot-threshold bin after the pass.
        hot_threshold: u32,
        /// Warm-threshold bin after the pass.
        warm_threshold: u32,
    },
    /// Thresholds were recomputed from the access distribution.
    5 => ThresholdRecompute "threshold_recompute" Ksampled {
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
    6 => SampleBatch "sample_batch" Ksampled {
        /// Samples in the batch.
        samples: u64,
        /// Sampler load period in effect after the batch.
        load_period: u64,
        /// Smoothed sampling CPU usage (fraction of one core).
        cpu_usage: f64,
    },
    /// A TLB shootdown was performed.
    7 => TlbShootdown "tlb_shootdown" Kmigrated {
        /// Virtual page number the shootdown targeted.
        vpage: u64,
        /// What caused the shootdown.
        cause: ShootdownCause,
    },
    /// A migration attempt failed or a queued migration was cancelled.
    8 => MigrationFailed "migration_failed" Kmigrated {
        /// Virtual page number (4 KiB granule).
        vpage: u64,
        /// Intended destination tier id.
        to: u8,
        /// Why the page did not move.
        cause: MigrationFailure,
    },
    /// An asynchronous transfer was admitted to the migration engine.
    9 => MigrationEnqueued "migration_enqueued" Kmigrated {
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
    10 => MigrationStarted "migration_started" Kmigrated {
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
    11 => MigrationCompleted "migration_completed" Kmigrated {
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
    12 => MigrationAborted "migration_aborted" Kmigrated {
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
    13 => FaultInjected "fault_injected" Kmigrated {
        /// What was perturbed.
        fault: FaultKind,
        /// Virtual page number the fault targeted (0 when not page-scoped).
        vpage: u64,
    },
    /// `AccessHistogram::remove` underflowed a bin: histogram/metadata
    /// desync that release builds previously saturated away silently.
    14 => HistUnderflow "hist_underflow" Ksampled {
        /// Underflows detected since the previous report.
        count: u64,
    },
    /// A sharded run cut a telemetry window: cumulative epoch-barrier
    /// tallies at the cut. Field values are shard-count-invariant (burst
    /// boundaries and lane spills do not depend on the thread grouping), so
    /// traces stay byte-identical across `--shards` values.
    15 => ShardBarrier "shard_barrier" Ksampled {
        /// Parallel bursts merged so far.
        bursts: u64,
        /// Accesses that spilled from a stopped lane to the coordinator's
        /// serial path so far.
        spills: u64,
    },
    /// A retained shadow frame was invalidated and freed (store to the
    /// page, unmap, split, collapse, re-migration, or capacity reclaim).
    17 => ShadowReclaimed "shadow_reclaimed" Kmigrated {
        /// Virtual page number (4 KiB granule) the shadow backed.
        vpage: u64,
        /// Tier the shadow frame lived on.
        tier: u8,
        /// Bytes returned to the tier.
        bytes: u64,
    },
    /// Anti-thrashing hysteresis backed off a re-promotion of a
    /// ping-ponging region.
    18 => PromotionBackoff "promotion_backoff" Kmigrated {
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

crate::snap_struct!(Event { t_ns, kind });

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snap::{SnapReader, SnapWriter};

    /// One event kind per row of the event-kind table, in tag order.
    pub(crate) fn one_of_every_kind() -> Vec<EventKind> {
        vec![
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
        ]
    }

    #[test]
    fn snap_round_trips_every_kind() {
        for (i, kind) in one_of_every_kind().into_iter().enumerate() {
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
