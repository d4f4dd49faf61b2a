//! # memtis-obs — observability for the tiering substrate
//!
//! A unified tracing/metrics layer for the simulator, the MEMTIS policy,
//! and every baseline:
//!
//! - [`event`] — typed trace events ([`Event`]/[`EventKind`]) carrying
//!   sim-time, page id, tier, and cause.
//! - [`ring`] — a fixed-capacity, drop-oldest event ring ([`EventRing`])
//!   with a dropped-event counter; pushes never allocate once full.
//! - [`registry`] — monotonic counters and gauges ([`Registry`]) derived
//!   from the event stream.
//! - [`window`] — a windowed time-series collector ([`WindowCollector`])
//!   snapshotting hit ratios, migration bandwidth, and histogram state
//!   every N simulation events into [`WindowSample`]s.
//! - [`observer`] — the [`Observer`] trait instrumentation sites are
//!   generic over. The [`NopObserver`] default compiles to nothing;
//!   [`TracingObserver`] records everything.
//! - [`export`] — JSONL and Chrome/Perfetto `trace_event` exporters plus
//!   dependency-free validators for CI smoke checks.
//! - [`lathist`] — HDR-style log-linear latency histograms ([`LatHist`])
//!   and the [`FlightRecorder`] aggregate (demand latency by
//!   tier/page-size, transfer latency, queue wait, abort-to-retry lag).
//! - [`profile`] — the phase self-profiler ([`Profiler`]/[`SpanId`]):
//!   scoped host-time spans attributed to simulator phases.
//!
//! The crate is dependency-free (events carry plain `u64`/`u8` ids) so the
//! simulator can depend on it without cycles.

#![forbid(unsafe_code)]

#[macro_use]
pub mod registry;
pub mod event;
pub mod export;
pub mod fnv;
pub mod json;
pub mod lathist;
pub mod observer;
pub mod profile;
pub mod ring;
pub mod snap;
pub mod window;

pub use event::{Event, EventKind, FaultKind, MigrationFailure, ShootdownCause, ThresholdCause};
pub use export::{
    export_jsonl, export_perfetto, validate_jsonl, validate_perfetto, JsonlSummary, JSONL_SCHEMA,
};
pub use fnv::Fnv1a;
pub use lathist::{FlightRecorder, HistStats, LatHist};
pub use observer::{NopObserver, Observer, TracingObserver};
pub use profile::{Profiler, SpanGuard, SpanId, SpanStat};
pub use registry::{CounterId, GaugeId, Registry};
pub use ring::EventRing;
pub use snap::{Snap, SnapError, SnapFields, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};
pub use window::{WindowCollector, WindowCut, WindowSample};
