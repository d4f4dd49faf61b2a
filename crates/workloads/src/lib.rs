//! # memtis-workloads — synthetic access-stream generators
//!
//! Synthetic, distribution-calibrated stand-ins for the eight benchmarks the
//! MEMTIS paper evaluates (Table 2). What a tiering policy observes is the
//! access *distribution* — hot-set size and skew, phase behaviour, subpage
//! utilization within huge pages, THP bloat, allocation churn — and each
//! generator reproduces the specific distributional traits the paper
//! documents for its benchmark (see each module's docs).
//!
//! Workloads are described declaratively ([`spec::WorkloadSpec`]) and turned
//! into deterministic event streams ([`spec::SpecStream`]); [`trace`]
//! provides record/replay.

#![forbid(unsafe_code)]

mod ahead;
pub mod btree;
pub mod bwaves;
pub mod dist;
pub mod graph500;
pub mod liblinear;
pub mod pagerank;
pub mod registry;
pub mod roms;
pub mod scale;
pub mod silo;
pub mod spec;
pub mod synth;
pub mod trace;
pub mod xsbench;

pub use ahead::live_producers;
pub use registry::Benchmark;
pub use scale::Scale;
pub use spec::{
    assign_addresses, OpMix, Pattern, PhaseSpec, Placement, RegionSpec, SpecStream, WorkloadSpec,
};
pub use synth::SynthBuilder;
pub use trace::{
    TraceError, TraceFileWriter, TraceRecorder, TraceReplay, TraceWriter, TRACE_MAGIC,
    TRACE_VERSION,
};
// [`TraceReplay::new`] takes a `Bytes` buffer; re-export the type so
// downstream users don't need a direct dependency on the `bytes` crate.
pub use bytes::Bytes;
