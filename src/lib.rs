//! # memtis-repro — facade crate
//!
//! Re-exports the full MEMTIS (SOSP '23) reproduction stack. See the
//! individual crates for details:
//!
//! - [`sim`] — the simulated tiered-memory machine substrate.
//! - [`tracking`] — access-tracking substrates (PEBS, PT scan, hint faults,
//!   DAMON, 2Q LRU).
//! - [`workloads`] — synthetic access-stream generators for the eight paper
//!   benchmarks.
//! - [`memtis`] — the MEMTIS policy itself.
//! - [`baselines`] — the six comparison systems plus static baselines.
//! - [`runtime`] — real-thread background daemons (`ksampled`/`kmigrated`).
//! - [`obs`] — event tracing, counters/gauges, windowed telemetry, and
//!   trace exporters.

#![forbid(unsafe_code)]

pub use memtis_baselines as baselines;
pub use memtis_core as memtis;
pub use memtis_obs as obs;
pub use memtis_runtime as runtime;
pub use memtis_sim as sim;
pub use memtis_tracking as tracking;
pub use memtis_workloads as workloads;
