//! # memtis-baselines — the comparison tiering systems
//!
//! Policy re-implementations of every system the MEMTIS paper compares
//! against (§6.1) plus the static references, each reproducing the decision
//! rules the paper's Table 1 taxonomy attributes to it:
//!
//! | policy | tracking | promotion rule | demotion rule | critical path |
//! |---|---|---|---|---|
//! | [`StaticPolicy`] | none | — | — | none |
//! | [`AutoNumaPolicy`] | hint faults | 1st fault | none | promotion |
//! | [`AutoTieringPolicy`] | hint faults + history | static count | LFU | promotion |
//! | [`Tiering08Policy`] | hint faults | re-fault interval (rate-adaptive) | recency | promotion |
//! | [`TppPolicy`] | hint faults + 2Q | 2nd fault | inactive LRU | promotion |
//! | [`NimblePolicy`] | PT scan | accessed last scan | not accessed | none |
//! | [`HememPolicy`] | PEBS (static period) | static count | static count | none |
//!
//! ## Observability
//!
//! Every baseline routes its migrations, splits, and collapses through
//! [`PolicyOps`](memtis_sim::prelude::PolicyOps), which emits the shared
//! trace events (`Promotion`, `Demotion`, `TlbShootdown`, `MigrationFailed`,
//! …) whenever an observer is attached to the simulation. None of the
//! baselines needs policy-specific instrumentation: the default
//! `TieringPolicy` surface (empty `timeline`/`histogram_bins`) plus the
//! `PolicyOps` emission points give them the full event stream and windowed
//! telemetry for free.

#![forbid(unsafe_code)]

pub mod autonuma;
pub mod autotiering;
pub mod hemem;
pub mod nimble;
pub mod static_;
pub mod tiering08;
pub mod tpp;

pub use autonuma::{AutoNumaConfig, AutoNumaPolicy};
pub use autotiering::{AutoTieringConfig, AutoTieringPolicy};
pub use hemem::{HememConfig, HememPolicy};
pub use nimble::{NimbleConfig, NimblePolicy};
pub use static_::StaticPolicy;
pub use tiering08::{Tiering08Config, Tiering08Policy};
pub use tpp::{TppConfig, TppPolicy};
