//! # memtis-tracking — memory-access tracking substrates
//!
//! Every tracking mechanism the MEMTIS paper surveys (§2.1), rebuilt over
//! the simulated machine:
//!
//! - [`pebs`] — hardware event-based sampling (Intel PEBS): exact addresses,
//!   subpage resolution, CPU cost proportional to the sampling rate, plus
//!   the dynamic period controller MEMTIS uses to bound that cost.
//! - [`ptscan`] — page-table scanning: harvest-and-clear of accessed bits,
//!   one recency bit per scan, cost proportional to mapped entries.
//! - [`hintfault`] — AutoNUMA-style hint faults: rotating-window protection
//!   faults that hit the application's critical path.
//! - [`damon`] — DAMON region-based monitoring with region split/merge (for
//!   reproducing the paper's Figure 1 trade-off analysis).
//! - [`lru2q`] — active/inactive LRU lists (the TPP substrate).

#![forbid(unsafe_code)]

pub mod damon;
pub mod hintfault;
pub mod lru2q;
pub mod pebs;
pub mod ptscan;

pub use damon::{Damon, DamonConfig, RegionSnapshot};
pub use hintfault::HintFaultSampler;
pub use lru2q::Lru2Q;
pub use pebs::{PebsSample, PebsSampler, PebsSnapshot, PeriodAdjust, PeriodController};
pub use ptscan::{scan_and_clear, ScanRecord};
