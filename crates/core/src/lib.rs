//! # memtis-core — the MEMTIS tiering policy
//!
//! Faithful reimplementation of MEMTIS (SOSP '23) over the simulated
//! machine substrate:
//!
//! - [`histogram`] — the 16-bin exponential page-access histogram (§4.1.3)
//!   whose cooling is a one-bin shift.
//! - [`threshold`] — dynamic hot/warm/cold threshold adaptation, the paper's
//!   Algorithm 1 (§4.2.1).
//! - [`meta`] — per-page EMA access counts and per-subpage counters (§4.1.2),
//!   including the skewness factor (eq. 3).
//! - [`regions`] — the huge-page-region-indexed dense metadata table the
//!   policy stores [`meta::PageMeta`] in; cooling and skewness selection
//!   scan it contiguously.
//! - [`policy`] — the policy proper: `ksampled` sample processing with the
//!   dynamically throttled PEBS period (§4.1.1), periodic cooling (§4.2.2),
//!   background promotion/demotion with the warm set (§4.2.3), and
//!   skewness-aware huge-page split driven by the eHR−rHR benefit estimate
//!   (§4.3).
//! - [`config`] — every paper constant in one tunable struct, with ablation
//!   helpers (`without_split`, `vanilla`) used by the Fig. 10/11 benches.

#![forbid(unsafe_code)]

pub mod config;
pub mod histogram;
pub mod meta;
pub mod policy;
pub mod regions;
pub mod threshold;

pub use config::MemtisConfig;
pub use histogram::{bin_of, AccessHistogram, MAX_BIN, NUM_BINS};
pub use meta::{PageMeta, SubMeta};
pub use policy::{MemtisPolicy, MemtisStats};
pub use regions::RegionTable;
pub use threshold::{adapt, Thresholds};
