//! Error type shared across the simulator.

use crate::addr::{PageSize, TierId, VirtPage};
use std::fmt;

/// Result alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

/// Errors surfaced by machine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A tier has no free frame of the requested size.
    OutOfMemory {
        /// The tier that could not satisfy the allocation.
        tier: TierId,
        /// The requested frame size.
        size: PageSize,
    },
    /// No tier could satisfy an allocation (machine-wide OOM).
    GlobalOutOfMemory,
    /// The virtual page is not mapped.
    NotMapped(VirtPage),
    /// The virtual page is already mapped.
    AlreadyMapped(VirtPage),
    /// The operation expected a huge mapping but found a base mapping (or
    /// vice versa).
    WrongPageSize {
        /// The page the operation targeted.
        vpage: VirtPage,
        /// The size the operation expected.
        expected: PageSize,
    },
    /// A huge-page operation was attempted on a non-2 MiB-aligned page.
    Unaligned(VirtPage),
    /// Migration target equals the current tier.
    SameTier(TierId),
    /// The migration admission queue is full; retry after the engine drains.
    QueueFull,
    /// The page already has an in-flight (or queued) transfer covering it.
    InFlight(VirtPage),
    /// Anti-thrashing hysteresis is backing off re-promotion of this
    /// page's region after a promote→demote→promote ping-pong. Back-
    /// pressure, not an error.
    PromotionBackoff(VirtPage),
    /// An internal invariant did not hold (state structures disagreed).
    /// Surfaced instead of panicking so long-running services can reject
    /// the operation and keep serving.
    Internal(&'static str),
    /// A snapshot could not be decoded or did not match this simulation.
    Snapshot(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { tier, size } => {
                write!(f, "{tier} out of memory for a {size} frame")
            }
            SimError::GlobalOutOfMemory => write!(f, "no tier can satisfy the allocation"),
            SimError::NotMapped(p) => write!(f, "{p} is not mapped"),
            SimError::AlreadyMapped(p) => write!(f, "{p} is already mapped"),
            SimError::WrongPageSize { vpage, expected } => {
                write!(f, "{vpage} is not mapped as a {expected} page")
            }
            SimError::Unaligned(p) => write!(f, "{p} is not 2MiB-aligned"),
            SimError::SameTier(t) => write!(f, "page already resides on {t}"),
            SimError::QueueFull => write!(f, "migration admission queue is full"),
            SimError::InFlight(p) => write!(f, "{p} already has an in-flight transfer"),
            SimError::PromotionBackoff(p) => {
                write!(f, "{p} re-promotion backed off by hysteresis")
            }
            SimError::Internal(what) => write!(f, "internal invariant violated: {what}"),
            SimError::Snapshot(what) => write!(f, "snapshot error: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<memtis_obs::SnapError> for SimError {
    fn from(e: memtis_obs::SnapError) -> Self {
        SimError::Snapshot(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfMemory {
            tier: TierId::FAST,
            size: PageSize::Huge,
        };
        assert!(e.to_string().contains("tier0"));
        assert!(e.to_string().contains("2MiB"));
        assert!(SimError::NotMapped(VirtPage(4))
            .to_string()
            .contains("vpn0x4"));
    }
}
