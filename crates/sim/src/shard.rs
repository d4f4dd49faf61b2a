//! Address-space lanes: the fixed map from 2 MiB regions to TLB/LLC
//! slices that a sharded run routes every access through.
//!
//! A sharded simulation splits the TLB and LLC into [`NUM_LANES`] fixed
//! *lanes* by 2 MiB virtual region ([`lane_of`]), each lane owning one slice
//! ([`LaneState`]). A sharded burst ([`Machine::access_lanes`]) runs in
//! stream order, and each access's TLB and LLC traffic goes to its lane's
//! slices, so a lane's microarchitectural state depends only on its own
//! access subsequence. An access to an unmapped or hint-armed page stops
//! its lane for the rest of the burst, and everything effectful — policy
//! delivery, faults, migrations, allocation — runs at the burst barrier.
//! `--shards S` groups the lanes into `S` contiguous chunks, which only
//! sets the per-shard load split that the driver's critical-path model
//! (`ShardMetrics::projected_ns`) reads.
//!
//! Determinism across shard counts is by construction: nothing the burst
//! computes depends on the grouping — the lane latency sums fold in a
//! fixed shape, and a lane stops on its own accesses only — so
//! `--shards 1` and `--shards N` produce byte-identical reports, traces,
//! and window series.
//!
//! [`Machine::access_lanes`]: crate::machine::Machine::access_lanes

use crate::addr::VirtPage;
use crate::cache::Llc;
use crate::config::{MachineConfig, TlbSpec};
use crate::tlb::Tlb;

/// Number of address-space lanes. Fixed (not equal to the shard count) so
/// the lane map — and with it every lane-local TLB/LLC trajectory — is
/// identical for every `--shards` value; shards are merely groupings of
/// lanes.
pub const NUM_LANES: usize = 64;

/// The lane owning `vpage`: its 2 MiB region index reduced modulo
/// [`NUM_LANES`], then bit-reversed (6 bits). A huge page maps entirely to
/// one lane (region == huge page), so a lane never shares a mapping with
/// another lane. The bit-reversal spreads *contiguous* regions across every
/// contiguous lane grouping — shards take lanes in contiguous chunks, so a
/// small-footprint workload touching regions `0..R` still loads all shards
/// instead of piling into shard 0.
#[inline]
pub fn lane_of(vpage: VirtPage) -> usize {
    (((vpage.0 >> 9) & (NUM_LANES as u64 - 1)).reverse_bits() >> (64 - NUM_LANES.trailing_zeros()))
        as usize
}

/// Per-lane slice of the machine's stateful microarchitectural models. When
/// lanes are enabled the TLB and LLC capacities are divided evenly across
/// the 64 lanes, so total modeled capacity is preserved while each lane's
/// state depends only on its own access subsequence.
#[derive(Debug)]
pub struct LaneState {
    /// This lane's TLB slice.
    pub tlb: Tlb,
    /// This lane's LLC slice.
    pub llc: Llc,
}

memtis_obs::snap_struct!(in LaneState { @in tlb, @in llc });

/// Builds the 64 lane slices for a machine configuration: per-lane TLB
/// geometry is `entries / 64` (ways preserved, clamped by the TLB array),
/// per-lane LLC capacity is `llc_bytes / 64` (min one line).
pub(crate) fn build_lanes(cfg: &MachineConfig) -> Vec<LaneState> {
    let lane_spec = TlbSpec {
        base_entries: (cfg.tlb.base_entries / NUM_LANES).max(1),
        huge_entries: (cfg.tlb.huge_entries / NUM_LANES).max(1),
        ways: cfg.tlb.ways,
    };
    let lane_llc_bytes = (cfg.llc_bytes / NUM_LANES as u64).max(crate::addr::CACHE_LINE_SIZE);
    (0..NUM_LANES)
        .map(|_| LaneState {
            tlb: Tlb::new(&lane_spec),
            llc: Llc::new(lane_llc_bytes),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_assignment_is_per_region_and_stable() {
        // All subpages of one huge page land in one lane.
        let lane = lane_of(VirtPage(512 * 7));
        for i in 0..512u64 {
            assert_eq!(lane_of(VirtPage(512 * 7 + i)), lane);
        }
        // The mapping is a bijection over any 64 consecutive regions, and
        // adjacent regions land in *distant* lanes (bit-reversal), so every
        // contiguous lane grouping sees a share of a contiguous footprint.
        let lanes: std::collections::BTreeSet<usize> =
            (0..64u64).map(|r| lane_of(VirtPage(r * 512))).collect();
        assert_eq!(lanes.len(), NUM_LANES);
        assert_eq!(lane_of(VirtPage(0)), 0);
        assert_eq!(lane_of(VirtPage(512)), 32);
        assert_eq!(lane_of(VirtPage(2 * 512)), 16);
        assert_eq!(lane_of(VirtPage(3 * 512)), 48);
        assert_eq!(lane_of(VirtPage(512 * 64)), 0);
    }
}
