//! Address-space sharding: lane-partitioned bursts with deterministic merges.
//!
//! A single simulation is partitioned into [`NUM_LANES`] fixed *lanes* by
//! 2 MiB virtual region (`lane = region_index mod 64`), each lane owning a
//! slice of the TLB and LLC (see [`LaneState`]). During the *lane phase* of
//! a burst the coordinator runs every lane's access subsequence in turn
//! ([`run_lanes`]); it then folds the per-lane results back in original
//! stream order. `--shards S` groups the lanes into `S` contiguous chunks,
//! which only sets the per-shard load split that the driver's
//! critical-path model (`ShardMetrics::projected_ns`) reads.
//!
//! Determinism across shard counts is by construction: a lane's trajectory
//! is a pure function of (its access subsequence, the page-table snapshot at
//! burst start) — so `--shards 1` and `--shards N` produce byte-identical
//! reports, traces, and window series. The lane phase is read-only with
//! respect to shared state: lanes translate through `&PageTable` (no
//! walk-cache use), read static tier frame ranges, and buffer their
//! page-table reference-bit updates as [`DeferredBits`] which the
//! coordinator ORs in (idempotent, lane order) before any serial work.
//! Everything effectful — policy delivery, migrations, faults, allocation,
//! the migration engine — runs at burst barriers.

use crate::access::{Access, AccessOutcome, AccessRecord, RecordFilter};
use crate::addr::{PageSize, VirtPage};
use crate::cache::Llc;
use crate::config::{MachineConfig, TlbSpec};
use crate::machine::{price_access, Machine, MappingMemo};
use crate::page_table::{EntryMut, PageTable};
use crate::tier::{tier_of, TierAllocator};
use crate::tlb::Tlb;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of address-space lanes. Fixed (not equal to the shard count) so
/// the partition — and with it every lane-local TLB/LLC trajectory — is
/// identical for every `--shards` value; shards are merely groupings of
/// lanes.
pub const NUM_LANES: usize = 64;

/// `NR_SUBPAGES / 64`: words in a huge page's subpage-written bitmap.
const SUBPAGE_WORDS: usize = (crate::addr::NR_SUBPAGES as usize) / 64;

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

/// Page-table reference-bit updates a lane buffered during the read-only
/// lane phase. All fields are OR-only (idempotent and commutative), so
/// applying them in fixed lane order at the barrier yields page-table state
/// independent of shard count.
#[derive(Debug, Clone)]
struct DeferredBits {
    /// The mapping's key page: the base page itself, or the huge-aligned
    /// page of a huge mapping.
    key: VirtPage,
    /// Whether any buffered access was a store (dirty / ever-written bits).
    wrote: bool,
    /// For huge mappings: which subpages were stored to.
    sub_written: [u64; SUBPAGE_WORDS],
}

/// Ways in the lane-local mapping memo. Within a lane, consecutive regions
/// differ by multiples of [`NUM_LANES`] in region index, so the slot divides
/// that stride out first.
const MEMO_WAYS: usize = 4;

#[inline]
fn memo_slot(vpage: VirtPage) -> usize {
    ((vpage.0 as usize >> 9) / NUM_LANES) & (MEMO_WAYS - 1)
}

/// Mergeable per-lane bookkeeping a lane accumulates while executing its
/// subsequence: the per-access stats and clock contributions of the
/// accesses it executed. Integer counters are commutative sums; `lat_sum`
/// is accumulated in lane-local order and merged across lanes with
/// [`crate::util::tree_fold_f64`], so every merge is a pure function of the
/// (shard-count-invariant) lane partition.
#[derive(Debug, Default, Clone)]
pub struct LaneFold {
    /// Loads executed by this lane.
    pub loads: u64,
    /// Stores executed by this lane.
    pub stores: u64,
    /// LLC-missing accesses served per tier (index = tier id; one slot
    /// per machine tier).
    pub tier_hits: Vec<u64>,
    /// Sum of executed-access latencies, in lane-local order.
    pub lat_sum: f64,
}

/// Per-lane, per-burst working storage: the lane's slice of the burst's
/// accesses, the outcomes its executor precomputed, the page-table bit
/// updates it buffered, and the mergeable fold partials. Reused across
/// bursts to avoid reallocation.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// This lane's accesses, in stream order.
    accesses: Vec<Access>,
    /// Burst-local stream index of each access (position in the original
    /// access prefix), parallel to `accesses`. The stream-order record
    /// merge at the barrier keys on these.
    stream_idx: Vec<u32>,
    /// Lane-local indices the coordinator pre-rolled as flight-recorder
    /// demand samples during partitioning (ascending).
    sampled: Vec<u32>,
    /// Precomputed outcomes for a prefix of `accesses`. Shorter than
    /// `accesses` iff the lane stopped (hint-armed or unmapped page); the
    /// remainder spills to the coordinator's serial path after the fold.
    outcomes: Vec<AccessOutcome>,
    /// Lane-local indices of executed accesses in a class the burst's
    /// record program counts (ascending; always within the outcome
    /// prefix): the candidates the program runs over once merged.
    kept: Vec<u32>,
    /// Mergeable stats/clock partials for the executed prefix.
    fold: LaneFold,
    /// Buffered page-table bit updates, in memoization order.
    bits: Vec<DeferredBits>,
    /// Lane-local mapping memo, each way beside the index of its mapping's
    /// [`DeferredBits`] entry.
    memo: [Option<(MappingMemo, usize)>; MEMO_WAYS],
}

impl LaneScratch {
    /// Queues one access for this lane (Phase A partitioning). `stream_idx`
    /// is the access's position in the burst's access prefix; `sampled` is
    /// the coordinator's pre-rolled flight-recorder sampling decision for
    /// that position.
    #[inline]
    pub fn push(&mut self, access: Access, stream_idx: u32, sampled: bool) {
        if sampled {
            self.sampled.push(self.accesses.len() as u32);
        }
        self.accesses.push(access);
        self.stream_idx.push(stream_idx);
    }

    /// Number of precomputed outcomes (the committed prefix).
    #[inline]
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// The `idx`-th precomputed outcome.
    #[inline]
    pub fn outcome(&self, idx: usize) -> AccessOutcome {
        self.outcomes[idx]
    }

    /// Burst-local stream indices of the accesses this lane did not execute
    /// (it stopped at an unmapped or hint-armed page), ascending.
    #[inline]
    pub fn unexecuted(&self) -> &[u32] {
        &self.stream_idx[self.outcomes.len()..]
    }

    /// Pre-rolled flight-sample lane-local indices (ascending).
    #[inline]
    pub fn sampled(&self) -> &[u32] {
        &self.sampled
    }

    /// This lane's mergeable fold partials for the burst.
    #[inline]
    pub fn fold(&self) -> &LaneFold {
        &self.fold
    }

    /// Resets the scratch for a new burst.
    pub fn reset(&mut self) {
        self.accesses.clear();
        self.stream_idx.clear();
        self.sampled.clear();
        self.outcomes.clear();
        self.kept.clear();
        self.fold.loads = 0;
        self.fold.stores = 0;
        self.fold.lat_sum = 0.0;
        self.fold.tier_hits.fill(0);
        self.bits.clear();
        self.memo = [None; MEMO_WAYS];
    }
}

/// Executes one lane's access subsequence against the burst-start
/// page-table snapshot, precomputing outcomes, buffering bit updates, and
/// accumulating the lane's mergeable [`LaneFold`] partials plus the
/// indices of record candidates. Stops (leaving the rest of the lane to spill)
/// at the first access whose page is unmapped or hint-armed — those need
/// coordinator-side effects.
fn run_lane(
    pt: &PageTable,
    tiers: &[TierAllocator],
    cfg: &MachineConfig,
    filter: RecordFilter,
    lane: &mut LaneState,
    sc: &mut LaneScratch,
) {
    sc.fold.tier_hits.resize(tiers.len(), 0);
    for k in 0..sc.accesses.len() {
        let access = sc.accesses[k];
        let vpage = access.vaddr.base_page();
        let is_store = access.is_store();
        let slot = memo_slot(vpage);

        let hit = sc.memo[slot].and_then(|(m, b)| Some((m.frame_of(vpage)?, b)));
        let (frame, bits_idx) = match hit {
            Some(hit) => hit,
            None => {
                let Some(tr) = pt.translate(vpage) else {
                    // Unmapped: the access demand-faults; the coordinator
                    // replays it (and the rest of this lane) serially.
                    return;
                };
                if tr.hint {
                    // Hint-armed: the fault runs policy hooks; spill.
                    return;
                }
                let memo = MappingMemo::new(vpage, tr.frame, tr.size, tier_of(tiers, tr.frame));
                let bits_idx = sc.bits.len();
                sc.bits.push(DeferredBits {
                    key: memo.key,
                    wrote: false,
                    sub_written: [0; SUBPAGE_WORDS],
                });
                sc.memo[slot] = Some((memo, bits_idx));
                (tr.frame, bits_idx)
            }
        };
        let (memo, _) = sc.memo[slot].as_mut().expect("memo just ensured");
        let (size, tier) = (memo.size, memo.tier);

        if is_store {
            let b = &mut sc.bits[bits_idx];
            b.wrote = true;
            if size == PageSize::Huge {
                let idx = vpage.subpage_index();
                b.sub_written[idx / 64] |= 1 << (idx % 64);
            }
        }

        // No migration-link contention term: the sharded path only engages
        // with the engine disabled (unlimited bandwidth), where it never
        // fires.
        let (latency, tlb_hit, llc_hit) = price_access(
            &mut lane.tlb,
            &mut lane.llc,
            &cfg.costs,
            cfg.tier(tier),
            &mut memo.tlb_way,
            vpage,
            size,
            frame,
            access.vaddr.base_offset(),
            is_store,
            0.0,
        );

        if filter.counts(RecordFilter::class_of(access.kind, !llc_hit)) {
            sc.kept.push(k as u32);
        }
        if !llc_hit {
            sc.fold.tier_hits[tier.0 as usize] += 1;
        }
        if is_store {
            sc.fold.stores += 1;
        } else {
            sc.fold.loads += 1;
        }
        sc.fold.lat_sum += latency;

        sc.outcomes.push(AccessOutcome {
            latency_ns: latency,
            vpage,
            page_size: size,
            tier,
            llc_miss: !llc_hit,
            tlb_miss: !tlb_hit,
            hint_fault: false,
            demand_fault: false,
        });
    }
}

/// Runs the lane phase of one burst on the calling thread: every lane's
/// queued accesses execute against the burst-start page table, in lane
/// order. Lane results depend only on the lane partition, so this is also
/// what any grouping of lanes into shards would produce.
pub(crate) fn run_lanes(machine: &mut Machine, scratch: &mut [LaneScratch], filter: RecordFilter) {
    let lanes = machine
        .lanes
        .as_mut()
        .expect("sharded burst requires enabled lanes");
    debug_assert_eq!(lanes.len(), NUM_LANES);
    debug_assert_eq!(scratch.len(), NUM_LANES);
    for (lane, sc) in lanes.iter_mut().zip(scratch.iter_mut()) {
        run_lane(&machine.pt, &machine.tiers, &machine.cfg, filter, lane, sc);
    }
}

/// Streams every lane's kept candidate records back into original stream
/// order — the order the record program counts in — through a
/// [`NUM_LANES`]-way tournament merge over per-lane cursors,
/// keyed on the burst-local stream index. Within a lane the kept list is
/// already ascending in stream index (partitioning preserves stream
/// order), so the heap holds at most one candidate per lane and the merge
/// costs `O(kept · log lanes)` — proportional to the candidates, where the
/// old coordinator fold walked every access. Each
/// record is stamped `now_ns` (the burst-start wall clock; see the fold
/// notes on `Simulation::run_sharded_burst`).
pub(crate) fn merge_records(
    scratch: &[LaneScratch],
    now_ns: f64,
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
    out: &mut Vec<AccessRecord>,
) {
    heap.clear();
    let mut cursors = [0usize; NUM_LANES];
    for (lane, sc) in scratch.iter().enumerate() {
        if let Some(&k) = sc.kept.first() {
            heap.push(Reverse((sc.stream_idx[k as usize], lane as u32)));
        }
    }
    while let Some(Reverse((_, lane))) = heap.pop() {
        let l = lane as usize;
        let sc = &scratch[l];
        let k = sc.kept[cursors[l]] as usize;
        out.push(AccessRecord {
            access: sc.accesses[k],
            outcome: sc.outcomes[k],
            now_ns,
        });
        cursors[l] += 1;
        if let Some(&kn) = sc.kept.get(cursors[l]) {
            heap.push(Reverse((sc.stream_idx[kn as usize], lane)));
        }
    }
}

/// Applies every lane's buffered page-table bit updates, in lane order then
/// buffer order. Must run after the lane phase and before any serial
/// spill work, so spilled accesses observe the same reference bits the
/// per-event path would have left. OR-only, hence shard-count-invariant.
pub fn apply_deferred_bits(machine: &mut Machine, scratch: &mut [LaneScratch]) {
    for sc in scratch.iter_mut() {
        for b in sc.bits.drain(..) {
            match machine
                .pt
                .walk_mut(b.key)
                .expect("deferred mapping vanished mid-burst")
            {
                EntryMut::Base(p) => {
                    p.accessed = true;
                    if b.wrote {
                        p.dirty = true;
                        p.ever_written = true;
                    }
                }
                EntryMut::Huge(h) => {
                    h.accessed = true;
                    if b.wrote {
                        h.dirty = true;
                        for (w, mask) in b.sub_written.iter().enumerate() {
                            h.sub_written[w] |= mask;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{TierId, HUGE_PAGE_SIZE};

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

    /// A mixed load/store burst over four huge regions, partitioned with
    /// stream indices (as the driver does).
    fn test_burst() -> (Machine, Vec<Access>) {
        let mut m = Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            16 * HUGE_PAGE_SIZE,
        ));
        m.enable_lanes();
        for r in 0..4u64 {
            m.alloc_and_map(VirtPage(r * 512), PageSize::Huge, TierId::FAST)
                .unwrap();
        }
        let accesses: Vec<Access> = (0..2000u64)
            .map(|i| {
                let addr = (i * 37) % (4 * HUGE_PAGE_SIZE);
                if i.is_multiple_of(5) {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        (m, accesses)
    }

    /// Resets `scratch` and partitions `accesses` into it.
    fn partition(scratch: &mut [LaneScratch], accesses: &[Access]) {
        for sc in scratch.iter_mut() {
            sc.reset();
        }
        for (i, &a) in accesses.iter().enumerate() {
            scratch[lane_of(a.vaddr.base_page())].push(a, i as u32, false);
        }
    }

    fn new_scratch() -> Vec<LaneScratch> {
        (0..NUM_LANES).map(|_| LaneScratch::default()).collect()
    }

    /// The tournament merge reconstructs exact stream order over the kept
    /// records, which are exactly the program's counted classes.
    #[test]
    fn merge_records_restores_stream_order() {
        let filter = RecordFilter {
            next: [RecordFilter::OFF, 1, 1],
            period: [RecordFilter::OFF, 1, 1],
            cap: usize::MAX,
        };
        let (mut m, accesses) = test_burst();
        let mut scratch = new_scratch();
        partition(&mut scratch, &accesses);
        run_lanes(&mut m, &mut scratch, filter);
        // Clean burst: every lane ran to completion.
        assert!(scratch.iter().all(|sc| sc.unexecuted().is_empty()));
        let mut heap = BinaryHeap::new();
        let mut out = Vec::new();
        merge_records(&scratch, 42.0, &mut heap, &mut out);
        // Oracle: walk the stream and keep what the lanes kept.
        let mut expect = Vec::new();
        let mut cursors = [0usize; NUM_LANES];
        for &a in &accesses {
            let lane = lane_of(a.vaddr.base_page());
            let o = scratch[lane].outcome(cursors[lane]);
            cursors[lane] += 1;
            if filter.counts(RecordFilter::class_of(a.kind, o.llc_miss)) {
                expect.push((a, o));
            }
        }
        assert_eq!(out.len(), expect.len());
        assert!(!out.is_empty(), "test burst must keep some records");
        for (got, (a, o)) in out.iter().zip(&expect) {
            assert_eq!(got.access, *a);
            assert_eq!(format!("{:?}", got.outcome), format!("{o:?}"));
            assert_eq!(got.now_ns, 42.0);
        }
    }
}
