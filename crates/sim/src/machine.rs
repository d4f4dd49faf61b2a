//! The simulated tiered-memory machine.
//!
//! [`Machine`] owns the per-tier frame allocators, the page table, the TLB,
//! and the LLC, and executes individual accesses with a full cost breakdown:
//! translation (TLB hit, or a 3-/4-level walk), cache (LLC hit), and memory
//! (tier load/store latency on an LLC miss). It also exposes the mutating
//! operations tiering policies perform — migration, huge-page split/collapse,
//! NUMA-hint arming — each returning the nanosecond cost the caller must
//! attribute to either the application critical path or a background daemon.

use crate::access::{Access, AccessOutcome, AccessRecord, RecordFilter, ACCESS_CLASSES};
use crate::addr::{Frame, PageSize, PhysAddr, TierId, VirtPage, BASE_PAGE_SIZE, NR_SUBPAGES};
use crate::cache::Llc;
use crate::config::{CostModel, MachineConfig, TierSpec};
use crate::engine::{
    AbortCause, EngineEvent, MigrationEngine, MigrationHandle, PumpOutcome, Transfer, TransferEnd,
    TransferId,
};
use crate::error::{SimError, SimResult};
use crate::faults::{FaultCounters, FaultInjector, FaultPlan, FaultRecord, MACHINE_FAULT_SALT};
use crate::modes::ModeState;
use crate::page_table::{EntryMut, PageTable, Translation};
use crate::shard::{lane_of, LaneState, NUM_LANES};
use crate::stats::MachineStats;
use crate::tier::{tier_of, TierAllocator};
use crate::tlb::Tlb;
use crate::util::tree_fold_f64;
use memtis_obs::{FaultKind, FlightRecorder};

/// Per-PTE update cost during a split or collapse (ns).
const PTE_UPDATE_NS: f64 = 15.0;

/// Outcome of a huge-page split.
#[derive(Debug, Clone, Copy)]
pub struct SplitOutcome {
    /// Never-written subpages that were unmapped and freed.
    pub zero_subpages_freed: u32,
    /// Cost of the operation (ns).
    pub cost_ns: f64,
}

/// Outcome of a migration or collapse.
#[derive(Debug, Clone, Copy)]
pub struct MigrateOutcome {
    /// Cost of the operation (ns), dominated by the data copy.
    pub cost_ns: f64,
    /// Tier the page came from.
    pub from: TierId,
    /// Tier the page now resides on.
    pub to: TierId,
    /// Bytes copied by the operation.
    pub bytes: u64,
}

/// Driver clock state threaded through [`Machine::access_batch`] so the
/// machine can fold wall-clock accumulation into the chunk loop with the
/// exact arithmetic the per-event driver uses.
#[derive(Debug, Clone, Copy)]
pub struct BatchClock {
    /// Simulated wall-clock time (ns); advanced by `latency / threads` per
    /// access, bitwise-identical to the per-event loop's quiet-mode update.
    pub wall_ns: f64,
    /// Cumulative application access time (ns); advanced by raw latency.
    pub app_access_ns: f64,
    /// Application thread count (the per-access wall divisor).
    pub threads: f64,
    /// The batch stops as soon as `wall_ns` reaches this (the driver's next
    /// tick or daemon-contention stretch boundary, or the end of the soonest
    /// active copy pass), so no timer or transfer can fire mid-burst.
    pub stop_wall_ns: f64,
}

/// Why [`Machine::access_batch`] stopped consuming its slice.
#[derive(Debug, Clone, Copy)]
pub enum BatchStop {
    /// The slice was exhausted, or the clock reached `stop_wall_ns`; every
    /// consumed access was recorded.
    Clean,
    /// The access at index `consumed` took a NUMA-hint fault. It *executed*
    /// (its outcome is carried here) but was not recorded or clocked — the
    /// driver replays the legacy hint tail (policy hooks, fault-work
    /// accounting) for it.
    Hint(AccessOutcome),
    /// The access at index `consumed` hit an unmapped page and had no side
    /// effects; the driver demand-faults it through the per-event path.
    NotMapped,
}

/// One resolved mapping, memoized so later accesses to it skip the page
/// walk and tier lookup. The batched and sharded bursts keep these through
/// [`Machine::access_coalesced`].
#[derive(Debug, Clone, Copy)]
struct MappingMemo {
    /// Base vpage of the mapping (huge-aligned for a huge mapping).
    key: VirtPage,
    /// Frame of `key` (first subpage frame for a huge mapping).
    base_frame: Frame,
    size: PageSize,
    tier: TierId,
    /// TLB way the translation is resident in plus the [`Tlb::epoch`] that
    /// located it, once an access has looked it up; later accesses at the
    /// same epoch replay the hit without re-scanning the set.
    tlb_way: Option<(usize, u64)>,
}

impl MappingMemo {
    /// Memo of a resolved translation: `frame` backs `vpage` itself (for a
    /// huge mapping, its subpage frame).
    #[inline]
    fn new(vpage: VirtPage, frame: Frame, size: PageSize, tier: TierId) -> Self {
        let (key, base_frame) = match size {
            PageSize::Base => (vpage, frame),
            PageSize::Huge => (
                vpage.huge_aligned(),
                Frame(frame.0 - vpage.subpage_index() as u64),
            ),
        };
        MappingMemo {
            key,
            base_frame,
            size,
            tier,
            tlb_way: None,
        }
    }

    /// The frame backing `vpage`, if `vpage` lies in this mapping. A huge
    /// mapping's subpage frames are contiguous from its base frame.
    #[inline]
    fn frame_of(&self, vpage: VirtPage) -> Option<Frame> {
        match self.size {
            PageSize::Base => (self.key == vpage).then_some(self.base_frame),
            PageSize::Huge => (self.key == vpage.huge_aligned())
                .then(|| self.base_frame.add(vpage.subpage_index() as u64)),
        }
    }
}

/// Prices one access to a resolved mapping and returns
/// `(latency, tlb_hit, llc_hit)`. Adds to `latency`, in this order: the
/// walk on a TLB miss (the probe replays the memoized `tlb_way` while the
/// TLB epoch is unchanged, and a miss inserts the translation), then the
/// LLC-hit cost or, on an LLC miss, the tier's load or store latency.
///
/// The one copy of the translation/cache/memory cost sequence: every access
/// path except [`Machine::access_reference`] (which keeps its own copy as
/// the oracle) reaches it through [`Machine::charge_access`], which routes
/// the TLB and LLC to the access's lane on a sharded run.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn price_access(
    tlb: &mut Tlb,
    llc: &mut Llc,
    costs: &CostModel,
    spec: &TierSpec,
    tlb_way: &mut Option<(usize, u64)>,
    vpage: VirtPage,
    size: PageSize,
    frame: Frame,
    offset: u64,
    is_store: bool,
    mut latency: f64,
) -> (f64, bool, bool) {
    let tlb_hit = match *tlb_way {
        Some((way, epoch)) if epoch == tlb.epoch() => {
            tlb.touch_hit(size, way);
            true
        }
        _ => {
            let way = tlb.lookup_memo(vpage, size);
            *tlb_way = way.map(|w| (w, tlb.epoch()));
            way.is_some()
        }
    };
    if !tlb_hit {
        latency += size.walk_levels() as f64 * costs.walk_level_ns;
        tlb.insert(vpage, size);
    }
    let llc_hit = llc.access(PhysAddr(frame.addr().0 + offset));
    latency += if llc_hit {
        costs.llc_hit_ns
    } else if is_store {
        spec.store_ns
    } else {
        spec.load_ns
    };
    (latency, tlb_hit, llc_hit)
}

/// Per-burst mapping memo for [`Machine::access_coalesced`]: a small
/// direct-mapped cache over 2 MiB virtual regions, so workloads that
/// interleave a handful of concurrently-advancing region cursors (each
/// staying inside one huge page for hundreds of its accesses) coalesce as
/// well as strictly consecutive same-page runs do. Collisions simply evict —
/// this is a pure performance memo; the evicted mapping re-resolves through
/// the full path.
#[derive(Default)]
struct CoalesceCache {
    ways: [Option<MappingMemo>; Self::WAYS],
}

impl CoalesceCache {
    /// Power of two; roms interleaves 4 weighted regions, and a little slack
    /// keeps unrelated scans from thrashing them.
    const WAYS: usize = 8;

    /// Slot for the 2 MiB virtual region containing `vpage`.
    #[inline]
    fn slot(vpage: VirtPage) -> usize {
        (vpage.0 as usize >> 9) & (Self::WAYS - 1)
    }
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    tiers: Vec<TierAllocator>,
    pt: PageTable,
    tlb: Tlb,
    llc: Llc,
    /// Per-lane TLB/LLC slices; `Some` iff sharded lane routing is enabled
    /// (see [`Machine::enable_lanes`]). While enabled, every access routes
    /// its TLB and LLC traffic through the lane owning its 2 MiB region and
    /// the monolithic `tlb`/`llc` above sit idle.
    lanes: Option<Vec<LaneState>>,
    engine: MigrationEngine,
    /// Installed fault injector (chaos runs only; `None` on normal runs).
    faults: Option<FaultInjector>,
    /// Flight-recorder latency histograms; `None` (no cost beyond one
    /// branch) unless an observer with the flight recorder is attached.
    flight: Option<Box<FlightRecorder>>,
    /// Demand-tap skip-sampler state (see [`FLIGHT_DEMAND_SAMPLE_MEAN`]):
    /// accesses left to skip before the next sample (`u64::MAX` while no
    /// recorder is attached), and the xorshift state drawing the next gap.
    /// Observer-side only — never feeds back into simulation results.
    flight_skip: u64,
    flight_rng: u64,
    /// Engine-mode state (shadow copies, hysteresis);
    /// `None` — one pointer test on the instrumented paths — unless at
    /// least one mode is configured on, so modes-off runs stay
    /// byte-identical to pre-mode builds.
    modes: Option<Box<ModeState>>,
    /// Events of each [`RecordFilter`] class the last batched burst
    /// counted (see [`Machine::batch_tally`]).
    batch_tally: [u64; ACCESS_CLASSES],
    /// Running counters.
    pub stats: MachineStats,
}

/// Routes to the TLB and LLC owning `vpage`: the lane slices when lanes
/// are enabled, the monolithic pair otherwise. A free function over
/// disjoint `Machine` fields so callers can keep `cfg`/`stats`/`tiers`
/// borrowed alongside.
#[inline]
fn route<'a>(
    lanes: &'a mut Option<Vec<LaneState>>,
    tlb: &'a mut Tlb,
    llc: &'a mut Llc,
    vpage: VirtPage,
) -> (&'a mut Tlb, &'a mut Llc) {
    match lanes {
        Some(ls) => {
            let lane = &mut ls[lane_of(vpage)];
            (&mut lane.tlb, &mut lane.llc)
        }
        None => (tlb, llc),
    }
}

/// Copy bandwidth of the migration link between `src` and `dst`: the
/// slower tier's copy bandwidth, capped by `cap` when given (the engine's
/// [`crate::config::MigrationConfig::bandwidth_limit`]).
fn link_bw(cfg: &MachineConfig, src: TierId, dst: TierId, cap: Option<f64>) -> f64 {
    let link = cfg
        .tier(src)
        .copy_bw_bytes_per_ns
        .min(cfg.tier(dst).copy_bw_bytes_per_ns);
    match cap {
        Some(cap) => link.min(cap),
        None => link,
    }
}

/// Mean inter-sample gap of the flight recorder's demand-latency tap.
///
/// Recording every access costs ~6-8% of the hot loop (the histogram index
/// plus three read-modify-writes per access dominate), far over the flight
/// recorder's ≤2% budget. MEMTIS itself profiles through sampled PEBS
/// events, so the tap follows the same discipline: deterministic
/// skip-sampling, with gaps drawn uniformly from
/// `[0, 2 * FLIGHT_DEMAND_SAMPLE_MEAN)` by a seeded xorshift — one sample
/// per ~16.5 accesses on average. Subsampling error on the reported
/// percentiles is negligible at bench scale (thousands of samples per
/// telemetry window), and the gap schedule depends only on access stream
/// order, so sharded and chunked runs record byte-identical histograms. Migration-side histograms (transfer, queue-wait,
/// abort-to-retry) stay exact: those events are orders of magnitude rarer.
pub const FLIGHT_DEMAND_SAMPLE_MEAN: u64 = 16;

/// Seed for the demand-tap gap sequence (the 64-bit golden ratio constant).
const FLIGHT_RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Machine {
    /// Builds a machine from the configuration. Tier frame ranges are laid
    /// out contiguously, fastest tier first.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut tiers = Vec::with_capacity(cfg.tiers.len());
        let mut next_frame = 0u64;
        for (i, spec) in cfg.tiers.iter().enumerate() {
            let alloc = TierAllocator::new(TierId(i as u8), next_frame, spec.usable_capacity());
            next_frame = alloc.frame_end();
            tiers.push(alloc);
        }
        let mut engine =
            MigrationEngine::new(cfg.migration.queue_depth, cfg.migration.max_recopies);
        // Shadow mode keeps the clean source copy, so a dirty pass aborts
        // immediately instead of burning a wasted re-copy pass.
        engine.set_txn_dirty_abort(cfg.migration.shadow);
        let modes = ModeState::from_config(&cfg.migration);
        Machine {
            tlb: Tlb::new(&cfg.tlb),
            llc: Llc::new(cfg.llc_bytes),
            tiers,
            pt: PageTable::new(),
            stats: MachineStats::default(),
            engine,
            faults: None,
            flight: None,
            flight_skip: u64::MAX,
            flight_rng: FLIGHT_RNG_SEED,
            lanes: None,
            modes,
            batch_tally: [0; ACCESS_CLASSES],
            cfg,
        }
    }

    /// Attaches the flight recorder: from now on demand accesses and
    /// migration lifecycle points feed its latency histograms. Idempotent.
    /// Never attached on untraced runs, so they stay byte-identical.
    pub fn attach_flight(&mut self) {
        if self.flight.is_none() {
            self.flight = Some(Box::default());
            self.flight_skip = 0;
        }
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_deref()
    }

    /// Whether the flight recorder is attached.
    pub fn flight_attached(&self) -> bool {
        self.flight.is_some()
    }

    /// Feeds one demand access to the flight recorder through the
    /// deterministic skip-sampler (see [`FLIGHT_DEMAND_SAMPLE_MEAN`]).
    /// Called from the machine's access paths, always in stream order, so
    /// every execution mode (chunk size, shard count) draws the identical
    /// sample schedule and records byte-identical histograms.
    ///
    /// Always inlined, so an untraced access pays only the skip counter's
    /// decrement-and-branch; drawing a gap and recording stay out of line.
    #[inline(always)]
    pub fn flight_record_demand(&mut self, tier: TierId, size: PageSize, latency_ns: f64) {
        if self.flight_preroll() {
            self.flight_take_demand(tier, size, latency_ns);
        }
    }

    /// Records one sampled demand access, if a recorder is attached.
    #[cold]
    #[inline(never)]
    fn flight_take_demand(&mut self, tier: TierId, size: PageSize, latency_ns: f64) {
        if let Some(f) = self.flight.as_mut() {
            f.record_demand(tier.0, size == PageSize::Huge, latency_ns);
        }
    }

    /// Rolls one stream position of the demand-tap skip schedule without
    /// recording, and says whether this position is a sample. A sharded
    /// burst ([`Machine::access_lanes`]) rolls it once for each access it
    /// spills, in stream order, so that access's slot stays consumed when
    /// it re-rolls on the serial path.
    ///
    /// The skip counter doubles as the attached/detached gate: it holds
    /// `u64::MAX` while no recorder is attached (the untraced tap is one
    /// predictable decrement-and-branch), and [`Machine::attach_flight`]
    /// arms it at zero so the first access is always sampled. Should the
    /// unattached countdown ever reach zero, the cold half tolerates the
    /// missing recorder and simply draws the next gap.
    #[inline(always)]
    fn flight_preroll(&mut self) -> bool {
        if self.flight_skip > 0 {
            self.flight_skip -= 1;
            return false;
        }
        self.flight_draw_gap()
    }

    /// Cold half of the demand tap: one call per ~16 accesses draws the
    /// next skip gap, and says whether a recorder takes this sample.
    #[cold]
    #[inline(never)]
    fn flight_draw_gap(&mut self) -> bool {
        // xorshift64: cheap, full-period, and seeded by a constant so the
        // gap sequence is a pure function of the access stream position.
        let mut x = self.flight_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.flight_rng = x;
        self.flight_skip = x % (2 * FLIGHT_DEMAND_SAMPLE_MEAN);
        self.flight.is_some()
    }

    /// Engine-mode store hook: invalidates the shadow copy of a written
    /// mapping — a write makes the retained source frame stale, so it is
    /// freed on the spot and its reclaim event queued for the next
    /// [`Machine::pump_transfers`]. Shadow mode disables deferred batching
    /// and sharded bursts, so this runs per store in stream order.
    #[inline]
    fn mode_note_store(&mut self, vpage: VirtPage, size: PageSize) {
        let key = match size {
            PageSize::Base => vpage,
            PageSize::Huge => vpage.huge_aligned(),
        };
        self.shadow_invalidate(key);
    }

    /// Frees the retained shadow of `key` (if any), counts the reclaim, and
    /// queues its trace event for the next pump.
    fn shadow_invalidate(&mut self, key: VirtPage) {
        if let Some(sh) = self.modes.as_mut().and_then(|m| m.shadow.as_mut()) {
            if let Some(old) = sh.invalidate(key) {
                self.tiers[old.tier.0 as usize].free(old.frame, old.size);
                self.stats.migration.shadow_reclaimed_4k += old.size.bytes() / BASE_PAGE_SIZE;
            }
        }
    }

    /// Records a completed migration with the hysteresis ping-pong
    /// detector, if that mode is on.
    fn mode_note_move(&mut self, vpage: VirtPage, promoted: bool, now_ns: f64) {
        if let Some(h) = self.modes.as_mut().and_then(|m| m.hysteresis.as_mut()) {
            h.note_move(vpage, promoted, now_ns);
        }
    }

    /// Retains `old_frame` as the shadow of a just-promoted mapping, or
    /// frees it (every non-promotion, and all of modes-off). Any stale
    /// shadow of the mapping is reclaimed first — after a remap it no
    /// longer describes a frame the mapping might return to.
    fn mode_retain_or_free(
        &mut self,
        vpage: VirtPage,
        old_frame: Frame,
        src: TierId,
        dst: TierId,
        size: PageSize,
    ) {
        if self.modes.is_some() {
            self.shadow_invalidate(vpage);
            if dst.0 < src.0 {
                if let Some(sh) = self.modes.as_mut().and_then(|m| m.shadow.as_mut()) {
                    sh.retain(vpage, old_frame, src, size);
                    self.stats.migration.shadow_retained_4k += size.bytes() / BASE_PAGE_SIZE;
                    return;
                }
            }
        }
        self.tiers[src.0 as usize].free(old_frame, size);
    }

    /// Allocates a frame on `tier`, reclaiming retained shadow frames
    /// (oldest first) to satisfy real demand under pressure — shadow
    /// copies are strictly non-exclusive and never cause an allocation
    /// failure the modes-off machine would not have had.
    fn alloc_frame(&mut self, tier: TierId, size: PageSize) -> SimResult<Frame> {
        loop {
            match self.tiers[tier.0 as usize].alloc(size) {
                Ok(f) => return Ok(f),
                Err(e @ SimError::OutOfMemory { .. }) => {
                    let victim = self
                        .modes
                        .as_ref()
                        .and_then(|m| m.shadow.as_ref())
                        .and_then(|sh| sh.oldest_on(tier));
                    match victim {
                        Some(k) => self.shadow_invalidate(k),
                        None => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes currently held by retained shadow frames (the shadow term of
    /// the conservation invariant `used == rss + inflight + shadow`).
    pub fn shadow_bytes(&self) -> u64 {
        self.modes
            .as_ref()
            .and_then(|m| m.shadow.as_ref())
            .map_or(0, |sh| sh.bytes())
    }

    /// Retained shadow-frame count.
    pub fn shadow_count(&self) -> usize {
        self.modes
            .as_ref()
            .and_then(|m| m.shadow.as_ref())
            .map_or(0, |sh| sh.len())
    }

    /// Whether shadow-reclaim events await emission by the next
    /// [`Machine::pump_transfers`].
    pub fn has_pending_shadow_events(&self) -> bool {
        self.modes
            .as_ref()
            .and_then(|m| m.shadow.as_ref())
            .is_some_and(|sh| sh.has_pending_events())
    }

    /// Backoff deadline (ns) of the most recent hysteresis rejection; for
    /// event emission after an [`SimError::PromotionBackoff`].
    pub fn last_promotion_backoff_until(&self) -> f64 {
        self.modes
            .as_ref()
            .and_then(|m| m.hysteresis.as_ref())
            .map_or(0.0, |h| h.last_backoff_until_ns)
    }

    /// Switches the machine to per-lane TLB/LLC routing: the configured TLB
    /// entry counts and LLC capacity are divided across
    /// [`crate::shard::NUM_LANES`] lanes keyed by 2 MiB region, so each
    /// lane's microarchitectural state depends only on its own access
    /// subsequence — the property that makes sharded runs independent of
    /// the shard count. Must be called before any access; idempotent.
    pub fn enable_lanes(&mut self) {
        if self.lanes.is_none() {
            self.lanes = Some(crate::shard::build_lanes(&self.cfg));
        }
    }

    /// Installs the machine-level faults of `plan` (forced aborts, injected
    /// dirty stores, link outages, pressure spikes). Inert plans install
    /// nothing, so zero-fault runs stay bit-exact with no-plan runs.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if !plan.is_inert() {
            self.faults = Some(FaultInjector::new(*plan, MACHINE_FAULT_SALT));
        }
    }

    /// Whether a fault injector is installed.
    pub fn has_fault_injection(&self) -> bool {
        self.faults.is_some()
    }

    /// Fast-tier bytes currently stolen by a pressure spike.
    pub fn fault_reserved_bytes(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.reserved_bytes())
    }

    /// Machine-level fault tallies (zero when no injector is installed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map_or(FaultCounters::default(), |f| f.counters)
    }

    /// Takes the pending machine-level fault records for trace emission.
    pub fn drain_fault_log(&mut self) -> Vec<FaultRecord> {
        self.faults.as_mut().map_or(Vec::new(), |f| f.drain_log())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The tier owning `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame belongs to no tier.
    pub fn tier_of_frame(&self, frame: Frame) -> TierId {
        tier_of(&self.tiers, frame)
    }

    /// Free bytes on a tier.
    pub fn free_bytes(&self, tier: TierId) -> u64 {
        self.tiers[tier.0 as usize].free_bytes()
    }

    /// Capacity of a tier in bytes.
    pub fn capacity_bytes(&self, tier: TierId) -> u64 {
        self.tiers[tier.0 as usize].capacity_bytes()
    }

    /// Used bytes on a tier.
    pub fn used_bytes(&self, tier: TierId) -> u64 {
        self.tiers[tier.0 as usize].used_bytes()
    }

    /// Application resident set size implied by mappings.
    pub fn rss_bytes(&self) -> u64 {
        self.pt.rss_bytes()
    }

    /// Mapped 2 MiB pages (for the huge-page ratio statistic).
    pub fn mapped_huge_pages(&self) -> u64 {
        self.pt.mapped_huge_pages()
    }

    /// Mapped 4 KiB pages.
    pub fn mapped_base_pages(&self) -> u64 {
        self.pt.mapped_base_pages()
    }

    /// Translation of `vpage` (tier, mapping size), if mapped.
    pub fn locate(&self, vpage: VirtPage) -> Option<(TierId, PageSize)> {
        let t = self.pt.translate(vpage)?;
        Some((self.tier_of_frame(t.frame), t.size))
    }

    /// Raw translation of `vpage`.
    pub fn translate(&self, vpage: VirtPage) -> Option<Translation> {
        self.pt.translate(vpage)
    }

    /// The huge entry at `vpage`'s huge page, if huge-mapped (read-only view
    /// used by splitters to inspect per-subpage written bits).
    pub fn huge_entry(&self, vpage: VirtPage) -> Option<&crate::page_table::HugeEntry> {
        self.pt.huge_entry(vpage)
    }

    /// TLB statistics (folded across lane slices when lanes are enabled).
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        let mut s = self.tlb.stats;
        if let Some(lanes) = &self.lanes {
            for l in lanes {
                s.absorb(&l.tlb.stats);
            }
        }
        s
    }

    /// LLC statistics (folded across lane slices when lanes are enabled).
    pub fn llc_stats(&self) -> crate::cache::LlcStats {
        let mut s = self.llc.stats;
        if let Some(lanes) = &self.lanes {
            for l in lanes {
                s.absorb(&l.llc.stats);
            }
        }
        s
    }

    /// Allocates a frame on `tier` and maps `vpage` to it.
    pub fn alloc_and_map(
        &mut self,
        vpage: VirtPage,
        size: PageSize,
        tier: TierId,
    ) -> SimResult<Frame> {
        let frame = self.alloc_frame(tier, size)?;
        let res = match size {
            PageSize::Base => self.pt.map_base(vpage, frame),
            PageSize::Huge => self.pt.map_huge(vpage, frame),
        };
        if let Err(e) = res {
            self.tiers[tier.0 as usize].free(frame, size);
            return Err(e);
        }
        Ok(frame)
    }

    /// Allocates on the first tier (in `order`) with a free frame.
    pub fn alloc_and_map_fallback(
        &mut self,
        vpage: VirtPage,
        size: PageSize,
        order: &[TierId],
    ) -> SimResult<(TierId, Frame)> {
        for &t in order {
            match self.alloc_and_map(vpage, size, t) {
                Ok(f) => return Ok((t, f)),
                Err(SimError::OutOfMemory { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(SimError::GlobalOutOfMemory)
    }

    /// Unmaps `vpage` and frees its frame. Returns the shootdown cost (ns).
    pub fn unmap_and_free(&mut self, vpage: VirtPage, size: PageSize) -> SimResult<f64> {
        if self.modes.is_some() {
            self.shadow_invalidate(vpage);
        }
        match size {
            PageSize::Base => {
                let pte = self.pt.unmap_base(vpage)?;
                let tier = self.tier_of_frame(pte.frame);
                self.tiers[tier.0 as usize].free_base(pte.frame);
            }
            PageSize::Huge => {
                let h = self.pt.unmap_huge(vpage)?;
                let tier = self.tier_of_frame(h.frame);
                self.tiers[tier.0 as usize].free_huge(h.frame);
            }
        }
        self.shootdown(vpage, size);
        Ok(self.cfg.costs.tlb_shootdown_ns)
    }

    /// Arms the NUMA-hint bit on the mapping covering `vpage`; the next
    /// access will fault into the policy. Returns false if unmapped.
    pub fn set_hint(&mut self, vpage: VirtPage) -> bool {
        match self.pt.entry_mut(vpage) {
            Some(EntryMut::Base(p)) => {
                p.hint = true;
                true
            }
            Some(EntryMut::Huge(h)) => {
                h.hint = true;
                true
            }
            None => false,
        }
    }

    /// Visits every mapped page-table entry (scanning substrates, cooling).
    pub fn scan_entries(&mut self, f: impl FnMut(VirtPage, EntryMut<'_>)) {
        self.pt.for_each_entry(f)
    }

    /// Executes one access. Returns `Err(NotMapped)` on a demand fault; the
    /// driver maps the page and retries.
    ///
    /// This is the single-walk fast path: one [`PageTable::walk_mut`]
    /// lookup (usually answered by the region map's memo)
    /// yields the translation *and* the mutable entry on which the hint bit
    /// is cleared and the accessed/dirty bits are set — where the machine
    /// formerly walked the table up to three times per access. Outcomes,
    /// statistics, and page-table state are bit-identical to
    /// [`Machine::access_reference`], the retained triple-walk
    /// implementation (enforced by a property test).
    #[inline]
    pub fn access(&mut self, access: Access) -> SimResult<AccessOutcome> {
        let vpage = access.vaddr.base_page();
        let (frame, size, hint_fault) = self
            .walk_and_mark(vpage, access.is_store(), false)
            .ok_or(SimError::NotMapped(vpage))?;
        let tier = tier_of(&self.tiers, frame);
        Ok(self.charge_access(access, frame, size, tier, hint_fault, &mut None))
    }

    /// One walk: reads the translation of `vpage`, clears the hint bit, and
    /// sets the reference bits (harvested by page-table-scanning policies)
    /// in a single pass over the entry. Returns the frame backing `vpage`,
    /// the mapping size, and whether the hint bit was armed; `None` if
    /// unmapped, or — with `keep_hints` — if the hint is armed, in which
    /// case the entry is left untouched.
    #[inline(always)]
    fn walk_and_mark(
        &mut self,
        vpage: VirtPage,
        is_store: bool,
        keep_hints: bool,
    ) -> Option<(Frame, PageSize, bool)> {
        Some(match self.pt.walk_mut(vpage)? {
            EntryMut::Base(p) => {
                let hint = p.hint;
                if hint && keep_hints {
                    return None;
                }
                p.hint = false;
                p.accessed = true;
                if is_store {
                    p.dirty = true;
                    p.ever_written = true;
                }
                (p.frame, PageSize::Base, hint)
            }
            EntryMut::Huge(h) => {
                let hint = h.hint;
                if hint && keep_hints {
                    return None;
                }
                h.hint = false;
                h.accessed = true;
                if is_store {
                    h.dirty = true;
                    h.mark_subpage_written(vpage.subpage_index());
                }
                (
                    h.frame.add(vpage.subpage_index() as u64),
                    PageSize::Huge,
                    hint,
                )
            }
        })
    }

    /// Everything an access to a resolved, already-marked mapping does
    /// after the walk: engine and mode hooks, the hint trap cost, the
    /// [`price_access`] kernel, the migration-contention penalty, counters,
    /// and the flight-recorder tap.
    #[inline(always)]
    fn charge_access(
        &mut self,
        access: Access,
        frame: Frame,
        size: PageSize,
        tier: TierId,
        hint_fault: bool,
        tlb_way: &mut Option<(usize, u64)>,
    ) -> AccessOutcome {
        let vpage = access.vaddr.base_page();
        let is_store = access.is_store();

        // A store to a page whose copy is in flight dirties the pass: the
        // engine must re-copy (or abort) before it can remap.
        if is_store && self.engine.has_active() {
            self.engine.note_store(vpage);
        }

        if is_store && self.modes.is_some() {
            self.mode_note_store(vpage, size);
        }

        // NUMA-hint fault: trap cost, then the access proceeds (the driver
        // notifies the policy afterwards).
        let mut latency = 0.0;
        if hint_fault {
            latency += self.cfg.costs.fault_overhead_ns;
            self.stats.hint_faults += 1;
        }

        let (tlb, llc) = route(&mut self.lanes, &mut self.tlb, &mut self.llc, vpage);
        let (mut latency, tlb_hit, llc_hit) = price_access(
            tlb,
            llc,
            &self.cfg.costs,
            self.cfg.tier(tier),
            tlb_way,
            vpage,
            size,
            frame,
            access.vaddr.base_offset(),
            is_store,
            latency,
        );
        if !llc_hit {
            // Demand accesses contend with an active migration copy on
            // this tier's link. Never fires in unlimited-bandwidth mode
            // (the engine is never engaged), preserving legacy costs.
            if self.engine.has_active() && self.engine.link_busy_for(tier) {
                latency += self.cfg.migration.contention_penalty_ns;
            }
            self.stats.count_tier_hit(tier);
        }

        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        self.flight_record_demand(tier, size, latency);

        AccessOutcome {
            latency_ns: latency,
            vpage,
            page_size: size,
            tier,
            llc_miss: !llc_hit,
            tlb_miss: !tlb_hit,
            hint_fault,
            demand_fault: false,
        }
    }

    /// Executes the run of [`WorkloadEvent::Access`] events at the head of
    /// `events` in one call, coalescing consecutive same-mapping loads and
    /// folding wall-clock accounting into the loop. Stops — without
    /// consuming it — at the first non-access event.
    ///
    /// Every clean access counts down its class of the `filter` program
    /// (without branching on its kind); each one that fires is appended to
    /// `out`, stamped with the wall clock *before* its own latency advances
    /// it — the instant the per-event loop would deliver it to the policy —
    /// and the burst stops cleanly after the program's cap'th record. Every
    /// access, recorded or not, executes and advances `clock` exactly as
    /// the per-event driver does, and the events counted per class are
    /// left in [`Machine::batch_tally`]. Returns how many events were
    /// consumed and why the call stopped; see [`BatchStop`] for the fault
    /// cases, which the driver finishes through the legacy per-event path
    /// (a stopping fault access is neither counted nor recorded).
    ///
    /// Bit-exactness of the coalesced fast path: the batch's first access
    /// to a mapping clears the hint bit and sets the accessed/dirty bits,
    /// so the walk on each repeat is pure recomputation — but the TLB and
    /// LLC are stateful (stamp updates, set rotation) and are still driven
    /// per access; see [`Machine::access_coalesced`]. A repeat store still
    /// walks, for its subpage dirty bookkeeping. Transfers the migration
    /// engine holds in flight change nothing here: no copy starts or ends
    /// inside a burst (the driver stops each burst at the engine's next
    /// event), and in-flight dirty tracking and link contention are charged
    /// per access on every path.
    ///
    /// [`WorkloadEvent::Access`]: crate::driver::WorkloadEvent::Access
    pub fn access_batch(
        &mut self,
        events: &[crate::driver::WorkloadEvent],
        out: &mut Vec<AccessRecord>,
        clock: &mut BatchClock,
        filter: RecordFilter,
    ) -> (usize, BatchStop) {
        debug_assert!(filter.next.iter().all(|&n| n >= 1) && filter.cap >= 1);
        let mut prog = filter;
        let mut fired = [0u64; ACCESS_CLASSES];
        let end = self.run_batch(events, out, clock, &mut prog, &mut fired);
        self.batch_tally = filter.tally(&prog, &fired);
        end
    }

    /// The loop of [`Machine::access_batch`], counting down `prog` and
    /// tallying each class's records in `fired`.
    #[inline(always)]
    fn run_batch(
        &mut self,
        events: &[crate::driver::WorkloadEvent],
        out: &mut Vec<AccessRecord>,
        clock: &mut BatchClock,
        prog: &mut RecordFilter,
        fired: &mut [u64; ACCESS_CLASSES],
    ) -> (usize, BatchStop) {
        let mut cache = CoalesceCache::default();
        let cap_len = out.len().saturating_add(prog.cap);
        for (i, ev) in events.iter().enumerate() {
            let crate::driver::WorkloadEvent::Access(access) = *ev else {
                return (i, BatchStop::Clean);
            };
            let Some(outcome) = self.access_coalesced(access, &mut cache, false) else {
                return (i, BatchStop::NotMapped);
            };
            if outcome.hint_fault {
                return (i, BatchStop::Hint(outcome));
            }
            let class = RecordFilter::class_of(access.kind, outcome.llc_miss);
            let mut capped = false;
            if prog.fire(class) {
                fired[class] += 1;
                out.push(AccessRecord {
                    access,
                    outcome,
                    now_ns: clock.wall_ns,
                });
                capped = out.len() == cap_len;
            }
            clock.app_access_ns += outcome.latency_ns;
            clock.wall_ns += outcome.latency_ns / clock.threads;
            if capped || clock.wall_ns >= clock.stop_wall_ns {
                return (i + 1, BatchStop::Clean);
            }
        }
        (events.len(), BatchStop::Clean)
    }

    /// Runs the [`WorkloadEvent::Access`] events at the head of `events` as
    /// one sharded burst, in stream order, through
    /// [`Machine::access_coalesced`]; [`route`] sends each access's TLB and
    /// LLC traffic to its lane. Returns the length of that access prefix and
    /// the burst's total latency.
    ///
    /// An access to an unmapped or hint-armed page stops its lane without
    /// executing, and the hint stays armed. That access and every later one
    /// in its lane are appended to `spilled` as prefix indices, so the list
    /// is in stream order; the driver replays them through the per-event
    /// path after the burst. Each spilled access consumes its
    /// flight-recorder slot here and re-rolls when it replays.
    ///
    /// Every executed access in a class `filter` counts is appended to
    /// `records`, stamped `now_ns` (the burst-start wall clock), and is
    /// counted in `executed` under its lane. Latencies sum per lane, and the
    /// total is the fixed-shape [`tree_fold_f64`] of the [`NUM_LANES`] sums,
    /// so it does not depend on how `--shards` groups the lanes.
    ///
    /// [`WorkloadEvent::Access`]: crate::driver::WorkloadEvent::Access
    pub(crate) fn access_lanes(
        &mut self,
        events: &[crate::driver::WorkloadEvent],
        filter: RecordFilter,
        now_ns: f64,
        records: &mut Vec<AccessRecord>,
        spilled: &mut Vec<u32>,
        executed: &mut [u64; NUM_LANES],
    ) -> (usize, f64) {
        debug_assert!(self.lanes.is_some(), "sharded burst requires enabled lanes");
        let mut cache = CoalesceCache::default();
        let mut stopped = 0u64;
        let mut lat = [0f64; NUM_LANES];
        let mut prefix = events.len();
        for (i, ev) in events.iter().enumerate() {
            let crate::driver::WorkloadEvent::Access(access) = *ev else {
                prefix = i;
                break;
            };
            let lane = lane_of(access.vaddr.base_page());
            let outcome = if stopped & (1 << lane) == 0 {
                self.access_coalesced(access, &mut cache, true)
            } else {
                None
            };
            let Some(outcome) = outcome else {
                stopped |= 1 << lane;
                self.flight_preroll();
                spilled.push(i as u32);
                continue;
            };
            if filter.counts(RecordFilter::class_of(access.kind, outcome.llc_miss)) {
                records.push(AccessRecord {
                    access,
                    outcome,
                    now_ns,
                });
            }
            lat[lane] += outcome.latency_ns;
            executed[lane] += 1;
        }
        (prefix, tree_fold_f64(&lat))
    }

    /// Events of each [`RecordFilter`] class (LLC-hit loads, LLC-miss
    /// loads, stores) that the last batched burst — an
    /// [`Machine::access_batch`] call, or one program pass over a sharded
    /// burst — counted, recorded or not; 0 for a class its program left
    /// [`RecordFilter::OFF`]. A policy handed only the firing records reads
    /// this in `on_access_batch` to account for the events between them.
    pub fn batch_tally(&self) -> [u64; ACCESS_CLASSES] {
        self.batch_tally
    }

    /// Sets [`Machine::batch_tally`] for a program pass the driver ran
    /// outside [`Machine::access_batch`] (sharded bursts).
    pub(crate) fn set_batch_tally(&mut self, tally: [u64; ACCESS_CLASSES]) {
        self.batch_tally = tally;
    }

    /// One access with a mapping memo: an access to a mapping some earlier
    /// access in this batch resolved — the same base page, or any subpage of
    /// the same huge page — skips the hint handling and tier lookup, and for
    /// loads the page walk as well (a repeat store still walks, through the
    /// region map's memo, for its dirty bookkeeping).
    ///
    /// Coalescing a repeat is exact because the mapping's reference/hint
    /// bits live on the one shared entry (already set and cleared by the
    /// batch's first access to it, so a repeat load's walk would be pure
    /// recomputation — and nothing re-arms hints or remaps pages mid-batch:
    /// policy delivery is deferred, boundary work is hoisted, and no
    /// migration copy starts or ends inside a burst), a huge mapping's subpage frames are contiguous from the cached
    /// base frame, and a huge frame block lives wholly in one tier. The
    /// stateful structures — TLB, LLC, page-table dirty bits, statistics —
    /// still tick per access; a repeat *can* miss the TLB (another region's
    /// insert may have evicted it) and then pays the walk latency exactly
    /// as the full path would.
    ///
    /// Returns `None`, with no side effect, if the page is unmapped, or —
    /// with `keep_hints` (sharded bursts) — if its hint is armed; without
    /// `keep_hints` a hint-armed access executes and reports its fault.
    #[inline(always)]
    fn access_coalesced(
        &mut self,
        access: Access,
        cache: &mut CoalesceCache,
        keep_hints: bool,
    ) -> Option<AccessOutcome> {
        let vpage = access.vaddr.base_page();
        let is_store = access.is_store();
        let slot = CoalesceCache::slot(vpage);
        let hit = cache.ways[slot].and_then(|m| Some((m.frame_of(vpage)?, m.size, m.tier)));
        let (frame, size, tier, hint_fault) = match hit {
            Some((frame, size, tier)) => {
                if is_store {
                    // Dirty bookkeeping is per-subpage state the memo cannot
                    // carry; take the walk (one region-map lookup) exactly
                    // as the full path would. The hint is guaranteed clear.
                    let marked = self.walk_and_mark(vpage, true, false);
                    debug_assert!(
                        matches!(marked, Some((_, _, false))),
                        "memoized mapping unmapped or hint re-armed mid-batch"
                    );
                }
                (frame, size, tier, false)
            }
            None => {
                let (frame, size, hint_fault) = self.walk_and_mark(vpage, is_store, keep_hints)?;
                let tier = tier_of(&self.tiers, frame);
                cache.ways[slot] = Some(MappingMemo::new(vpage, frame, size, tier));
                (frame, size, tier, hint_fault)
            }
        };
        let memo = cache.ways[slot].as_mut().expect("memo just ensured");
        Some(self.charge_access(access, frame, size, tier, hint_fault, &mut memo.tlb_way))
    }

    /// The original triple-walk implementation of [`Machine::access`], kept
    /// as the bit-exactness oracle for the fast path: the equivalence
    /// property test and the `hotpath` benchmark drive one machine through
    /// `access` and an identical twin through `access_reference` and demand
    /// byte-identical outcomes, statistics, and page-table state.
    #[inline]
    pub fn access_reference(&mut self, access: Access) -> SimResult<AccessOutcome> {
        let vpage = access.vaddr.base_page();
        let tr = self.pt.translate(vpage).ok_or(SimError::NotMapped(vpage))?;
        let mut latency = 0.0;
        let mut hint_fault = false;

        // NUMA-hint fault: trap cost, then the access proceeds.
        if tr.hint {
            hint_fault = true;
            latency += self.cfg.costs.fault_overhead_ns;
            self.stats.hint_faults += 1;
            match self.pt.entry_mut(vpage) {
                Some(EntryMut::Base(p)) => p.hint = false,
                Some(EntryMut::Huge(h)) => h.hint = false,
                None => unreachable!(),
            }
        }

        // Address translation.
        let tlb = route(&mut self.lanes, &mut self.tlb, &mut self.llc, vpage).0;
        let tlb_hit = tlb.lookup_memo(vpage, tr.size).is_some();
        if !tlb_hit {
            latency += tr.size.walk_levels() as f64 * self.cfg.costs.walk_level_ns;
            tlb.insert(vpage, tr.size);
        }

        // Reference bits (harvested by page-table-scanning policies).
        match self.pt.entry_mut(vpage) {
            Some(EntryMut::Base(p)) => {
                p.accessed = true;
                if access.is_store() {
                    p.dirty = true;
                    p.ever_written = true;
                }
            }
            Some(EntryMut::Huge(h)) => {
                h.accessed = true;
                if access.is_store() {
                    h.dirty = true;
                    h.mark_subpage_written(vpage.subpage_index());
                }
            }
            None => unreachable!(),
        }

        // Mirror of the fast path's in-flight dirty hook.
        if access.is_store() && self.engine.has_active() {
            self.engine.note_store(vpage);
        }

        // Mirror of the fast path's engine-mode hook.
        if access.is_store() && self.modes.is_some() {
            self.mode_note_store(vpage, tr.size);
        }

        // Cache and memory.
        let paddr = PhysAddr(tr.frame.addr().0 + access.vaddr.base_offset());
        let tier = self.tier_of_frame(tr.frame);
        let llc_hit = route(&mut self.lanes, &mut self.tlb, &mut self.llc, vpage)
            .1
            .access(paddr);
        if llc_hit {
            latency += self.cfg.costs.llc_hit_ns;
        } else {
            let spec = self.cfg.tier(tier);
            latency += if access.is_store() {
                spec.store_ns
            } else {
                spec.load_ns
            };
            if self.engine.has_active() && self.engine.link_busy_for(tier) {
                latency += self.cfg.migration.contention_penalty_ns;
            }
            self.stats.count_tier_hit(tier);
        }

        if access.is_store() {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        Ok(AccessOutcome {
            latency_ns: latency,
            vpage,
            page_size: tr.size,
            tier,
            llc_miss: !llc_hit,
            tlb_miss: !tlb_hit,
            hint_fault,
            demand_fault: false,
        })
    }

    /// Migrates the page covering `vpage` to `dst`, preserving entry flags.
    ///
    /// For a huge mapping, `vpage` must be 2 MiB-aligned and the whole page
    /// moves. Fails with `OutOfMemory` if `dst` has no free frame (callers
    /// demote first to make room). Failed attempts are counted in
    /// [`crate::stats::MigrationStats::failed`].
    pub fn migrate(&mut self, vpage: VirtPage, dst: TierId) -> SimResult<MigrateOutcome> {
        match self.migrate_inner(vpage, dst) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.stats.migration.failed += 1;
                Err(e)
            }
        }
    }

    fn migrate_inner(&mut self, vpage: VirtPage, dst: TierId) -> SimResult<MigrateOutcome> {
        let (tr, src) = self.check_move(vpage, dst)?;
        let new_frame = self.alloc_frame(dst, tr.size)?;
        let old_frame = self.remap(vpage, tr.size, new_frame);
        self.mode_retain_or_free(vpage, old_frame, src, dst, tr.size);

        let bytes = tr.size.bytes();
        let cost = self.transfer_cost_ns(src, dst, bytes, 0);
        self.count_move(src, dst, bytes, bytes);

        Ok(MigrateOutcome {
            cost_ns: cost,
            from: src,
            to: dst,
            bytes,
        })
    }

    /// Validates a move of the page covering `vpage` to `dst`: mapped, a
    /// huge mapping addressed at its aligned base, and not already on
    /// `dst`. Returns the translation and the source tier.
    fn check_move(&self, vpage: VirtPage, dst: TierId) -> SimResult<(Translation, TierId)> {
        let tr = self.pt.translate(vpage).ok_or(SimError::NotMapped(vpage))?;
        if tr.size == PageSize::Huge && !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let src = self.tier_of_frame(tr.frame);
        if src == dst {
            return Err(SimError::SameTier(src));
        }
        Ok((tr, src))
    }

    /// Points the mapping at `vpage` to `new_frame` and returns the frame
    /// it replaced, and shoots down the stale TLB entry. The page table's
    /// region-map memo needs nothing: it holds slot positions, not frames.
    fn remap(&mut self, vpage: VirtPage, size: PageSize, new_frame: Frame) -> Frame {
        let old_frame = match self.pt.entry_mut(vpage) {
            Some(EntryMut::Base(p)) => std::mem::replace(&mut p.frame, new_frame),
            Some(EntryMut::Huge(h)) => std::mem::replace(&mut h.frame, new_frame),
            None => unreachable!("remap of an unmapped page"),
        };
        self.shootdown(vpage, size);
        old_frame
    }

    /// Invalidates the TLB entry mapping `vpage` at `size` and counts the
    /// shootdown.
    fn shootdown(&mut self, vpage: VirtPage, size: PageSize) {
        route(&mut self.lanes, &mut self.tlb, &mut self.llc, vpage)
            .0
            .invalidate(vpage, size);
        self.stats.shootdowns += 1;
    }

    /// Counts a completed move of a `page_bytes` mapping from `src` to
    /// `dst` that copied `copied_bytes`.
    fn count_move(&mut self, src: TierId, dst: TierId, page_bytes: u64, copied_bytes: u64) {
        let pages_4k = page_bytes / BASE_PAGE_SIZE;
        if dst.0 < src.0 {
            self.stats.migration.promoted_4k += pages_4k;
        } else {
            self.stats.migration.demoted_4k += pages_4k;
        }
        self.stats.migration.migrated_bytes += copied_bytes;
    }

    /// Splits the huge page at `vpage` in place (same frames become 512
    /// individually-managed base pages). When `free_zero_subpages` is set,
    /// never-written subpages are unmapped and freed, reclaiming THP bloat
    /// (§4.3.3).
    pub fn split_huge(
        &mut self,
        vpage: VirtPage,
        free_zero_subpages: bool,
    ) -> SimResult<SplitOutcome> {
        let old = self.pt.split_huge(vpage)?;
        // The huge mapping is gone; its shadow (if any) is a 2 MiB copy of
        // a mapping that no longer exists.
        if self.modes.is_some() {
            self.shadow_invalidate(vpage);
        }
        let tier = self.tier_of_frame(old.frame);
        self.tiers[tier.0 as usize].split_used_huge(old.frame);
        self.shootdown(vpage, PageSize::Huge);
        self.stats.migration.splits += 1;

        let mut freed = 0u32;
        if free_zero_subpages {
            for i in 0..NR_SUBPAGES as usize {
                if !old.subpage_written(i) {
                    let sub = vpage.add(i as u64);
                    let pte = self.pt.unmap_base(sub).expect("subpage just mapped");
                    self.tiers[tier.0 as usize].free_base(pte.frame);
                    freed += 1;
                }
            }
            self.stats.migration.zero_subpages_freed += freed as u64;
        }

        let cost = self.transfer_cost_ns(tier, tier, 0, NR_SUBPAGES as u32);
        Ok(SplitOutcome {
            zero_subpages_freed: freed,
            cost_ns: cost,
        })
    }

    /// Collapses 512 base mappings at `vpage` into one huge page on `tier`,
    /// allocating a fresh huge frame and copying (khugepaged-style). Failed
    /// attempts are counted in [`crate::stats::MigrationStats::failed`].
    pub fn collapse_huge(&mut self, vpage: VirtPage, tier: TierId) -> SimResult<MigrateOutcome> {
        match self.collapse_huge_inner(vpage, tier) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.stats.migration.failed += 1;
                Err(e)
            }
        }
    }

    fn collapse_huge_inner(&mut self, vpage: VirtPage, tier: TierId) -> SimResult<MigrateOutcome> {
        if !vpage.is_huge_aligned() {
            return Err(SimError::Unaligned(vpage));
        }
        let new_frame = self.alloc_frame(tier, PageSize::Huge)?;
        let old = match self.pt.collapse_huge(vpage, new_frame) {
            Ok(o) => o,
            Err(e) => {
                self.tiers[tier.0 as usize].free_huge(new_frame);
                return Err(e);
            }
        };
        let mut src = tier;
        for pte in &old {
            let t = self.tier_of_frame(pte.frame);
            src = t;
            self.tiers[t.0 as usize].free_base(pte.frame);
        }
        // Every base mapping in the collapsed range is gone; so are their
        // shadows.
        if self.modes.is_some() {
            let keys = self
                .modes
                .as_ref()
                .and_then(|m| m.shadow.as_ref())
                .map(|sh| sh.keys_in_range(vpage, vpage.add(NR_SUBPAGES)))
                .unwrap_or_default();
            for k in keys {
                self.shadow_invalidate(k);
            }
        }
        self.shootdown(vpage, PageSize::Base);
        self.stats.migration.collapses += 1;

        let bytes = PageSize::Huge.bytes();
        let cost = self.transfer_cost_ns(tier, tier, bytes, NR_SUBPAGES as u32);
        Ok(MigrateOutcome {
            cost_ns: cost,
            from: src,
            to: tier,
            bytes,
        })
    }

    /// Cost of moving `bytes` between `src` and `dst` plus the remap work:
    /// `bytes / min(bw) + shootdown + pte_updates * per-PTE cost` (ns).
    ///
    /// Single source of truth for the migrate / split / collapse cost
    /// formulas and the engine's copy-duration model, so the synchronous
    /// legacy path and the asynchronous engine cannot drift.
    pub fn transfer_cost_ns(&self, src: TierId, dst: TierId, bytes: u64, pte_updates: u32) -> f64 {
        bytes as f64 / link_bw(&self.cfg, src, dst, None)
            + self.cfg.costs.tlb_shootdown_ns
            + pte_updates as f64 * PTE_UPDATE_NS
    }

    /// Requests a migration of the page covering `vpage` to `dst`.
    ///
    /// With no [`crate::config::MigrationConfig::bandwidth_limit`] this
    /// delegates to [`Machine::migrate`] and completes synchronously
    /// (bit-exact legacy semantics). Under bandwidth arbitration the
    /// destination frame is reserved and a transfer is admitted instead;
    /// it completes or aborts during a later [`Machine::pump_transfers`].
    /// Higher `priority` transfers win the link first.
    ///
    /// Validation failures count in
    /// [`crate::stats::MigrationStats::failed`]; back-pressure rejections
    /// ([`SimError::QueueFull`], [`SimError::InFlight`],
    /// [`SimError::PromotionBackoff`]) do not.
    pub fn enqueue_migration(
        &mut self,
        vpage: VirtPage,
        dst: TierId,
        priority: u8,
        now_ns: f64,
    ) -> SimResult<MigrationHandle> {
        if self.modes.is_some() {
            // Free demotion: the request was satisfied by remapping to a
            // retained shadow, no transfer needed.
            if let Some(done) = self.mode_gate(vpage, dst, now_ns)? {
                return Ok(done);
            }
        }
        if self.cfg.migration.bandwidth_limit.is_none() {
            let out = self.migrate(vpage, dst)?;
            if self.modes.is_some() {
                self.mode_note_move(vpage, out.to.0 < out.from.0, now_ns);
            }
            return Ok(MigrationHandle::Done(out));
        }
        match self.enqueue_inner(vpage, dst, priority, now_ns) {
            Ok(h) => {
                // A re-enqueue of a previously aborted page closes its
                // abort-to-retry lag measurement.
                if let Some(f) = self.flight.as_mut() {
                    f.note_enqueue(vpage.0, now_ns);
                }
                Ok(h)
            }
            Err(e) => {
                if !matches!(
                    e,
                    SimError::QueueFull | SimError::InFlight(_) | SimError::PromotionBackoff(_)
                ) {
                    self.stats.migration.failed += 1;
                }
                Err(e)
            }
        }
    }

    /// Engine-mode migration gate, run before any migration path commits.
    ///
    /// Structural problems (unmapped, misaligned, same-tier, already in
    /// flight) fall through with `Ok(None)` so the normal path reports
    /// them with exact legacy accounting. Otherwise:
    ///
    /// - a **promotion** is checked against the hysteresis backoff
    ///   ([`SimError::PromotionBackoff`]) — back-pressure, not a failure;
    /// - a **demotion** whose destination holds a still-clean shadow of
    ///   the page completes for free: the mapping is remapped back to the
    ///   retained frame and `Ok(Some(Done))` is returned with zero bytes
    ///   copied (only the TLB shootdown is charged).
    fn mode_gate(
        &mut self,
        vpage: VirtPage,
        dst: TierId,
        now_ns: f64,
    ) -> SimResult<Option<MigrationHandle>> {
        let Ok((tr, src)) = self.check_move(vpage, dst) else {
            return Ok(None);
        };
        if self.engine.find_overlapping(vpage, tr.size).is_some() {
            return Ok(None);
        }

        if dst.0 < src.0 {
            // Promotion: anti-thrashing backoff.
            if let Some(h) = self.modes.as_mut().and_then(|m| m.hysteresis.as_mut()) {
                let until = h.backoff_until(vpage);
                if now_ns < until {
                    h.last_backoff_until_ns = until;
                    self.stats.migration.promotion_backoffs += 1;
                    return Err(SimError::PromotionBackoff(vpage));
                }
            }
            return Ok(None);
        }

        // Demotion: a still-clean shadow already on the destination
        // satisfies it by remapping — the frames swap roles, no copy.
        let Some(sh) = self.modes.as_mut().and_then(|m| m.shadow.as_mut()) else {
            return Ok(None);
        };
        let Some(shadow) = sh.get(vpage) else {
            return Ok(None);
        };
        if shadow.tier != dst || shadow.size != tr.size {
            return Ok(None);
        }
        sh.take(vpage);
        let old_frame = self.remap(vpage, tr.size, shadow.frame);
        self.tiers[src.0 as usize].free(old_frame, tr.size);
        self.count_move(src, dst, tr.size.bytes(), 0);
        self.stats.migration.shadow_free_demotions_4k += tr.size.bytes() / BASE_PAGE_SIZE;
        self.mode_note_move(vpage, false, now_ns);
        Ok(Some(MigrationHandle::Done(MigrateOutcome {
            cost_ns: self.cfg.costs.tlb_shootdown_ns,
            from: src,
            to: dst,
            bytes: 0,
        })))
    }

    fn enqueue_inner(
        &mut self,
        vpage: VirtPage,
        dst: TierId,
        priority: u8,
        now_ns: f64,
    ) -> SimResult<MigrationHandle> {
        let (tr, src) = self.check_move(vpage, dst)?;
        if self.engine.find_overlapping(vpage, tr.size).is_some() {
            return Err(SimError::InFlight(vpage));
        }
        if !self.engine.has_queue_capacity() {
            return Err(SimError::QueueFull);
        }
        // Reserve the destination frame up front so tier accounting always
        // reflects committed transfers; released again on abort.
        let dst_frame = self.alloc_frame(dst, tr.size)?;
        let id = self.engine.admit(
            vpage, tr.size, src, dst, tr.frame, dst_frame, priority, now_ns,
        );
        let in_flight = self.engine.in_flight() as u64;
        if in_flight > self.stats.migration.in_flight_peak {
            self.stats.migration.in_flight_peak = in_flight;
        }
        Ok(MigrationHandle::InFlight {
            id,
            from: src,
            to: dst,
            bytes: tr.size.bytes(),
        })
    }

    /// Aborts a queued or copying transfer, releasing its destination
    /// reservation. Returns `None` if the id is unknown (already finished).
    pub fn abort_transfer(&mut self, id: TransferId, now_ns: f64) -> Option<TransferEnd> {
        let t = self.engine.remove(id, now_ns)?;
        Some(self.abort_common(t, AbortCause::Cancelled, now_ns))
    }

    /// No transfers queued or copying.
    pub fn transfers_idle(&self) -> bool {
        self.engine.is_idle()
    }

    /// The earliest simulated time at which [`Machine::pump_transfers`] can
    /// start, finish, re-copy or abort a transfer: the soonest end of an
    /// active copy pass, or infinity when none is copying. `None` while a
    /// queued transfer waits on an idle link, which the next pump starts
    /// whatever the clock reads. Machine-level faults and shadow reclaims
    /// are not covered.
    pub(crate) fn next_transfer_event_ns(&self) -> Option<f64> {
        self.engine.next_event_ns()
    }

    /// Queued (not yet copying) transfers.
    pub fn transfer_queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    /// Queued plus copying transfers.
    pub fn transfers_in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    /// Destination bytes reserved by queued and copying transfers — the
    /// `inflight` term of `used == rss + inflight + shadow`.
    pub fn inflight_reserved_bytes(&self) -> u64 {
        self.engine.inflight_bytes()
    }

    /// Checks the page-accounting identity over every tier: each used byte
    /// is mapped, reserved by a queued or copying transfer, a retained
    /// shadow copy, or stolen by an injected pressure spike
    /// (`used == rss + inflight + shadow + pressure`).
    pub fn check_page_accounting(&self) -> Result<(), String> {
        let used: u64 = self.tiers.iter().map(|t| t.used_bytes()).sum();
        let rss = self.rss_bytes();
        let inflight = self.inflight_reserved_bytes();
        let shadow = self.shadow_bytes();
        let pressure = self.fault_reserved_bytes();
        if used == rss + inflight + shadow + pressure {
            return Ok(());
        }
        Err(format!(
            "page accounting violated: used {used} != rss {rss} + inflight {inflight} \
             + shadow {shadow} + pressure {pressure}"
        ))
    }

    /// The transfer covering base page `vpage`, if any.
    pub fn transfer_for(&self, vpage: VirtPage) -> Option<TransferId> {
        self.engine.transfer_for(vpage)
    }

    /// Advances the migration engine to simulated time `now_ns`, starting
    /// queued copies as links free up and finalizing finished ones
    /// (remapping the page, or releasing the reservation on abort). Returns
    /// the lifecycle events in deterministic order. Copy-then-remap: until
    /// a transfer completes here, accesses keep translating to the source
    /// frame.
    pub fn pump_transfers(&mut self, now_ns: f64) -> Vec<EngineEvent> {
        let mut fault_events = if self.faults.is_some() {
            self.apply_faults(now_ns)
        } else {
            Vec::new()
        };
        // Shadow reclaims triggered by access-path invalidations since the
        // last pump surface here (the access paths carry no timestamp).
        if self.has_pending_shadow_events() {
            let drained = self
                .modes
                .as_mut()
                .and_then(|m| m.shadow.as_mut())
                .map(|sh| sh.drain_pending_events())
                .unwrap_or_default();
            for (vpage, tier, bytes) in drained {
                fault_events.push(EngineEvent::ShadowReclaimed { vpage, tier, bytes });
            }
        }
        if self.engine.is_idle() {
            return fault_events;
        }
        let outcomes = {
            let engine = &mut self.engine;
            let cfg = &self.cfg;
            engine.pump(now_ns, |a, b| {
                link_bw(cfg, a, b, cfg.migration.bandwidth_limit)
            })
        };
        let mut events = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            match o {
                PumpOutcome::Started {
                    id,
                    vpage,
                    from,
                    to,
                    bytes,
                    wait_ns,
                } => {
                    if let Some(f) = self.flight.as_mut() {
                        f.record_queue_wait(wait_ns);
                    }
                    events.push(EngineEvent::Started {
                        id,
                        vpage,
                        from,
                        to,
                        bytes,
                    })
                }
                PumpOutcome::CopyDone(t) => {
                    if self.finalize_transfer(&t) {
                        if let Some(f) = self.flight.as_mut() {
                            f.record_transfer(t.end_ns - t.first_start_ns);
                        }
                        self.stats.migration.recopies += t.recopies as u64;
                        events.push(EngineEvent::Ended(t.end(None)));
                    } else {
                        // The mapping changed under the copy; the data no
                        // longer describes the page.
                        let end_ns = t.end_ns;
                        events.push(EngineEvent::Ended(self.abort_common(
                            t,
                            AbortCause::Superseded,
                            end_ns,
                        )));
                    }
                }
                PumpOutcome::DirtyAborted(t) => {
                    let end_ns = t.end_ns;
                    events.push(EngineEvent::Ended(self.abort_common(
                        t,
                        AbortCause::Dirty,
                        end_ns,
                    )));
                }
            }
        }
        if fault_events.is_empty() {
            events
        } else {
            fault_events.extend(events);
            fault_events
        }
    }

    /// Applies the machine-level faults due at `now_ns`: link outages and
    /// pressure spikes on the simulated clock, forced aborts and injected
    /// dirty stores by per-pump probability rolls. Returns terminal events
    /// for forcibly-aborted transfers so callers route them to
    /// `Policy::on_transfer_end` exactly like engine-originated aborts.
    fn apply_faults(&mut self, now_ns: f64) -> Vec<EngineEvent> {
        let Some(mut inj) = self.faults.take() else {
            return Vec::new();
        };
        let mut events = Vec::new();
        if let Some(duration) = inj.outage_due(now_ns) {
            self.engine.delay_active(now_ns, duration);
            inj.record(now_ns, FaultKind::LinkOutage, 0);
        }
        if let Some(spec) = inj.pressure_should_start(now_ns) {
            let huge = PageSize::Huge.bytes();
            while inj.reserved_bytes() + huge <= spec.bytes {
                match self.tiers[TierId::FAST.0 as usize].alloc(PageSize::Huge) {
                    Ok(frame) => inj.pressure_frames.push(frame),
                    Err(_) => break,
                }
            }
            inj.record(now_ns, FaultKind::PressureSpike, 0);
        }
        if inj.pressure_should_end(now_ns) {
            for frame in inj.pressure_frames.drain(..) {
                self.tiers[TierId::FAST.0 as usize].free(frame, PageSize::Huge);
            }
            inj.record(now_ns, FaultKind::PressureRelease, 0);
        }
        if inj.roll_abort() {
            let ids = self.engine.transfer_ids();
            if !ids.is_empty() {
                let id = ids[inj.pick(ids.len())];
                if let Some(end) = self.abort_transfer(id, now_ns) {
                    inj.record(now_ns, FaultKind::ForcedAbort, end.vpage.0);
                    events.push(EngineEvent::Ended(end));
                }
            }
        }
        if inj.roll_dirty() {
            let pages = self.engine.active_pages();
            if !pages.is_empty() {
                let vpage = pages[inj.pick(pages.len())];
                self.engine.note_store(vpage);
                inj.record(now_ns, FaultKind::InjectedDirty, vpage.0);
            }
        }
        self.faults = Some(inj);
        events
    }

    /// Remaps a cleanly-copied transfer. Returns false if the mapping
    /// changed since admission (unmapped, resized, or re-allocated), in
    /// which case the caller aborts the transfer instead.
    fn finalize_transfer(&mut self, t: &Transfer) -> bool {
        let Some(tr) = self.pt.translate(t.vpage) else {
            return false;
        };
        if tr.size != t.size || tr.frame != t.src_frame {
            return false;
        }
        // Remap exactly as the synchronous path does.
        let old_frame = self.remap(t.vpage, t.size, t.dst_frame);
        self.mode_retain_or_free(t.vpage, old_frame, t.from, t.to, t.size);
        self.count_move(t.from, t.to, t.bytes, t.bytes);
        if self.modes.is_some() {
            self.mode_note_move(t.vpage, t.to.0 < t.from.0, t.end_ns);
        }
        true
    }

    fn abort_common(&mut self, t: Transfer, cause: AbortCause, abort_ns: f64) -> TransferEnd {
        self.tiers[t.to.0 as usize].free(t.dst_frame, t.size);
        self.stats.migration.recopies += t.recopies as u64;
        self.stats.migration.aborted += 1;
        self.stats.migration.aborted_bytes += t.wasted_bytes();
        if let Some(f) = self.flight.as_mut() {
            f.note_abort(t.vpage.0, abort_ns);
        }
        t.end(Some(cause))
    }
}

// The complete machine state: tiers, page table, TLB/LLC (monolithic and
// per-lane), migration engine, fault injector, flight recorder, engine-mode
// state, and counters. The restoring machine must be built from the
// identical configuration; lane/fault/flight/mode presence mismatches are
// corruption. The coalesce memo and the page table's region-map memo are
// pure memos and are excluded (a restored machine starts them cold, which never
// changes simulated results).
memtis_obs::snap_struct!(in Machine {
    @in tiers,
    pt,
    @in lanes,
    @in tlb,
    @in llc,
    @in engine,
    @in faults,
    @in flight,
    flight_skip,
    flight_rng,
    stats,
    @in modes,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::addr::HUGE_PAGE_SIZE;
    use memtis_obs::SnapFields;

    fn machine() -> Machine {
        Machine::new(MachineConfig::dram_nvm(
            4 * HUGE_PAGE_SIZE,
            16 * HUGE_PAGE_SIZE,
        ))
    }

    #[test]
    fn tier_layout_is_contiguous_and_disjoint() {
        let m = machine();
        assert_eq!(m.tier_count(), 2);
        assert_eq!(m.tier_of_frame(Frame(0)), TierId::FAST);
        assert_eq!(m.tier_of_frame(Frame(4 * 512 - 1)), TierId::FAST);
        assert_eq!(m.tier_of_frame(Frame(4 * 512)), TierId::CAPACITY);
        assert_eq!(m.capacity_bytes(TierId::FAST), 4 * HUGE_PAGE_SIZE);
        assert_eq!(m.capacity_bytes(TierId::CAPACITY), 16 * HUGE_PAGE_SIZE);
    }

    #[test]
    fn access_unmapped_faults() {
        let mut m = machine();
        assert!(matches!(
            m.access(Access::load(0x1000)),
            Err(SimError::NotMapped(_))
        ));
    }

    #[test]
    fn access_cost_breakdown() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        // First access: TLB miss (4-level walk) + LLC miss + NVM load.
        let o1 = m.access(Access::load(0)).unwrap();
        assert!(o1.tlb_miss && o1.llc_miss);
        assert_eq!(o1.tier, TierId::CAPACITY);
        assert_eq!(o1.latency_ns, 4.0 * 25.0 + 300.0);
        // Same line again: TLB hit + LLC hit.
        let o2 = m.access(Access::load(8)).unwrap();
        assert!(!o2.tlb_miss && !o2.llc_miss);
        assert_eq!(o2.latency_ns, 30.0);
        // A store misses the line but hits the TLB: NVM store latency.
        let o3 = m.access(Access::store(64)).unwrap();
        assert!(o3.llc_miss && !o3.tlb_miss);
        assert_eq!(o3.latency_ns, 400.0);
    }

    #[test]
    fn access_batch_matches_sequential_accesses() {
        let mut batched = machine();
        let mut oracle = machine();
        for m in [&mut batched, &mut oracle] {
            m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
                .unwrap();
            m.alloc_and_map(VirtPage(512), PageSize::Base, TierId::CAPACITY)
                .unwrap();
        }
        // Same-page load runs (coalesced), interleaved stores and page
        // changes (full path).
        let accesses = vec![
            Access::load(64),
            Access::load(128),
            Access::load(8),
            Access::store(512 * 4096),
            Access::load(512 * 4096 + 32),
            Access::load(512 * 4096 + 8),
            Access::load(4096 * 3),
            Access::store(4096 * 3 + 16),
            Access::load(4096 * 3 + 24),
        ];
        let threads = 4.0;
        let mut clock = BatchClock {
            wall_ns: 0.0,
            app_access_ns: 0.0,
            threads,
            stop_wall_ns: f64::INFINITY,
        };
        let mut recs = Vec::new();
        let events: Vec<_> = accesses
            .iter()
            .map(|&a| crate::driver::WorkloadEvent::Access(a))
            .collect();
        let (n, stop) = batched.access_batch(&events, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n, accesses.len());
        assert!(matches!(stop, BatchStop::Clean));

        let mut wall = 0.0f64;
        let mut app = 0.0f64;
        for (rec, &a) in recs.iter().zip(&accesses) {
            let o = oracle.access(a).unwrap();
            assert_eq!(rec.now_ns.to_bits(), wall.to_bits());
            assert_eq!(rec.outcome.latency_ns.to_bits(), o.latency_ns.to_bits());
            assert_eq!(rec.outcome.vpage, o.vpage);
            assert_eq!(rec.outcome.tier, o.tier);
            assert_eq!(rec.outcome.llc_miss, o.llc_miss);
            assert_eq!(rec.outcome.tlb_miss, o.tlb_miss);
            app += o.latency_ns;
            wall += o.latency_ns / threads;
        }
        assert_eq!(clock.wall_ns.to_bits(), wall.to_bits());
        assert_eq!(clock.app_access_ns.to_bits(), app.to_bits());
        assert_eq!(
            format!("{:?}", batched.stats),
            format!("{:?}", oracle.stats)
        );
    }

    #[test]
    fn access_batch_stops_at_hint_fault_and_unmapped() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        m.set_hint(VirtPage(0));
        let events = [
            crate::driver::WorkloadEvent::Access(Access::load(64)),
            crate::driver::WorkloadEvent::Access(Access::load(0)),
        ];
        let mut clock = BatchClock {
            wall_ns: 0.0,
            app_access_ns: 0.0,
            threads: 1.0,
            stop_wall_ns: f64::INFINITY,
        };
        let mut recs = Vec::new();
        // Index 0 takes the hint fault: executed but not recorded/clocked.
        let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n, 0);
        assert!(recs.is_empty());
        assert_eq!(clock.wall_ns, 0.0);
        match stop {
            BatchStop::Hint(out) => assert!(out.hint_fault),
            other => panic!("expected hint stop, got {other:?}"),
        }
        assert_eq!(m.stats.hint_faults, 1);
        // An unmapped page stops the batch with no side effects; a
        // non-access event stops it cleanly without being consumed.
        let events = [
            crate::driver::WorkloadEvent::Access(Access::load(0)),
            crate::driver::WorkloadEvent::Access(Access::load(99 * 4096)),
        ];
        let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n, 1);
        assert!(matches!(stop, BatchStop::NotMapped));
        assert_eq!(recs.len(), 1);
        let events = [
            crate::driver::WorkloadEvent::Access(Access::load(0)),
            crate::driver::WorkloadEvent::Free {
                addr: crate::addr::VirtAddr(0),
                bytes: 4096,
            },
            crate::driver::WorkloadEvent::Access(Access::load(0)),
        ];
        recs.clear();
        let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n, 1);
        assert!(matches!(stop, BatchStop::Clean));
        assert_eq!(recs.len(), 1);
    }

    /// A sharded burst stops a lane at its first unmapped or hint-armed
    /// page, spills the rest of that lane in stream order, leaves the hint
    /// armed for the serial replay, and marks what the other lanes executed.
    #[test]
    fn access_lanes_stop_a_lane_at_its_first_unmapped_or_armed_page() {
        use crate::driver::WorkloadEvent;
        use crate::shard::lane_of;
        let mut m = machine();
        m.enable_lanes();
        // Region 0: one huge page. Region 1: two base pages, the second
        // hint-armed. Region 2: base page 1025 mapped, 1024 unmapped.
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        for vp in [512, 513, 1025] {
            m.alloc_and_map(VirtPage(vp), PageSize::Base, TierId::FAST)
                .unwrap();
        }
        m.set_hint(VirtPage(513));
        let (huge, armed, unmapped) = (
            lane_of(VirtPage(0)),
            lane_of(VirtPage(512)),
            lane_of(VirtPage(1024)),
        );
        assert!(huge != armed && armed != unmapped && huge != unmapped);
        let page = |vp: u64| vp * 4096;
        let events = [
            Access::load(page(3)),     // 0: executes
            Access::load(page(512)),   // 1: executes
            Access::store(page(513)),  // 2: hint-armed, stops its lane
            Access::store(page(5)),    // 3: executes
            Access::load(page(1024)),  // 4: unmapped, stops its lane
            Access::load(page(512)),   // 5: spills behind index 2
            Access::store(page(1025)), // 6: spills behind index 4
            Access::store(page(7)),    // 7: executes
        ]
        .map(WorkloadEvent::Access);
        let (mut records, mut spilled, mut executed) = (Vec::new(), Vec::new(), [0u64; NUM_LANES]);
        let (prefix, total) = m.access_lanes(
            &events,
            RecordFilter::ALL,
            42.0,
            &mut records,
            &mut spilled,
            &mut executed,
        );
        assert_eq!(prefix, events.len());
        assert_eq!(spilled, [2, 4, 5, 6]);
        assert_eq!(
            (executed[huge], executed[armed], executed[unmapped]),
            (3, 1, 0)
        );
        assert_eq!(executed.iter().sum::<u64>(), 4);
        let recorded: Vec<Access> = records.iter().map(|r| r.access).collect();
        let expect: Vec<Access> = [0, 1, 3, 7]
            .map(|i| match events[i] {
                WorkloadEvent::Access(a) => a,
                _ => unreachable!(),
            })
            .to_vec();
        assert_eq!(recorded, expect);
        assert!(records.iter().all(|r| r.now_ns == 42.0));
        let sum: f64 = records.iter().map(|r| r.outcome.latency_ns).sum();
        assert!(total > 0.0 && (total - sum).abs() < 1e-9);
        assert_eq!(
            (m.stats.loads, m.stats.stores, m.stats.hint_faults),
            (2, 2, 0)
        );

        // Executed accesses set their reference bits; spilled ones did not.
        let h = m.huge_entry(VirtPage(0)).unwrap();
        assert!(h.accessed && h.dirty);
        assert!(h.subpage_written(5) && h.subpage_written(7) && !h.subpage_written(3));
        let pte = |m: &mut Machine, vp: u64| match m.pt.entry_mut(VirtPage(vp)) {
            Some(EntryMut::Base(p)) => *p,
            _ => panic!("base page {vp} not mapped"),
        };
        let p512 = pte(&mut m, 512);
        assert!(p512.accessed && !p512.dirty);
        let p513 = pte(&mut m, 513);
        assert!(p513.hint && !p513.accessed);
        let p1025 = pte(&mut m, 1025);
        assert!(!p1025.accessed && !p1025.dirty);

        // The driver replays the spills in order: the armed page takes its
        // hint fault exactly once, the unmapped one demand-faults.
        let replay: Vec<_> = spilled
            .iter()
            .map(|&i| match events[i as usize] {
                WorkloadEvent::Access(a) => m.access(a).map(|o| o.hint_fault),
                _ => unreachable!(),
            })
            .collect();
        assert!(matches!(
            replay[..],
            [Ok(true), Err(SimError::NotMapped(_)), Ok(false), Ok(false)]
        ));
        assert_eq!(m.stats.hint_faults, 1);
        assert!(pte(&mut m, 1025).dirty);
    }

    #[test]
    fn access_batch_filter_waives_records_not_execution() {
        let mut filtered = machine();
        let mut full = machine();
        for m in [&mut filtered, &mut full] {
            m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
                .unwrap();
        }
        let events = [
            crate::driver::WorkloadEvent::Access(Access::load(0)),
            crate::driver::WorkloadEvent::Access(Access::load(0)),
            crate::driver::WorkloadEvent::Access(Access::store(64)),
            crate::driver::WorkloadEvent::Access(Access::load(0)),
        ];
        let mk_clock = || BatchClock {
            wall_ns: 0.0,
            app_access_ns: 0.0,
            threads: 1.0,
            stop_wall_ns: f64::INFINITY,
        };
        let filter = RecordFilter {
            next: [RecordFilter::OFF, 1, 1],
            period: [RecordFilter::OFF, 1, 1],
            cap: usize::MAX,
        };
        let mut recs = Vec::new();
        let mut clock = mk_clock();
        let (n, _) = filtered.access_batch(&events, &mut recs, &mut clock, filter);
        assert_eq!(n, events.len());
        // The second and fourth loads hit the line the first access pulled
        // in; only the miss load and the store are materialized, and the
        // hits are not tallied either.
        assert_eq!(recs.len(), 2);
        assert!(recs
            .iter()
            .all(|r| r.outcome.llc_miss || r.access.is_store()));
        assert_eq!(filtered.batch_tally(), [0, 1, 1]);
        // Execution is unaffected: clocks and machine statistics match the
        // unfiltered run, and each kept record keeps its original timestamp.
        let mut full_recs = Vec::new();
        let mut full_clock = mk_clock();
        full.access_batch(&events, &mut full_recs, &mut full_clock, RecordFilter::ALL);
        assert_eq!(full_recs.len(), events.len());
        assert_eq!(clock.wall_ns.to_bits(), full_clock.wall_ns.to_bits());
        assert_eq!(format!("{:?}", filtered.stats), format!("{:?}", full.stats));
        let kept: Vec<_> = full_recs
            .iter()
            .filter(|r| filter.counts(RecordFilter::class_of(r.access.kind, r.outcome.llc_miss)))
            .collect();
        assert_eq!(
            format!("{recs:?}"),
            format!("{:?}", kept.iter().map(|r| **r).collect::<Vec<_>>())
        );
    }

    #[test]
    fn access_batch_respects_stop_wall() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        let events = [
            crate::driver::WorkloadEvent::Access(Access::load(0)),
            crate::driver::WorkloadEvent::Access(Access::load(8)),
            crate::driver::WorkloadEvent::Access(Access::load(16)),
        ];
        // First access costs 4*25 + 100 = 200 ns at 1 thread; stop there.
        let mut clock = BatchClock {
            wall_ns: 0.0,
            app_access_ns: 0.0,
            threads: 1.0,
            stop_wall_ns: 150.0,
        };
        let mut recs = Vec::new();
        let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n, 1);
        assert!(matches!(stop, BatchStop::Clean));
        assert!(clock.wall_ns >= 150.0);
    }

    /// The program counts each class down to its next record, re-arms it
    /// with its period, tallies every counted event, and ends the burst
    /// right after the cap'th record.
    #[test]
    fn access_batch_counts_down_to_records_and_stops_at_the_cap() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        // Loads of fresh lines miss the LLC; every fourth access is a store.
        let events: Vec<_> = (0..40u64)
            .map(|i| {
                let a = if i % 4 == 3 {
                    Access::store(i * 64)
                } else {
                    Access::load(i * 64)
                };
                crate::driver::WorkloadEvent::Access(a)
            })
            .collect();
        let mut clock = BatchClock {
            wall_ns: 0.0,
            app_access_ns: 0.0,
            threads: 1.0,
            stop_wall_ns: f64::INFINITY,
        };
        let filter = RecordFilter {
            next: [RecordFilter::OFF, 2, 1],
            period: [RecordFilter::OFF, 5, 3],
            cap: 4,
        };
        let mut recs = Vec::new();
        let (n, stop) = m.access_batch(&events, &mut recs, &mut clock, filter);
        assert!(matches!(stop, BatchStop::Clean));
        // Misses fire at the 2nd, 7th and 12th miss (accesses 1, 8 and
        // 14), stores at the 1st store (access 3); the 4th record is
        // access 14, where the burst stops.
        let idx: Vec<u64> = recs.iter().map(|r| r.access.vaddr.0 / 64).collect();
        assert_eq!(idx, vec![1, 3, 8, 14]);
        assert_eq!(n, 15);
        assert_eq!(m.batch_tally(), [0, 12, 3]);
        // Uncapped, the rest of the slice runs and the tally covers it.
        let rest = &events[n..];
        recs.clear();
        let (n2, _) = m.access_batch(rest, &mut recs, &mut clock, RecordFilter::ALL);
        assert_eq!(n2, rest.len());
        assert_eq!(recs.len(), rest.len());
        assert_eq!(m.batch_tally(), [0, 18, 7]);
    }

    #[test]
    fn huge_mapping_walks_three_levels() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        let o = m.access(Access::load(5 * 4096)).unwrap();
        assert_eq!(o.page_size, PageSize::Huge);
        assert_eq!(o.latency_ns, 3.0 * 25.0 + 100.0);
    }

    #[test]
    fn store_marks_subpage_written() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.access(Access::store(17 * 4096 + 5)).unwrap();
        let h = m.huge_entry(VirtPage(0)).unwrap();
        assert!(h.subpage_written(17));
        assert!(!h.subpage_written(16));
    }

    #[test]
    fn migrate_moves_page_and_preserves_flags() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.access(Access::store(3 * 4096)).unwrap();
        let out = m.migrate(VirtPage(3), TierId::FAST).unwrap();
        assert_eq!(out.from, TierId::CAPACITY);
        assert_eq!(out.to, TierId::FAST);
        assert!(out.cost_ns > 0.0);
        let (tier, size) = m.locate(VirtPage(3)).unwrap();
        assert_eq!(tier, TierId::FAST);
        assert_eq!(size, PageSize::Base);
        // The ever-written bit survived.
        if let Some(EntryMut::Base(p)) = m.pt.entry_mut(VirtPage(3)) {
            assert!(p.ever_written);
        } else {
            panic!("expected base mapping");
        }
        assert_eq!(m.stats.migration.promoted_4k, 1);
        // Free space accounting moved between tiers.
        assert_eq!(m.free_bytes(TierId::CAPACITY), 16 * HUGE_PAGE_SIZE);
    }

    #[test]
    fn migrate_to_full_tier_fails() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        assert!(matches!(
            m.migrate(VirtPage(512), TierId::FAST),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn split_frees_zero_subpages() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        // Write only 3 subpages.
        for i in [0u64, 7, 500] {
            m.access(Access::store(i * 4096)).unwrap();
        }
        let rss_before = m.rss_bytes();
        let out = m.split_huge(VirtPage(0), true).unwrap();
        assert_eq!(out.zero_subpages_freed, 509);
        assert_eq!(m.rss_bytes(), rss_before - 509 * 4096);
        // Written subpages still mapped, now as base pages, same tier.
        assert_eq!(m.locate(VirtPage(7)), Some((TierId::FAST, PageSize::Base)));
        assert_eq!(m.locate(VirtPage(1)), None);
        // Freed frames are allocatable again.
        assert_eq!(m.free_bytes(TierId::FAST), 3 * HUGE_PAGE_SIZE + 509 * 4096);
    }

    #[test]
    fn split_then_migrate_subpages_individually() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        for i in 0..512u64 {
            m.access(Access::store(i * 4096)).unwrap();
        }
        m.split_huge(VirtPage(0), true).unwrap();
        let out = m.migrate(VirtPage(9), TierId::FAST).unwrap();
        assert_eq!(out.to, TierId::FAST);
        assert_eq!(m.locate(VirtPage(9)), Some((TierId::FAST, PageSize::Base)));
        assert_eq!(
            m.locate(VirtPage(10)),
            Some((TierId::CAPACITY, PageSize::Base))
        );
    }

    #[test]
    fn collapse_gathers_scattered_subpages() {
        let mut m = machine();
        for i in 0..512u64 {
            let tier = if i % 2 == 0 {
                TierId::FAST
            } else {
                TierId::CAPACITY
            };
            m.alloc_and_map(VirtPage(i), PageSize::Base, tier).unwrap();
        }
        let out = m.collapse_huge(VirtPage(0), TierId::FAST).unwrap();
        assert_eq!(out.to, TierId::FAST);
        assert_eq!(m.locate(VirtPage(77)), Some((TierId::FAST, PageSize::Huge)));
        assert_eq!(m.mapped_huge_pages(), 1);
        assert_eq!(m.mapped_base_pages(), 0);
    }

    #[test]
    fn hint_fault_fires_once() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        assert!(m.set_hint(VirtPage(0)));
        let o1 = m.access(Access::load(0)).unwrap();
        assert!(o1.hint_fault);
        assert!(o1.latency_ns >= 300.0);
        let o2 = m.access(Access::load(0)).unwrap();
        assert!(!o2.hint_fault);
        assert_eq!(m.stats.hint_faults, 1);
    }

    #[test]
    fn fallback_allocation_order() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE));
        let order = [TierId::FAST, TierId::CAPACITY];
        let (t1, _) = m
            .alloc_and_map_fallback(VirtPage(0), PageSize::Huge, &order)
            .unwrap();
        assert_eq!(t1, TierId::FAST);
        let (t2, _) = m
            .alloc_and_map_fallback(VirtPage(512), PageSize::Huge, &order)
            .unwrap();
        assert_eq!(t2, TierId::CAPACITY);
        let (t3, _) = m
            .alloc_and_map_fallback(VirtPage(1024), PageSize::Huge, &order)
            .unwrap();
        assert_eq!(t3, TierId::CAPACITY);
        assert!(matches!(
            m.alloc_and_map_fallback(VirtPage(1536), PageSize::Huge, &order),
            Err(SimError::GlobalOutOfMemory)
        ));
    }

    #[test]
    fn unmap_and_free_returns_space() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        let before = m.free_bytes(TierId::FAST);
        m.unmap_and_free(VirtPage(0), PageSize::Huge).unwrap();
        assert_eq!(m.free_bytes(TierId::FAST), before + HUGE_PAGE_SIZE);
        assert_eq!(m.rss_bytes(), 0);
    }

    #[test]
    fn fast_path_matches_reference_on_mixed_sequence() {
        // Deterministic smoke version of the equivalence property test:
        // identical machines, one driven by the fast path and one by the
        // reference path, must agree on every outcome and final stats.
        let mut fast = machine();
        let mut refm = machine();
        for m in [&mut fast, &mut refm] {
            m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
                .unwrap();
            m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
                .unwrap();
            m.alloc_and_map(VirtPage(2048), PageSize::Base, TierId::CAPACITY)
                .unwrap();
            m.set_hint(VirtPage(512));
        }
        let mut x = 12345u64;
        for step in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = match x % 3 {
                0 => (x >> 8) % (512 * 4096),
                1 => 512 * 4096 + (x >> 8) % (512 * 4096),
                _ => 2048 * 4096 + (x >> 8) % 4096,
            };
            let acc = if x.is_multiple_of(5) {
                Access::store(addr)
            } else {
                Access::load(addr)
            };
            let a = fast.access(acc).unwrap();
            let b = refm.access_reference(acc).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "diverged at step {step}"
            );
            if step == 2000 {
                // Interleave a migration to exercise cache invalidation.
                let _ = fast.migrate(VirtPage(2048), TierId::FAST);
                let _ = refm.migrate(VirtPage(2048), TierId::FAST);
            }
        }
        assert_eq!(format!("{:?}", fast.stats), format!("{:?}", refm.stats));
        assert_eq!(
            format!("{:?}", fast.tlb_stats()),
            format!("{:?}", refm.tlb_stats())
        );
        assert_eq!(
            format!("{:?}", fast.llc_stats()),
            format!("{:?}", refm.llc_stats())
        );
    }

    fn async_machine() -> Machine {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0); // 1 byte/ns -> 4096 ns per base page
        Machine::new(cfg)
    }

    #[test]
    fn unlimited_enqueue_is_bit_identical_to_sync_migrate() {
        // The regression oracle: with no bandwidth limit the enqueue path
        // must reproduce the synchronous path exactly — same outcome, same
        // stats, same machine state.
        let mut sync = machine();
        let mut asy = machine();
        for m in [&mut sync, &mut asy] {
            m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
                .unwrap();
            m.access(Access::store(3 * 4096)).unwrap();
        }
        let a = sync.migrate(VirtPage(3), TierId::FAST).unwrap();
        let b = asy
            .enqueue_migration(VirtPage(3), TierId::FAST, 7, 123.0)
            .unwrap();
        assert!(b.is_done());
        assert_eq!(format!("{a:?}"), format!("{:?}", *b.outcome().unwrap()));
        assert_eq!(format!("{:?}", sync.stats), format!("{:?}", asy.stats));
        assert!(asy.transfers_idle());
        assert!(asy.pump_transfers(1e9).is_empty());
    }

    #[test]
    fn async_transfer_copies_then_remaps() {
        let mut m = async_machine();
        m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        let h = m
            .enqueue_migration(VirtPage(3), TierId::FAST, 0, 0.0)
            .unwrap();
        let id = h.transfer_id().expect("in flight");
        assert_eq!(m.transfer_for(VirtPage(3)), Some(id));
        // The destination frame is reserved immediately...
        assert_eq!(m.free_bytes(TierId::FAST), 4 * HUGE_PAGE_SIZE - 4096);
        // ...but the page still translates to the source tier mid-copy.
        let ev = m.pump_transfers(100.0);
        assert!(matches!(&ev[..], [EngineEvent::Started { .. }]));
        assert_eq!(
            m.locate(VirtPage(3)),
            Some((TierId::CAPACITY, PageSize::Base))
        );
        assert_eq!(m.stats.migration.promoted_4k, 0);
        // At 1 byte/ns the 4096-byte copy finishes at t=4096.
        let ev = m.pump_transfers(5000.0);
        assert!(matches!(&ev[..], [EngineEvent::Ended(e)] if e.id == id && e.aborted.is_none()));
        assert_eq!(m.locate(VirtPage(3)), Some((TierId::FAST, PageSize::Base)));
        assert_eq!(m.stats.migration.promoted_4k, 1);
        assert_eq!(m.stats.migration.in_flight_peak, 1);
        assert_eq!(m.free_bytes(TierId::CAPACITY), 16 * HUGE_PAGE_SIZE);
        assert!(m.transfers_idle());
    }

    #[test]
    fn store_mid_copy_forces_recopy_then_abort() {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        cfg.migration.max_recopies = 1;
        let mut m = Machine::new(cfg);
        m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(3), TierId::FAST, 0, 0.0)
            .unwrap();
        m.pump_transfers(10.0);
        m.access(Access::store(3 * 4096)).unwrap(); // dirties pass 1
        let ev = m.pump_transfers(4096.0);
        assert!(ev.is_empty(), "dirty pass restarts silently");
        m.access(Access::store(3 * 4096)).unwrap(); // dirties pass 2
        let ev = m.pump_transfers(8192.0);
        assert!(matches!(
            &ev[..],
            [EngineEvent::Ended(e)] if e.aborted == Some(AbortCause::Dirty) && e.wasted_bytes == 2 * 4096
        ));
        // Reservation released; page untouched on its source tier.
        assert_eq!(m.free_bytes(TierId::FAST), 4 * HUGE_PAGE_SIZE);
        assert_eq!(
            m.locate(VirtPage(3)),
            Some((TierId::CAPACITY, PageSize::Base))
        );
        assert_eq!(m.stats.migration.aborted, 1);
        assert_eq!(m.stats.migration.aborted_bytes, 2 * 4096);
        assert_eq!(m.stats.migration.recopies, 1);
    }

    #[test]
    fn abort_releases_reservation_and_duplicates_are_rejected() {
        let mut m = async_machine();
        m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        let h = m
            .enqueue_migration(VirtPage(3), TierId::FAST, 0, 0.0)
            .unwrap();
        assert!(matches!(
            m.enqueue_migration(VirtPage(3), TierId::FAST, 0, 0.0),
            Err(SimError::InFlight(_))
        ));
        let end = m.abort_transfer(h.transfer_id().unwrap(), 5.0).unwrap();
        assert_eq!(end.aborted, Some(AbortCause::Cancelled));
        assert_eq!(m.free_bytes(TierId::FAST), 4 * HUGE_PAGE_SIZE);
        assert_eq!(m.stats.migration.aborted, 1);
        // A fresh enqueue is accepted again.
        assert!(m
            .enqueue_migration(VirtPage(3), TierId::FAST, 0, 6.0)
            .is_ok());
    }

    #[test]
    fn unmap_during_copy_supersedes_transfer() {
        let mut m = async_machine();
        m.alloc_and_map(VirtPage(3), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(3), TierId::FAST, 0, 0.0)
            .unwrap();
        m.pump_transfers(10.0);
        m.unmap_and_free(VirtPage(3), PageSize::Base).unwrap();
        let ev = m.pump_transfers(1e9);
        assert!(matches!(
            &ev[..],
            [EngineEvent::Ended(e)] if e.aborted == Some(AbortCause::Superseded)
        ));
        assert_eq!(m.free_bytes(TierId::FAST), 4 * HUGE_PAGE_SIZE);
        assert_eq!(m.free_bytes(TierId::CAPACITY), 16 * HUGE_PAGE_SIZE);
        assert_eq!(m.rss_bytes(), 0);
    }

    #[test]
    fn queue_admission_is_bounded() {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        cfg.migration.queue_depth = 2;
        let mut m = Machine::new(cfg);
        for v in 0..3u64 {
            m.alloc_and_map(VirtPage(v), PageSize::Base, TierId::CAPACITY)
                .unwrap();
        }
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        m.enqueue_migration(VirtPage(1), TierId::FAST, 0, 0.0)
            .unwrap();
        assert!(matches!(
            m.enqueue_migration(VirtPage(2), TierId::FAST, 0, 0.0),
            Err(SimError::QueueFull)
        ));
        // Back-pressure is not a failure.
        assert_eq!(m.stats.migration.failed, 0);
        // Once one transfer starts copying, a queue slot frees up.
        m.pump_transfers(1.0);
        assert!(m
            .enqueue_migration(VirtPage(2), TierId::FAST, 0, 1.0)
            .is_ok());
        assert_eq!(m.stats.migration.in_flight_peak, 3);
    }

    #[test]
    fn contention_penalty_applies_only_while_copying() {
        let mut m = async_machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.alloc_and_map(VirtPage(1), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        let quiet = m.access(Access::load(0)).unwrap();
        m.enqueue_migration(VirtPage(1), TierId::FAST, 0, 0.0)
            .unwrap();
        m.pump_transfers(10.0); // transfer now copying on the DRAM<->NVM link
        let contended = m.access(Access::load(2 * 64)).unwrap();
        assert!(contended.llc_miss);
        assert_eq!(
            contended.latency_ns,
            quiet.latency_ns - 4.0 * 25.0 + 25.0,
            "TLB now hits; the LLC miss pays the contention penalty"
        );
    }

    #[test]
    fn access_kinds_counted() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        m.access(Access {
            vaddr: crate::addr::VirtAddr(0),
            kind: AccessKind::Load,
        })
        .unwrap();
        m.access(Access::store(0)).unwrap();
        assert_eq!(m.stats.loads, 1);
        assert_eq!(m.stats.stores, 1);
    }

    // -----------------------------------------------------------------
    // Engine modes: shadow copies, hysteresis.
    // -----------------------------------------------------------------

    fn shadow_machine() -> Machine {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.shadow = true;
        Machine::new(cfg)
    }

    #[test]
    fn shadow_retained_on_promotion_enables_free_demotion() {
        let mut m = shadow_machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        let rss = m.rss_bytes();
        let h = m
            .enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        assert!(h.is_done());
        assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Huge)));
        // The clean source copy stays behind as a shadow.
        assert_eq!(m.shadow_count(), 1);
        assert_eq!(m.shadow_bytes(), HUGE_PAGE_SIZE);
        assert_eq!(m.stats.migration.shadow_retained_4k, 512);
        assert_eq!(m.used_bytes(TierId::CAPACITY), HUGE_PAGE_SIZE);
        // Cold again: demotion is a remap, not a copy.
        let h = m
            .enqueue_migration(VirtPage(0), TierId::CAPACITY, 0, 10.0)
            .unwrap();
        let out = h.outcome().expect("free demotion completes inline");
        assert_eq!(out.bytes, 0);
        assert_eq!(out.cost_ns, m.config().costs.tlb_shootdown_ns);
        assert_eq!(m.shadow_count(), 0);
        assert_eq!(m.stats.migration.shadow_free_demotions_4k, 512);
        assert_eq!(m.stats.migration.demoted_4k, 512);
        assert_eq!(
            m.locate(VirtPage(0)),
            Some((TierId::CAPACITY, PageSize::Huge))
        );
        assert_eq!(m.used_bytes(TierId::FAST), 0);
        assert_eq!(m.rss_bytes(), rss);
        assert_eq!(m.used_bytes(TierId::CAPACITY), rss);
    }

    #[test]
    fn store_invalidates_shadow_and_emits_reclaim_event() {
        let mut m = shadow_machine();
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        assert_eq!(m.shadow_count(), 1);
        // A write makes the retained source copy stale.
        m.access(Access::store(64)).unwrap();
        assert_eq!(m.shadow_count(), 0);
        assert_eq!(m.stats.migration.shadow_reclaimed_4k, 512);
        assert_eq!(m.used_bytes(TierId::CAPACITY), 0);
        assert!(m.has_pending_shadow_events());
        let ev = m.pump_transfers(1.0);
        assert!(matches!(
            &ev[..],
            [EngineEvent::ShadowReclaimed { vpage, tier, bytes }]
                if *vpage == VirtPage(0)
                    && *tier == TierId::CAPACITY
                    && *bytes == HUGE_PAGE_SIZE
        ));
        assert!(!m.has_pending_shadow_events());
    }

    #[test]
    fn shadow_frames_are_reclaimed_under_allocation_pressure() {
        let mut m = shadow_machine();
        for i in 0..16u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY)
                .unwrap();
        }
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        // 15 mapped pages + 1 shadow: the capacity tier is still full.
        assert_eq!(m.free_bytes(TierId::CAPACITY), 0);
        assert_eq!(m.shadow_count(), 1);
        // Real demand evicts the shadow instead of failing.
        m.alloc_and_map(VirtPage(100 * 512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        assert_eq!(m.shadow_count(), 0);
        assert_eq!(m.stats.migration.shadow_reclaimed_4k, 512);
    }

    #[test]
    fn shadow_dirty_transfer_aborts_without_recopy() {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.shadow = true;
        cfg.migration.bandwidth_limit = Some(1.0);
        let mut m = Machine::new(cfg);
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        m.pump_transfers(10.0); // copying
        m.access(Access::store(0)).unwrap(); // dirties the pass
        let ev = m.pump_transfers(1e9);
        // Transactional abort: the source copy stayed authoritative, so the
        // dirty pass rolls back with no re-copy and no wasted bytes.
        assert!(matches!(
            &ev[..],
            [EngineEvent::Ended(e)]
                if e.aborted == Some(AbortCause::Dirty) && e.wasted_bytes == 0
        ));
        assert_eq!(
            m.locate(VirtPage(0)),
            Some((TierId::CAPACITY, PageSize::Base))
        );
        assert_eq!(m.used_bytes(TierId::FAST), 0);
        assert_eq!(m.shadow_count(), 0);
        assert!(m.transfers_idle());
    }

    #[test]
    fn hysteresis_rejects_pingpong_repromotion() {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.hysteresis = Some(crate::config::HysteresisConfig::default());
        let mut m = Machine::new(cfg);
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 1_000.0)
            .unwrap();
        // Demotion 0.5 ms later is inside the 2 ms window: strike one.
        m.enqueue_migration(VirtPage(0), TierId::CAPACITY, 0, 500_000.0)
            .unwrap();
        assert!(matches!(
            m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 1_000_000.0),
            Err(SimError::PromotionBackoff(VirtPage(0)))
        ));
        assert_eq!(m.stats.migration.promotion_backoffs, 1);
        assert_eq!(m.last_promotion_backoff_until(), 2_500_000.0);
        assert_eq!(m.stats.migration.failed, 0);
        // Once the backoff lapses the promotion goes through.
        assert!(m
            .enqueue_migration(VirtPage(0), TierId::FAST, 0, 3_000_000.0)
            .is_ok());
    }

    #[test]
    fn machine_snapshot_round_trips_mode_state() {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.shadow = true;
        cfg.migration.hysteresis = Some(crate::config::HysteresisConfig::default());
        let mut m = Machine::new(cfg.clone());
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 100_000.0)
            .unwrap();
        assert_eq!(m.shadow_count(), 1);

        let mut w = memtis_obs::SnapWriter::new();
        m.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut m2 = Machine::new(cfg);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        m2.load_fields(&mut r).unwrap();

        assert_eq!(m2.shadow_count(), 1);
        assert_eq!(m2.shadow_bytes(), HUGE_PAGE_SIZE);
        assert_eq!(m2.used_bytes(TierId::CAPACITY), HUGE_PAGE_SIZE);
        // The restored shadow still satisfies a demotion by remapping.
        let h = m2
            .enqueue_migration(VirtPage(0), TierId::CAPACITY, 0, 200_000.0)
            .unwrap();
        assert_eq!(h.outcome().expect("free demotion").bytes, 0);
        assert_eq!(m2.shadow_count(), 0);
    }

    #[test]
    fn modes_off_machine_snapshot_loads_into_modes_on_machine_fails() {
        let mut m = machine();
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::FAST)
            .unwrap();
        let mut w = memtis_obs::SnapWriter::new();
        m.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        cfg.migration.shadow = true;
        let mut m2 = Machine::new(cfg);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        assert!(m2.load_fields(&mut r).is_err());
    }
}
