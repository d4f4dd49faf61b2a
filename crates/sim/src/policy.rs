//! The tiering-policy interface and the cost-attributing operations handle.
//!
//! A [`TieringPolicy`] observes allocations, sampled accesses, hint faults,
//! and periodic ticks, and reacts through a [`PolicyOps`] handle. Every
//! mutating machine operation performed through the handle is *charged*:
//! its nanosecond cost accumulates into either the application critical path
//! (fault-context hooks) or the background-daemon budget (tick/sample
//! context). This is how the simulator distinguishes systems that migrate in
//! the page-fault handler (AutoNUMA, TPP, ...) from MEMTIS, whose entire
//! pipeline runs in the background (§4.2.3).

use crate::access::{Access, AccessOutcome, AccessRecord, RecordFilter};
use crate::addr::{PageSize, TierId, VirtAddr, VirtPage, HUGE_PAGE_SIZE, NR_SUBPAGES};
use crate::engine::{AbortCause, MigrationHandle, TransferEnd, TransferId};
use crate::error::{SimError, SimResult};
use crate::machine::{Machine, MigrateOutcome, SplitOutcome};
use crate::page_table::EntryMut;
use memtis_obs::profile::{SpanGuard, SpanId};
use memtis_obs::{Event, EventKind, MigrationFailure, Observer, ShootdownCause};

/// Cost of visiting one page-table entry during a scan (ns).
pub const SCAN_ENTRY_NS: f64 = 5.0;

/// Where an operation's cost is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostSink {
    /// Application critical path (fault handlers, allocation path).
    App,
    /// Background daemon CPU (sampling threads, migration threads).
    Daemon,
}

/// Static description of a policy for the paper's Table 1 taxonomy.
#[derive(Debug, Clone)]
pub struct PolicyDescriptor {
    /// System name as used in the paper.
    pub name: &'static str,
    /// Access-tracking mechanism.
    pub mechanism: &'static str,
    /// Whether subpage (4 KiB within 2 MiB) accesses are tracked.
    pub subpage_tracking: bool,
    /// Promotion hotness metric.
    pub promotion_metric: &'static str,
    /// Demotion metric.
    pub demotion_metric: &'static str,
    /// How hotness thresholds are chosen.
    pub thresholding: &'static str,
    /// Which migrations run on the critical path ("None" if all background).
    pub critical_path_migration: &'static str,
    /// How page size is handled.
    pub page_size_handling: &'static str,
}

/// Accounting accumulators shared between the driver and [`PolicyOps`].
#[derive(Debug, Default, Clone)]
pub struct CostAccounting {
    /// Nanoseconds charged to the application critical path by policy work.
    pub app_extra_ns: f64,
    /// Nanoseconds of background-daemon CPU consumed.
    pub daemon_ns: f64,
}

/// Handle through which a policy inspects and mutates the machine.
pub struct PolicyOps<'a> {
    machine: &'a mut Machine,
    acct: &'a mut CostAccounting,
    sink: CostSink,
    now_ns: f64,
    obs: Option<&'a mut dyn Observer>,
}

impl<'a> PolicyOps<'a> {
    /// Creates a handle with no observer attached; used by the driver (and
    /// tests).
    pub fn new(
        machine: &'a mut Machine,
        acct: &'a mut CostAccounting,
        sink: CostSink,
        now_ns: f64,
    ) -> Self {
        PolicyOps {
            machine,
            acct,
            sink,
            now_ns,
            obs: None,
        }
    }

    /// Creates a handle that routes trace events to `obs`.
    pub fn with_observer(
        machine: &'a mut Machine,
        acct: &'a mut CostAccounting,
        sink: CostSink,
        now_ns: f64,
        obs: Option<&'a mut dyn Observer>,
    ) -> Self {
        PolicyOps {
            machine,
            acct,
            sink,
            now_ns,
            obs,
        }
    }

    /// Whether an enabled observer is attached. Emission sites check this
    /// before building an event, so untraced runs skip the construction.
    #[inline]
    pub fn tracing(&self) -> bool {
        match &self.obs {
            Some(o) => o.enabled(),
            None => false,
        }
    }

    /// Records a trace event at the current simulated time. No-op without
    /// an enabled observer.
    #[inline]
    pub fn emit(&mut self, kind: EventKind) {
        if let Some(o) = self.obs.as_deref_mut() {
            if o.enabled() {
                o.record(Event::new(self.now_ns, kind));
            }
        }
    }

    /// Opens a self-profiling span attributed to `id`, if the attached
    /// observer carries a profiler. `None` (no work at all) otherwise —
    /// in particular always `None` on untraced runs.
    #[inline]
    pub fn span(&self, id: SpanId) -> Option<SpanGuard> {
        self.obs
            .as_deref()
            .and_then(|o| o.profiler())
            .map(|p| p.enter(id))
    }

    /// Current simulated wall-clock time (ns).
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Rewinds/advances the handle's notion of "now" (ns). The batched
    /// driver builds one handle per chunk and replays each deferred access
    /// at its recorded delivery time, so charges and trace events carry the
    /// same timestamps the per-event loop would have produced.
    #[inline]
    pub fn set_now(&mut self, now_ns: f64) {
        self.now_ns = now_ns;
    }

    /// Which sink costs are currently charged to.
    pub fn sink(&self) -> CostSink {
        self.sink
    }

    /// Read-only view of the machine.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Charges `ns` of CPU time to the current sink.
    pub fn charge(&mut self, ns: f64) {
        match self.sink {
            CostSink::App => self.acct.app_extra_ns += ns,
            CostSink::Daemon => self.acct.daemon_ns += ns,
        }
    }

    /// Requests a migration at default (lowest) priority.
    ///
    /// This is the sync-completion shim most policies use: with the engine
    /// disabled (no bandwidth limit) the returned handle is always
    /// [`MigrationHandle::Done`] and behavior is identical to the old
    /// synchronous `migrate`; under bandwidth arbitration the move becomes
    /// an in-flight transfer whose completion or abort is reported through
    /// [`TieringPolicy::on_transfer_end`].
    pub fn migrate(&mut self, vpage: VirtPage, dst: TierId) -> SimResult<MigrationHandle> {
        self.enqueue_migration(vpage, dst, 0)
    }

    /// Requests a migration with an explicit arbitration priority (higher
    /// wins the link first; ties resolve in admission order).
    ///
    /// Synchronous completion charges the copy cost to the current sink and
    /// traces the legacy `Promotion`/`Demotion` + `TlbShootdown` pair.
    /// Asynchronous admission charges nothing here — the copy occupies link
    /// bandwidth, not daemon CPU — and traces `MigrationEnqueued`; failure
    /// traces `MigrationFailed` with the mapped cause.
    pub fn enqueue_migration(
        &mut self,
        vpage: VirtPage,
        dst: TierId,
        priority: u8,
    ) -> SimResult<MigrationHandle> {
        match self
            .machine
            .enqueue_migration(vpage, dst, priority, self.now_ns)
        {
            Ok(MigrationHandle::Done(out)) => {
                self.charge(out.cost_ns);
                if self.tracing() {
                    let kind = if out.to.0 < out.from.0 {
                        EventKind::Promotion {
                            vpage: vpage.0,
                            from: out.from.0,
                            to: out.to.0,
                            bytes: out.bytes,
                        }
                    } else {
                        EventKind::Demotion {
                            vpage: vpage.0,
                            from: out.from.0,
                            to: out.to.0,
                            bytes: out.bytes,
                        }
                    };
                    self.emit(kind);
                    self.emit(EventKind::TlbShootdown {
                        vpage: vpage.0,
                        cause: ShootdownCause::Migration,
                    });
                }
                Ok(MigrationHandle::Done(out))
            }
            Ok(
                h @ MigrationHandle::InFlight {
                    from, to, bytes, ..
                },
            ) => {
                if self.tracing() {
                    let queue_depth = self.machine.transfer_queue_len() as u64;
                    self.emit(EventKind::MigrationEnqueued {
                        vpage: vpage.0,
                        from: from.0,
                        to: to.0,
                        bytes,
                        queue_depth,
                    });
                }
                Ok(h)
            }
            // Hysteresis back-pressure gets a dedicated event carrying the
            // backoff deadline; it is not a `MigrationFailed`.
            Err(e @ SimError::PromotionBackoff(_)) => {
                if self.tracing() {
                    self.emit(EventKind::PromotionBackoff {
                        vpage: vpage.0,
                        until_ns: self.machine.last_promotion_backoff_until(),
                    });
                }
                Err(e)
            }
            Err(e) => {
                if self.tracing() {
                    self.emit(EventKind::MigrationFailed {
                        vpage: vpage.0,
                        to: dst.0,
                        cause: failure_cause(&e),
                    });
                }
                Err(e)
            }
        }
    }

    /// Aborts a queued or copying transfer (e.g. the page is no longer
    /// worth moving). Returns the terminal record, or `None` if the id is
    /// unknown — it already completed or aborted.
    pub fn abort_transfer(&mut self, id: TransferId) -> Option<TransferEnd> {
        let end = self.machine.abort_transfer(id, self.now_ns)?;
        if self.tracing() {
            self.emit(EventKind::MigrationAborted {
                vpage: end.vpage.0,
                to: end.to.0,
                bytes: end.bytes,
                wasted_bytes: end.wasted_bytes,
                cause: abort_failure(end.aborted.unwrap_or(AbortCause::Cancelled)),
            });
        }
        Some(end)
    }

    /// The transfer covering base page `vpage`, if any.
    pub fn transfer_for(&self, vpage: VirtPage) -> Option<TransferId> {
        self.machine.transfer_for(vpage)
    }

    /// Transfers currently queued behind the engine's links.
    pub fn transfer_queue_len(&self) -> usize {
        self.machine.transfer_queue_len()
    }

    /// Splits a huge page; the cost is charged to the current sink.
    pub fn split_huge(
        &mut self,
        vpage: VirtPage,
        free_zero_subpages: bool,
    ) -> SimResult<SplitOutcome> {
        let out = self.machine.split_huge(vpage, free_zero_subpages)?;
        self.charge(out.cost_ns);
        if self.tracing() {
            let tier = self.machine.locate(vpage).map(|(t, _)| t.0).unwrap_or(0);
            self.emit(EventKind::Split {
                vpage: vpage.0,
                tier,
                zero_subpages_freed: out.zero_subpages_freed,
            });
            self.emit(EventKind::TlbShootdown {
                vpage: vpage.0,
                cause: ShootdownCause::Split,
            });
        }
        Ok(out)
    }

    /// Collapses 512 base pages into a huge page on `tier`; cost charged.
    pub fn collapse_huge(&mut self, vpage: VirtPage, tier: TierId) -> SimResult<MigrateOutcome> {
        match self.machine.collapse_huge(vpage, tier) {
            Ok(out) => {
                self.charge(out.cost_ns);
                if self.tracing() {
                    self.emit(EventKind::Collapse {
                        vpage: vpage.0,
                        tier: out.to.0,
                    });
                    self.emit(EventKind::TlbShootdown {
                        vpage: vpage.0,
                        cause: ShootdownCause::Collapse,
                    });
                }
                Ok(out)
            }
            Err(e) => {
                if self.tracing() {
                    self.emit(EventKind::MigrationFailed {
                        vpage: vpage.0,
                        to: tier.0,
                        cause: failure_cause(&e),
                    });
                }
                Err(e)
            }
        }
    }

    /// Records that a queued migration candidate was dropped at
    /// re-validation (the page was freed, reclassified, or already moved
    /// since it was enqueued). Counts into
    /// [`crate::stats::MigrationStats::cancelled`] unconditionally — traced
    /// and untraced runs keep identical stats — and traces a
    /// `MigrationFailed { cause: Cancelled }` event.
    pub fn cancel_migration(&mut self, vpage: VirtPage, dst: TierId) {
        self.machine.stats.migration.cancelled += 1;
        if self.tracing() {
            self.emit(EventKind::MigrationFailed {
                vpage: vpage.0,
                to: dst.0,
                cause: MigrationFailure::Cancelled,
            });
        }
    }

    /// Arms a NUMA-hint fault on the mapping covering `vpage`.
    pub fn set_hint(&mut self, vpage: VirtPage) -> bool {
        self.machine.set_hint(vpage)
    }

    /// Scans all mapped page-table entries, charging [`SCAN_ENTRY_NS`] per
    /// visited entry — the cost that makes PT scanning unscalable for large
    /// memory (Insight #1).
    pub fn scan_entries(&mut self, mut f: impl FnMut(VirtPage, EntryMut<'_>)) {
        let mut n = 0u64;
        self.machine.scan_entries(|v, e| {
            n += 1;
            f(v, e)
        });
        self.charge(n as f64 * SCAN_ENTRY_NS);
    }

    /// Convenience: tier and mapping size of `vpage`.
    pub fn locate(&self, vpage: VirtPage) -> Option<(TierId, PageSize)> {
        self.machine.locate(vpage)
    }

    /// Free bytes on `tier`.
    pub fn free_bytes(&self, tier: TierId) -> u64 {
        self.machine.free_bytes(tier)
    }

    /// Capacity of `tier` in bytes.
    pub fn capacity_bytes(&self, tier: TierId) -> u64 {
        self.machine.capacity_bytes(tier)
    }
}

/// Maps a machine error to the traced migration-failure cause.
fn failure_cause(e: &SimError) -> MigrationFailure {
    match e {
        SimError::OutOfMemory { .. } | SimError::GlobalOutOfMemory => MigrationFailure::OutOfMemory,
        SimError::NotMapped(_) | SimError::WrongPageSize { .. } => MigrationFailure::NotMapped,
        SimError::Unaligned(_) => MigrationFailure::Unaligned,
        SimError::SameTier(_) => MigrationFailure::SameTier,
        _ => MigrationFailure::Other,
    }
}

/// Maps an engine abort cause to the traced migration-failure cause.
pub fn abort_failure(cause: AbortCause) -> MigrationFailure {
    match cause {
        AbortCause::Cancelled => MigrationFailure::Cancelled,
        AbortCause::Dirty => MigrationFailure::Dirty,
        AbortCause::Superseded => MigrationFailure::Superseded,
    }
}

/// A tiered-memory management policy.
///
/// All hooks receive a [`PolicyOps`] whose cost sink is pre-set by the
/// driver: `App` for `alloc_tier`/`on_hint_fault`/`on_demand_fault`, `Daemon`
/// for `on_access`/`tick`.
pub trait TieringPolicy {
    /// Taxonomy entry (paper Table 1).
    fn descriptor(&self) -> PolicyDescriptor;

    /// Called once before the run starts.
    fn init(&mut self, _ops: &mut PolicyOps<'_>) {}

    /// Chooses the tier for a new allocation. [`alloc_page`] falls back to
    /// other tiers if the preferred one is full.
    ///
    /// The default prefers the fast tier while it has room — the paper notes
    /// "MEMTIS allocates pages on the fast tier whenever available" and most
    /// compared systems behave likewise.
    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
        if ops.free_bytes(TierId::FAST) >= size.bytes() {
            TierId::FAST
        } else {
            TierId::CAPACITY
        }
    }

    /// Notification that a page was mapped (new allocation or demand fault).
    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        _vpage: VirtPage,
        _size: PageSize,
        _tier: TierId,
    ) {
    }

    /// Notification that a page was unmapped by the workload.
    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, _vpage: VirtPage, _size: PageSize) {}

    /// Observes one executed access (the outcome says whether it missed the
    /// LLC, which tier served it, etc.). Sampling-based policies filter here.
    ///
    /// The driver may defer this hook: on a quiet run it executes a burst of
    /// accesses in the machine first and delivers the recorded ones
    /// afterwards through [`on_access_batch`]. So `on_access` must neither
    /// mutate the machine (no migrations, splits or hint arming — only
    /// [`PolicyOps::charge`]/[`PolicyOps::emit`] and machine *reads*) nor
    /// depend on machine state that executing the *next few accesses* would
    /// change (per-access stats, TLB/LLC contents, reference bits), and it
    /// must never charge the `App` sink. Under that contract deferred
    /// delivery is observationally identical to per-event delivery. A
    /// policy that reacts to an access in place migrates from a later
    /// `tick` instead (HeMem queues its promotions).
    ///
    /// [`on_access_batch`]: TieringPolicy::on_access_batch
    fn on_access(&mut self, _ops: &mut PolicyOps<'_>, _access: &Access, _outcome: &AccessOutcome) {}

    /// Ignored: the driver defers [`on_access`] for every policy (see its
    /// contract). Kept so wrappers that forward it (perfbench's ledger)
    /// still compile.
    ///
    /// [`on_access`]: TieringPolicy::on_access
    fn batch_safe(&self) -> bool {
        true
    }

    /// The record program for the next burst: which executed accesses the
    /// deferring driver records for [`on_access_batch`], as a per-class
    /// countdown with a record cap. Queried before *every* burst (and
    /// before every program pass over a sharded burst's candidates), so it
    /// may follow the policy's own counters; only the set of counted
    /// classes must stay constant for a run. A policy that records less than
    /// [`RecordFilter::ALL`] must override `on_access_batch` consistently —
    /// the unrecorded accesses still execute (machine state and clocks
    /// advance normally) but never appear in a batch, so the default
    /// record-by-record replay would silently diverge from per-event
    /// delivery if `on_access` reacted to them. Such an override reads the
    /// events its program counted from [`Machine::batch_tally`].
    ///
    /// [`on_access_batch`]: TieringPolicy::on_access_batch
    /// [`Machine::batch_tally`]: crate::machine::Machine::batch_tally
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::ALL
    }

    /// Delivers the records one burst's program fired (daemon context),
    /// after every burst that executed an access — possibly none.
    ///
    /// The default replays each record through [`on_access`] at its recorded wall-clock time;
    /// sampling policies program the kernel to record only their samples
    /// and account for the events between them from the burst's tally.
    ///
    /// [`on_access`]: TieringPolicy::on_access
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        for rec in batch {
            ops.set_now(rec.now_ns);
            self.on_access(ops, &rec.access, &rec.outcome);
        }
    }

    /// A NUMA-hint fault fired on `vpage` (the fault trap cost was already
    /// charged to the application by the machine).
    fn on_hint_fault(&mut self, _ops: &mut PolicyOps<'_>, _vpage: VirtPage) {}

    /// Periodic background tick (daemon context).
    fn tick(&mut self, _ops: &mut PolicyOps<'_>) {}

    /// An in-flight transfer this policy enqueued reached a terminal state:
    /// completed (`end.aborted == None`) or aborted. Called by the driver in
    /// daemon context as it pumps the migration engine. Policies tracking
    /// in-flight work (e.g. to clear an "in promotion queue" bit) clean up
    /// here; the default ignores it.
    fn on_transfer_end(&mut self, _ops: &mut PolicyOps<'_>, _end: &TransferEnd) {}

    /// Cores consumed by always-on dedicated daemon threads (e.g. HeMem's
    /// busy sampling thread), on top of work charged through [`PolicyOps`].
    fn dedicated_daemon_cores(&self) -> f64 {
        0.0
    }

    /// Policy-specific timeline metrics, sampled by the driver each snapshot
    /// (e.g. MEMTIS hot/warm/cold set sizes for Fig. 9).
    fn timeline(&self, _out: &mut Vec<(&'static str, f64)>) {}

    /// Classification-histogram bin occupancy (4 KiB pages per bin),
    /// captured into each telemetry window. Policies without an access
    /// histogram — everything except MEMTIS — leave `out` empty; this
    /// default is the shared observability surface all baselines inherit.
    fn histogram_bins(&self, _out: &mut Vec<u64>) {}

    /// Total histogram underflows (a `remove()` that found fewer pages in a
    /// bin than the policy's own metadata claimed — a desync bug, not an
    /// operational condition). Must stay zero on healthy runs; the driver
    /// surfaces it in [`crate::driver::RunReport`].
    fn hist_underflows(&self) -> u64 {
        0
    }

    /// Serializes all mutable policy state into a snapshot, through the
    /// `memtis_obs::snap` codec. Required: a policy with no mutable state
    /// writes nothing explicitly, so a new stateful policy cannot forget
    /// its state and resume silently wrong.
    fn save_state(&self, w: &mut memtis_obs::SnapWriter);

    /// Restores state written by [`save_state`] into a freshly-constructed
    /// policy of the same type and configuration.
    ///
    /// [`save_state`]: TieringPolicy::save_state
    fn load_state(
        &mut self,
        r: &mut memtis_obs::SnapReader<'_>,
    ) -> Result<(), memtis_obs::SnapError>;
}

impl TieringPolicy for Box<dyn TieringPolicy> {
    fn descriptor(&self) -> PolicyDescriptor {
        (**self).descriptor()
    }
    fn init(&mut self, ops: &mut PolicyOps<'_>) {
        (**self).init(ops)
    }
    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) -> TierId {
        (**self).alloc_tier(ops, vpage, size)
    }
    fn on_alloc(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize, tier: TierId) {
        (**self).on_alloc(ops, vpage, size, tier)
    }
    fn on_free(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) {
        (**self).on_free(ops, vpage, size)
    }
    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        (**self).on_access(ops, access, outcome)
    }
    fn batch_record_filter(&self) -> RecordFilter {
        (**self).batch_record_filter()
    }
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        (**self).on_access_batch(ops, batch)
    }
    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        (**self).on_hint_fault(ops, vpage)
    }
    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        (**self).tick(ops)
    }
    fn on_transfer_end(&mut self, ops: &mut PolicyOps<'_>, end: &TransferEnd) {
        (**self).on_transfer_end(ops, end)
    }
    fn dedicated_daemon_cores(&self) -> f64 {
        (**self).dedicated_daemon_cores()
    }
    fn timeline(&self, out: &mut Vec<(&'static str, f64)>) {
        (**self).timeline(out)
    }
    fn histogram_bins(&self, out: &mut Vec<u64>) {
        (**self).histogram_bins(out)
    }
    fn hist_underflows(&self) -> u64 {
        (**self).hist_underflows()
    }
    fn save_state(&self, w: &mut memtis_obs::SnapWriter) {
        (**self).save_state(w)
    }
    fn load_state(
        &mut self,
        r: &mut memtis_obs::SnapReader<'_>,
    ) -> Result<(), memtis_obs::SnapError> {
        (**self).load_state(r)
    }
}

/// A no-op policy: pages stay wherever allocation placed them.
///
/// With a fast-tier-first default this is "first touch"; it is also the
/// building block for the all-DRAM / all-NVM static baselines.
#[derive(Debug, Default)]
pub struct NoopPolicy;

impl TieringPolicy for NoopPolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "FirstTouch",
            mechanism: "None",
            subpage_tracking: false,
            promotion_metric: "-",
            demotion_metric: "-",
            thresholding: "-",
            critical_path_migration: "None",
            page_size_handling: "None",
        }
    }

    /// `on_access` is a no-op, so no record is ever consumed.
    fn batch_record_filter(&self) -> RecordFilter {
        RecordFilter::NONE
    }

    /// Stateless: nothing to checkpoint.
    fn save_state(&self, _w: &mut memtis_obs::SnapWriter) {}

    fn load_state(
        &mut self,
        _r: &mut memtis_obs::SnapReader<'_>,
    ) -> Result<(), memtis_obs::SnapError> {
        Ok(())
    }
}

/// Maps `[start, start + bytes)` for a new allocation through `policy`:
/// a huge page wherever `thp` is set, the address is 2 MiB-aligned and a
/// whole huge page remains, a base page elsewhere. A range that wraps past
/// the top of the address space is [`SimError::RangeOverflow`]. Both the
/// simulation driver and the real-thread runtime allocate through here.
pub fn alloc_region<P: TieringPolicy + ?Sized>(
    policy: &mut P,
    ops: &mut PolicyOps<'_>,
    start: VirtAddr,
    bytes: u64,
    thp: bool,
) -> SimResult<()> {
    let end = start
        .0
        .checked_add(bytes)
        .ok_or(SimError::RangeOverflow { addr: start, bytes })?;
    let mut cur = start.0;
    while cur < end {
        let size = if thp && cur.is_multiple_of(HUGE_PAGE_SIZE) && end - cur >= HUGE_PAGE_SIZE {
            PageSize::Huge
        } else {
            PageSize::Base
        };
        alloc_page(policy, ops, VirtAddr(cur).base_page(), size)?;
        cur = cur.saturating_add(size.bytes());
    }
    Ok(())
}

/// Maps one page: on the tier `policy.alloc_tier` prefers, else on the
/// first other tier (in id order) with room, then reports the placement
/// through `on_alloc`. A huge page no tier can hold (physical
/// fragmentation) is retried as base pages.
pub fn alloc_page<P: TieringPolicy + ?Sized>(
    policy: &mut P,
    ops: &mut PolicyOps<'_>,
    vpage: VirtPage,
    size: PageSize,
) -> SimResult<()> {
    let pref = policy.alloc_tier(ops, vpage, size);
    let n = ops.machine.tier_count() as u8;
    let order: Vec<TierId> = std::iter::once(pref)
        .chain((0..n).map(TierId).filter(|t| *t != pref))
        .collect();
    match ops.machine.alloc_and_map_fallback(vpage, size, &order) {
        Ok((tier, _frame)) => {
            policy.on_alloc(ops, vpage, size, tier);
            Ok(())
        }
        Err(SimError::GlobalOutOfMemory) if size == PageSize::Huge => {
            for i in 0..NR_SUBPAGES {
                alloc_page(policy, ops, vpage.add(i), PageSize::Base)?;
            }
            Ok(())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HUGE_PAGE_SIZE;
    use crate::config::MachineConfig;

    /// `alloc_region` falls back past the policy's preferred tier to every
    /// other tier, and retries a huge page no tier can hold as base pages.
    #[test]
    fn alloc_region_tries_every_tier_then_base_pages() {
        use crate::config::TierSpec;
        let mut cfg = MachineConfig::dram_nvm(HUGE_PAGE_SIZE, HUGE_PAGE_SIZE);
        cfg.tiers.push(TierSpec::nvm(HUGE_PAGE_SIZE));
        let mut m = Machine::new(cfg);
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        // FAST, then CAPACITY (the default preference), then tier 2, which
        // a fixed two-tier fallback order never reaches.
        alloc_region(
            &mut NoopPolicy,
            &mut ops,
            VirtAddr(0),
            3 * HUGE_PAGE_SIZE,
            true,
        )
        .unwrap();
        let tiers: Vec<TierId> = (0..3)
            .map(|i| ops.machine().locate(VirtPage(i * 512)).unwrap().0)
            .collect();
        assert_eq!(tiers, [TierId(0), TierId(1), TierId(2)]);

        // A base page in each tier splits that tier's only huge frame, so
        // no tier can take a huge page and it is mapped as base pages.
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, HUGE_PAGE_SIZE));
        for (vpage, tier) in [(0, TierId::FAST), (512, TierId::CAPACITY)] {
            m.alloc_and_map(VirtPage(vpage), PageSize::Base, tier)
                .unwrap();
        }
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        let start = VirtAddr(4 * HUGE_PAGE_SIZE);
        alloc_region(&mut NoopPolicy, &mut ops, start, HUGE_PAGE_SIZE, true).unwrap();
        for i in 0..NR_SUBPAGES {
            let (_, size) = ops.machine().locate(start.base_page().add(i)).unwrap();
            assert_eq!(size, PageSize::Base);
        }
    }

    #[test]
    fn costs_route_to_the_selected_sink() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            ops.charge(10.0);
        }
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
            ops.charge(7.0);
        }
        assert_eq!(acct.app_extra_ns, 10.0);
        assert_eq!(acct.daemon_ns, 7.0);
    }

    #[test]
    fn migrate_through_ops_charges_cost() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        let out = ops.migrate(VirtPage(0), TierId::FAST).unwrap();
        let done = out.outcome().expect("unlimited mode completes in place");
        assert!(acct.daemon_ns >= done.cost_ns);
        assert_eq!(acct.app_extra_ns, 0.0);
    }

    #[test]
    fn bandwidth_limited_enqueue_is_uncharged_and_traced() {
        use memtis_obs::TracingObserver;
        let mut cfg = MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        let mut m = Machine::new(cfg);
        m.alloc_and_map(VirtPage(0), PageSize::Base, TierId::CAPACITY)
            .unwrap();
        let mut acct = CostAccounting::default();
        let mut obs = TracingObserver::new();
        let handle = {
            let mut ops =
                PolicyOps::with_observer(&mut m, &mut acct, CostSink::Daemon, 0.0, Some(&mut obs));
            ops.migrate(VirtPage(0), TierId::FAST).unwrap()
        };
        assert!(!handle.is_done());
        // The copy occupies link bandwidth, not daemon CPU.
        assert_eq!(acct.daemon_ns, 0.0);
        assert!(obs
            .ring
            .iter()
            .any(|e| matches!(e.kind, EventKind::MigrationEnqueued { vpage: 0, .. })));
        // Aborting through the ops handle traces the terminal record.
        let id = handle.transfer_id().unwrap();
        let end = {
            let mut ops =
                PolicyOps::with_observer(&mut m, &mut acct, CostSink::Daemon, 0.0, Some(&mut obs));
            ops.abort_transfer(id).unwrap()
        };
        assert_eq!(end.aborted, Some(AbortCause::Cancelled));
        assert!(obs
            .ring
            .iter()
            .any(|e| matches!(e.kind, EventKind::MigrationAborted { vpage: 0, .. })));
    }

    #[test]
    fn scan_charges_per_entry() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        for i in 0..10u64 {
            m.alloc_and_map(VirtPage(i), PageSize::Base, TierId::FAST)
                .unwrap();
        }
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        let mut n = 0;
        ops.scan_entries(|_, _| n += 1);
        assert_eq!(n, 10);
        assert_eq!(acct.daemon_ns, 10.0 * SCAN_ENTRY_NS);
    }

    #[test]
    fn failed_and_cancelled_migrations_are_counted() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
        // Fast tier is full: the machine rejects and counts the attempt.
        assert!(ops.migrate(VirtPage(512), TierId::FAST).is_err());
        // A stale queue entry the policy drops before calling the machine.
        ops.cancel_migration(VirtPage(513), TierId::FAST);
        assert_eq!(m.stats.migration.failed, 1);
        assert_eq!(m.stats.migration.cancelled, 1);
    }

    #[test]
    fn migration_failures_emit_events_when_traced() {
        use memtis_obs::TracingObserver;
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
            .unwrap();
        let mut acct = CostAccounting::default();
        let mut obs = TracingObserver::new();
        {
            let mut ops =
                PolicyOps::with_observer(&mut m, &mut acct, CostSink::Daemon, 0.0, Some(&mut obs));
            assert!(ops.migrate(VirtPage(512), TierId::FAST).is_err());
            ops.cancel_migration(VirtPage(513), TierId::FAST);
        }
        let causes: Vec<MigrationFailure> = obs
            .ring
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MigrationFailed { cause, .. } => Some(cause),
                _ => None,
            })
            .collect();
        assert_eq!(
            causes,
            vec![MigrationFailure::OutOfMemory, MigrationFailure::Cancelled]
        );
    }

    #[test]
    fn default_alloc_tier_prefers_fast_until_full() {
        let mut m = Machine::new(MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 4 * HUGE_PAGE_SIZE));
        let mut acct = CostAccounting::default();
        let mut p = NoopPolicy;
        {
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            assert_eq!(
                p.alloc_tier(&mut ops, VirtPage(0), PageSize::Huge),
                TierId::FAST
            );
        }
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
            .unwrap();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        assert_eq!(
            p.alloc_tier(&mut ops, VirtPage(512), PageSize::Huge),
            TierId::CAPACITY
        );
    }
}
