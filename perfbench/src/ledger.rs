//! Outside-in host-time ledger for the traced rep.
//!
//! The simulator's layers are timed from the benchmark's side of their
//! public entry points: [`TimedStream`] wraps the workload generator
//! (`workloads`), [`TimedPolicy`] wraps the tiering policy (`core`), and
//! everything else inside `Simulation::run` — the driver loop, the access
//! path, the migration engine pump, window cuts and the shard fold — is the
//! remainder (`sim.rest`). No wrapped call nests inside another, so the
//! three parts add back up to the measured run time.

use memtis_sim::prelude::{
    Access, AccessOutcome, AccessRecord, AccessStream, PageSize, PolicyDescriptor, PolicyOps,
    RecordFilter, TierId, TieringPolicy, TransferEnd, VirtPage, WorkloadEvent,
};
use std::time::Instant;

/// Calls into one entry point and the host time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookTime {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl HookTime {
    /// Runs `f`, charging its host time and one call to `self`.
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Nanoseconds per call, 0 without calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// An [`AccessStream`] that times every call into the stream it wraps.
pub struct TimedStream<'a> {
    inner: &'a mut dyn AccessStream,
    /// `fill`, `next_event` and `skip_events` calls and their host time.
    pub time: HookTime,
    /// Events delivered to the caller.
    pub events: u64,
}

impl<'a> TimedStream<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn AccessStream) -> Self {
        TimedStream {
            inner,
            time: HookTime::default(),
            events: 0,
        }
    }
}

impl AccessStream for TimedStream<'_> {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let ev = self.time.time(|| self.inner.next_event());
        self.events += ev.is_some() as u64;
        ev
    }

    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        let n = self.time.time(|| self.inner.fill(buf));
        self.events += n as u64;
        n
    }

    fn skip_events(&mut self, n: u64) {
        self.time.time(|| self.inner.skip_events(n))
    }

    fn position(&self) -> Option<u64> {
        self.inner.position()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`TieringPolicy`] that forwards every trait method to `inner` and
/// times the hooks the driver calls.
///
/// Every method is forwarded, including those with defaults: a default
/// left in place would change behaviour (`on_access_batch`'s default
/// replays records one by one, `batch_record_filter`'s keeps them all).
pub struct TimedPolicy<P> {
    /// The wrapped policy.
    pub inner: P,
    /// `on_access_batch` calls.
    pub batch: HookTime,
    /// Access records delivered through `on_access_batch`.
    pub batch_records: u64,
    /// `on_access` calls.
    pub access: HookTime,
    /// `tick` calls.
    pub tick: HookTime,
    /// `init`, `alloc_tier`, `on_alloc`, `on_free`, `on_hint_fault` and
    /// `on_transfer_end` calls.
    pub other: HookTime,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            batch: HookTime::default(),
            batch_records: 0,
            access: HookTime::default(),
            tick: HookTime::default(),
            other: HookTime::default(),
        }
    }
}

impl<P: TieringPolicy> TieringPolicy for TimedPolicy<P> {
    fn descriptor(&self) -> PolicyDescriptor {
        self.inner.descriptor()
    }
    fn init(&mut self, ops: &mut PolicyOps<'_>) {
        self.other.time(|| self.inner.init(ops))
    }
    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) -> TierId {
        self.other.time(|| self.inner.alloc_tier(ops, vpage, size))
    }
    fn on_alloc(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize, tier: TierId) {
        self.other
            .time(|| self.inner.on_alloc(ops, vpage, size, tier))
    }
    fn on_free(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) {
        self.other.time(|| self.inner.on_free(ops, vpage, size))
    }
    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        self.access
            .time(|| self.inner.on_access(ops, access, outcome))
    }
    fn batch_safe(&self) -> bool {
        self.inner.batch_safe()
    }
    fn batch_record_filter(&self) -> RecordFilter {
        self.inner.batch_record_filter()
    }
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        self.batch_records += batch.len() as u64;
        self.batch.time(|| self.inner.on_access_batch(ops, batch))
    }
    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        self.other.time(|| self.inner.on_hint_fault(ops, vpage))
    }
    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.tick.time(|| self.inner.tick(ops))
    }
    fn on_transfer_end(&mut self, ops: &mut PolicyOps<'_>, end: &TransferEnd) {
        self.other.time(|| self.inner.on_transfer_end(ops, end))
    }
    fn dedicated_daemon_cores(&self) -> f64 {
        self.inner.dedicated_daemon_cores()
    }
    fn timeline(&self, out: &mut Vec<(&'static str, f64)>) {
        self.inner.timeline(out)
    }
    fn histogram_bins(&self, out: &mut Vec<u64>) {
        self.inner.histogram_bins(out)
    }
    fn hist_underflows(&self) -> u64 {
        self.inner.hist_underflows()
    }
    fn save_state(&self, w: &mut memtis_sim::obs::SnapWriter) {
        self.inner.save_state(w)
    }
    fn load_state(
        &mut self,
        r: &mut memtis_sim::obs::SnapReader<'_>,
    ) -> Result<(), memtis_sim::obs::SnapError> {
        self.inner.load_state(r)
    }
}

/// Where the host time of one traced run went.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// Host nanoseconds of the whole `Simulation::run` call.
    pub host_ns: u64,
    /// Workload events the run processed.
    pub events: u64,
    /// Stream calls (`workloads`).
    pub fill: HookTime,
    /// `on_access_batch` calls (`core`).
    pub batch: HookTime,
    /// Records delivered through `on_access_batch`.
    pub batch_records: u64,
    /// Per-event `on_access` calls (`core`).
    pub access: HookTime,
    /// `tick` calls (`core`).
    pub tick: HookTime,
    /// Every other policy hook (`core`).
    pub other: HookTime,
}

impl Ledger {
    /// Collects the wrappers' tallies after a run of `host_ns` over
    /// `events` workload events.
    pub fn new<P>(
        host_ns: u64,
        events: u64,
        stream: &TimedStream,
        policy: &TimedPolicy<P>,
    ) -> Self {
        Ledger {
            host_ns,
            events,
            fill: stream.time,
            batch: policy.batch,
            batch_records: policy.batch_records,
            access: policy.access,
            tick: policy.tick,
            other: policy.other,
        }
    }

    /// Share of the run's host time that `ns` is.
    pub fn share(&self, ns: u64) -> f64 {
        ns as f64 / self.host_ns.max(1) as f64
    }

    /// Host nanoseconds spent in the policy's hooks.
    pub fn core_ns(&self) -> u64 {
        self.batch.ns + self.access.ns + self.tick.ns + self.other.ns
    }

    /// Host nanoseconds inside the run outside every wrapped call. Negative
    /// only if the wrapped calls overlapped, which the ledger test rules out.
    pub fn rest_ns(&self) -> i128 {
        self.host_ns as i128 - self.fill.ns as i128 - self.core_ns() as i128
    }

    /// `sim.rest`'s share of the run.
    pub fn rest_share(&self) -> f64 {
        self.rest_ns() as f64 / self.host_ns.max(1) as f64
    }
}
