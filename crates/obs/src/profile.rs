//! Phase self-profiler: scoped host-time spans attributed to simulator
//! phases.
//!
//! A [`Profiler`] is a fixed table of `(calls, ns)` atomic cells, one per
//! [`SpanId`]. Instrumentation sites open a [`SpanGuard`] (which stamps
//! `Instant::now()`) and the guard records the elapsed host nanoseconds on
//! drop. Sites reach the profiler through
//! [`crate::Observer::profiler`], whose default returns `None` — so with
//! [`crate::NopObserver`] every span site is statically dead code and the
//! untraced hot loop pays nothing.
//!
//! Span times are **host** time: they decompose `sim_events / host_ns`
//! into where the simulator itself spends wall-clock, and must never be
//! mixed into deterministic simulated-time report fields.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

registry_ids! {
    /// The simulator phases the profiler attributes host time to, in
    /// display order.
    SpanId {
        /// Delivering PEBS-style samples to the policy (`on_access`).
        SamplingDrain => "sampling_drain",
        /// MEMTIS cooling sweep (`run_cooling`).
        CoolingTick => "cooling_tick",
        /// MEMTIS split/promotion threshold adaptation (`run_adaptation`).
        ThresholdRecompute => "threshold_recompute",
        /// A full policy `tick()` (cooling + adaptation + migration planning).
        PolicyTick => "policy_tick",
        /// Advancing the async migration engine (`pump_transfers`).
        MigrationPump => "migration_pump",
        /// The lane phase of a sharded burst: every lane's accesses, run
        /// on the coordinator.
        ShardBarrier => "shard_barrier",
        /// Coordinator-side fold of sharded lane outcomes.
        ShardFold => "shard_fold",
        /// Batched access execution inside the machine.
        BatchExec => "batch_exec",
        /// Cutting a telemetry window.
        WindowCut => "window_cut",
    }
}

#[derive(Debug, Default)]
struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Accumulated `(calls, host-ns)` per phase. Cheap to share: sites hold
/// an `Arc<Profiler>` (each [`SpanGuard`] owns one, so a span outlives the
/// observer borrow it was opened from) and record with relaxed atomics.
#[derive(Debug, Default)]
pub struct Profiler {
    cells: [Cell; SpanId::ALL.len()],
}

/// One row of the attribution table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// Which phase.
    pub id: SpanId,
    /// Completed span count.
    pub calls: u64,
    /// Total host nanoseconds inside the span.
    pub ns: u64,
}

impl Profiler {
    /// A zeroed profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one completed span of `ns` host-nanoseconds to `id`.
    #[inline]
    pub fn record(&self, id: SpanId, ns: u64) {
        let c = &self.cells[id as usize];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Opens a scoped span; host time from now until the guard drops is
    /// attributed to `id`.
    #[inline]
    pub fn enter(self: &Arc<Self>, id: SpanId) -> SpanGuard {
        SpanGuard {
            profiler: Arc::clone(self),
            id,
            start: Instant::now(),
        }
    }

    /// `(calls, ns)` for one phase.
    pub fn get(&self, id: SpanId) -> (u64, u64) {
        let c = &self.cells[id as usize];
        (
            c.calls.load(Ordering::Relaxed),
            c.ns.load(Ordering::Relaxed),
        )
    }

    /// The attribution table, every phase in display order (including
    /// zero rows, so consumers see a fixed schema).
    pub fn stats(&self) -> Vec<SpanStat> {
        SpanId::ALL
            .into_iter()
            .map(|id| {
                let (calls, ns) = self.get(id);
                SpanStat { id, calls, ns }
            })
            .collect()
    }

    /// Total host nanoseconds across all phases. Spans may nest
    /// (e.g. `threshold_recompute` inside `cooling_tick` inside
    /// `policy_tick`), so this can exceed wall time.
    pub fn total_ns(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.ns.load(Ordering::Relaxed))
            .sum()
    }
}

/// RAII span: records elapsed host time into its profiler on drop. Owns
/// its `Arc` so call sites never fight the borrow checker over the
/// observer.
pub struct SpanGuard {
    profiler: Arc<Profiler>,
    id: SpanId,
    start: Instant,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.profiler.record(self.id, ns);
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanGuard({})", self.id.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_span() {
        let p = Profiler::new();
        let stats = p.stats();
        assert_eq!(stats.len(), SpanId::ALL.len());
        // Names are unique and snake_case.
        for (i, s) in stats.iter().enumerate() {
            let n = s.id.name();
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            for other in &stats[i + 1..] {
                assert_ne!(n, other.id.name());
            }
        }
    }

    #[test]
    fn guard_records_on_drop() {
        let p = Arc::new(Profiler::new());
        {
            let _g = p.enter(SpanId::CoolingTick);
        }
        {
            let _g = p.enter(SpanId::CoolingTick);
        }
        let (calls, _ns) = p.get(SpanId::CoolingTick);
        assert_eq!(calls, 2);
        assert_eq!(p.get(SpanId::MigrationPump), (0, 0));
    }

    #[test]
    fn record_accumulates() {
        let p = Profiler::new();
        p.record(SpanId::BatchExec, 100);
        p.record(SpanId::BatchExec, 250);
        assert_eq!(p.get(SpanId::BatchExec), (2, 350));
        assert_eq!(p.total_ns(), 350);
    }
}
