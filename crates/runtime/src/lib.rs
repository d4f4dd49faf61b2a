//! # memtis-runtime — real-thread background daemons
//!
//! The deterministic simulation driver (in `memtis-sim`) interleaves daemon
//! work with the access stream for reproducibility. This crate mirrors the
//! *actual* kernel architecture with real concurrency: the application
//! thread executes accesses, a `ksampled` thread drains a bounded PEBS
//! buffer and updates the MEMTIS histograms, and a `kmigrated` thread wakes
//! periodically to promote/demote/split — all communicating over
//! `crossbeam` channels with `parking_lot`-locked shared state.
//!
//! Two properties of the paper's design surface naturally here:
//!
//! - **Nothing blocks the application**: samples are pushed with
//!   `try_send`; when the buffer is full the sample is *dropped* (counted),
//!   exactly like a PEBS buffer overflow, rather than stalling the app.
//! - **All migration happens asynchronously** in the `kmigrated` thread.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::engine::EngineEvent;
use memtis_sim::faults::{
    FaultInjector, FaultPlan, SampleFate, TickFate, DRIVER_FAULT_SALT, RUNTIME_TICK_FAULT_SALT,
};
use memtis_sim::obs::{Profiler, SnapError, SnapFields, SnapReader, SnapWriter, SpanId, SpanStat};
use memtis_sim::prelude::{
    Access, AccessOutcome, CostAccounting, CostSink, FaultCounters, Machine, MachineConfig,
    PolicyOps, SimResult, TierId, TieringPolicy,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A sampled access forwarded to `ksampled`.
#[derive(Debug, Clone, Copy)]
struct SampleMsg {
    access: Access,
    outcome: AccessOutcome,
}

/// Counters exposed by the runtime.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    /// Accesses executed by the application side.
    pub accesses: AtomicU64,
    /// Samples delivered to `ksampled`.
    pub samples_delivered: AtomicU64,
    /// Samples dropped because the PEBS buffer was full.
    pub samples_dropped: AtomicU64,
    /// `kmigrated` wakeups.
    pub migration_wakeups: AtomicU64,
    /// Samples discarded by fault injection (on top of buffer overflows).
    pub fault_samples_dropped: AtomicU64,
    /// Samples delivered twice by fault injection.
    pub fault_samples_duped: AtomicU64,
    /// `kmigrated` wakeups skipped by fault injection.
    pub fault_ticks_skipped: AtomicU64,
    /// `kmigrated` wakeups delayed by fault injection.
    pub fault_ticks_delayed: AtomicU64,
}

/// Handle to a running tiered-memory runtime.
pub struct Runtime {
    machine: Arc<Mutex<Machine>>,
    policy: Arc<Mutex<MemtisPolicy>>,
    sample_tx: Sender<SampleMsg>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Shared counters.
    pub stats: Arc<RuntimeStats>,
    /// Phase self-profiler shared with both daemon threads: `ksampled`
    /// delivery shows up as `sampling_drain`, `kmigrated` as `policy_tick`
    /// plus `migration_pump`.
    pub profiler: Arc<Profiler>,
}

impl Runtime {
    /// Starts the runtime: spawns `ksampled` and `kmigrated`.
    ///
    /// `wakeup` is the `kmigrated` period in real (host) time, standing in
    /// for the paper's 500 ms.
    pub fn start(machine_cfg: MachineConfig, memtis_cfg: MemtisConfig, wakeup: Duration) -> Self {
        Self::start_with_faults(machine_cfg, memtis_cfg, wakeup, &FaultPlan::default())
    }

    /// Like [`Runtime::start`], but with a seeded fault plan. Machine-level
    /// faults (forced aborts, injected dirty stores, link outages, tier
    /// pressure) are applied inside `kmigrated`'s pump; `ksampled` rolls
    /// sample drops/duplicates and `kmigrated` rolls wakeup skips/delays
    /// from independent per-thread RNG streams. Real-thread scheduling is
    /// inherently nondeterministic, so — unlike the simulation driver —
    /// only the fault *rates* are reproducible here, not exact schedules.
    pub fn start_with_faults(
        machine_cfg: MachineConfig,
        memtis_cfg: MemtisConfig,
        wakeup: Duration,
        plan: &FaultPlan,
    ) -> Self {
        let mut machine = Machine::new(machine_cfg);
        if !plan.is_inert() {
            machine.install_faults(plan);
        }
        let sample_faults =
            (!plan.is_inert()).then(|| FaultInjector::new(*plan, DRIVER_FAULT_SALT));
        let tick_faults =
            (!plan.is_inert()).then(|| FaultInjector::new(*plan, RUNTIME_TICK_FAULT_SALT));
        let machine = Arc::new(Mutex::new(machine));
        let policy = Arc::new(Mutex::new(MemtisPolicy::new(memtis_cfg)));
        let (tx, rx): (Sender<SampleMsg>, Receiver<SampleMsg>) = bounded(4096);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RuntimeStats::default());
        let profiler = Arc::new(Profiler::new());

        let mut threads = Vec::new();

        // ksampled: drain the PEBS buffer, update histograms/thresholds.
        {
            let machine = Arc::clone(&machine);
            let policy = Arc::clone(&policy);
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let profiler = Arc::clone(&profiler);
            let mut faults = sample_faults;
            threads.push(
                std::thread::Builder::new()
                    .name("ksampled".into())
                    .spawn(move || {
                        let mut acct = CostAccounting::default();
                        loop {
                            match rx.recv_timeout(Duration::from_millis(5)) {
                                Ok(msg) => {
                                    let fate = match faults.as_mut() {
                                        Some(inj) => inj.sample_fate(
                                            stats.samples_delivered.load(Ordering::Relaxed) as f64,
                                            msg.access.vaddr.0,
                                        ),
                                        None => SampleFate::Deliver,
                                    };
                                    if fate == SampleFate::Drop {
                                        stats.fault_samples_dropped.fetch_add(1, Ordering::Relaxed);
                                        continue;
                                    }
                                    let deliveries =
                                        if fate == SampleFate::Duplicate { 2 } else { 1 };
                                    if fate == SampleFate::Duplicate {
                                        stats.fault_samples_duped.fetch_add(1, Ordering::Relaxed);
                                    }
                                    let _span = profiler.enter(SpanId::SamplingDrain);
                                    let mut m = machine.lock();
                                    let mut p = policy.lock();
                                    for _ in 0..deliveries {
                                        let mut ops = PolicyOps::new(
                                            &mut m,
                                            &mut acct,
                                            CostSink::Daemon,
                                            0.0,
                                        );
                                        p.on_access(&mut ops, &msg.access, &msg.outcome);
                                    }
                                    stats.samples_delivered.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    if shutdown.load(Ordering::Acquire) && rx.is_empty() {
                                        return;
                                    }
                                }
                                // All senders are gone: no sample can ever
                                // arrive again, so exit instead of spinning
                                // on the timeout forever. (The old `Err(_)`
                                // arm treated this like a timeout and leaked
                                // the thread when the Runtime was dropped
                                // without an explicit shutdown.)
                                Err(RecvTimeoutError::Disconnected) => return,
                            }
                        }
                    })
                    .expect("spawn ksampled"),
            );
        }

        // kmigrated: periodic promotion/demotion/split in the background.
        {
            let machine = Arc::clone(&machine);
            let policy = Arc::clone(&policy);
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let profiler = Arc::clone(&profiler);
            let mut faults = tick_faults;
            threads.push(
                std::thread::Builder::new()
                    .name("kmigrated".into())
                    .spawn(move || {
                        let mut acct = CostAccounting::default();
                        let start = std::time::Instant::now();
                        while !shutdown.load(Ordering::Acquire) {
                            // Sleep in small quanta so shutdown stays
                            // responsive even with long wakeup periods.
                            let mut slept = Duration::ZERO;
                            while slept < wakeup && !shutdown.load(Ordering::Acquire) {
                                let quantum = (wakeup - slept).min(Duration::from_millis(5));
                                std::thread::sleep(quantum);
                                slept += quantum;
                            }
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            // Host wall time stands in for the simulated
                            // clock: it is monotone, which is all the
                            // engine's arbitration needs here.
                            let mut now_ns = start.elapsed().as_nanos() as f64;
                            match faults.as_mut().map(|inj| inj.tick_fate(now_ns)) {
                                Some(TickFate::Skip) => {
                                    // The wakeup never fired this period.
                                    stats.fault_ticks_skipped.fetch_add(1, Ordering::Relaxed);
                                    continue;
                                }
                                Some(TickFate::Delay(extra_ns)) => {
                                    stats.fault_ticks_delayed.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_nanos(extra_ns as u64));
                                    now_ns = start.elapsed().as_nanos() as f64;
                                }
                                Some(TickFate::Run) | None => {}
                            }
                            let mut m = machine.lock();
                            let mut p = policy.lock();
                            {
                                let _span = profiler.enter(SpanId::PolicyTick);
                                let mut ops =
                                    PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, now_ns);
                                p.tick(&mut ops);
                            }
                            // With a bandwidth-limited link, `tick` only
                            // enqueued transfers; advance the engine and
                            // report completions/aborts back to the policy.
                            let _span = profiler.enter(SpanId::MigrationPump);
                            for ev in m.pump_transfers(now_ns) {
                                if let EngineEvent::Ended(end) = ev {
                                    let mut ops =
                                        PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, now_ns);
                                    p.on_transfer_end(&mut ops, &end);
                                }
                            }
                            stats.migration_wakeups.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn kmigrated"),
            );
        }

        Runtime {
            machine,
            policy,
            sample_tx: tx,
            shutdown,
            threads,
            stats,
            profiler,
        }
    }

    /// Snapshot of the daemon phase-attribution table (calls and host ns
    /// per span). Monotone; safe to read while the daemons run.
    pub fn profile_stats(&self) -> Vec<SpanStat> {
        self.profiler.stats()
    }

    /// Maps a region (application side), asking the policy for placement.
    pub fn alloc_region(&self, start: u64, bytes: u64, thp: bool) -> SimResult<()> {
        use memtis_sim::addr::{PageSize, VirtAddr, HUGE_PAGE_SIZE};
        let mut m = self.machine.lock();
        let mut p = self.policy.lock();
        let mut acct = CostAccounting::default();
        let mut cur = start;
        while cur < start + bytes {
            let vpage = VirtAddr(cur).base_page();
            let (size, step) = if thp
                && cur.is_multiple_of(HUGE_PAGE_SIZE)
                && start + bytes - cur >= HUGE_PAGE_SIZE
            {
                (PageSize::Huge, HUGE_PAGE_SIZE)
            } else {
                (PageSize::Base, 4096)
            };
            let tier = {
                let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
                p.alloc_tier(&mut ops, vpage, size)
            };
            let order = [
                tier,
                if tier == TierId::FAST {
                    TierId::CAPACITY
                } else {
                    TierId::FAST
                },
            ];
            let (t, _) = m.alloc_and_map_fallback(vpage, size, &order)?;
            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
            p.on_alloc(&mut ops, vpage, size, t);
            cur += step;
        }
        Ok(())
    }

    /// Executes one access on the application path. The only daemon
    /// interaction is a non-blocking sample push.
    pub fn access(&self, access: Access) -> SimResult<AccessOutcome> {
        let outcome = {
            let mut m = self.machine.lock();
            m.access(access)?
        };
        self.stats.accesses.fetch_add(1, Ordering::Relaxed);
        // Hardware would only buffer qualifying events; forward those.
        if access.is_store() || outcome.llc_miss {
            match self.sample_tx.try_send(SampleMsg { access, outcome }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    // PEBS buffer overflow: the sample is lost, the app is
                    // never blocked.
                    self.stats.samples_dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
        Ok(outcome)
    }

    /// Where a page currently resides.
    pub fn locate(
        &self,
        vpage: memtis_sim::addr::VirtPage,
    ) -> Option<(TierId, memtis_sim::addr::PageSize)> {
        self.machine.lock().locate(vpage)
    }

    /// Runs `f` against the policy state (inspection).
    pub fn with_policy<R>(&self, f: impl FnOnce(&MemtisPolicy) -> R) -> R {
        f(&self.policy.lock())
    }

    /// Machine statistics snapshot.
    pub fn machine_stats(&self) -> memtis_sim::stats::MachineStats {
        self.machine.lock().stats.clone()
    }

    /// Machine-level fault-injection tallies (all zero without a plan).
    pub fn fault_counters(&self) -> FaultCounters {
        self.machine.lock().fault_counters()
    }

    /// Stops the daemons and joins their threads.
    pub fn shutdown(mut self) -> Arc<RuntimeStats> {
        self.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        Arc::clone(&self.stats)
    }

    /// Serializes the machine and policy state (page table, tiers,
    /// histograms, thresholds, in-flight transfers, …) for a later warm
    /// start. Both locks are held for the duration, so the snapshot is a
    /// consistent cut even while the daemons run; host-side plumbing
    /// (threads, channels, runtime counters) is not state and is rebuilt
    /// by [`Runtime::start_warm`].
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header();
        let m = self.machine.lock();
        let p = self.policy.lock();
        w.section(|w| m.save_fields(w));
        w.section(|w| p.save_state(w));
        // Only unrepresentable state (a collection longer than u32) fails
        // serialization; no reachable configuration produces it.
        w.finish().expect("runtime state must be serializable")
    }

    /// Save-on-shutdown: stops the daemons, joins them, and returns the
    /// final state snapshot alongside the counters. The snapshot is taken
    /// *after* the join, so it includes every sample and wakeup the
    /// daemons processed.
    pub fn shutdown_with_state(mut self) -> (Arc<RuntimeStats>, Vec<u8>) {
        self.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let state = self.save_state();
        (Arc::clone(&self.stats), state)
    }

    /// Warm start: boots a fresh runtime from the given configs and
    /// restores machine + policy state saved by [`Runtime::save_state`] or
    /// [`Runtime::shutdown_with_state`] before any sample or wakeup can
    /// observe the cold state. Both configs must match the snapshotting
    /// runtime's: a policy-config mismatch is rejected as
    /// [`SnapError::ConfigMismatch`], machine-geometry drift surfaces as
    /// corruption.
    pub fn start_warm(
        machine_cfg: MachineConfig,
        memtis_cfg: MemtisConfig,
        wakeup: Duration,
        state: &[u8],
    ) -> Result<Self, SnapError> {
        let rt = Runtime::start(machine_cfg, memtis_cfg, wakeup);
        rt.load_state(state)?;
        Ok(rt)
    }

    /// Restores a [`Runtime::save_state`] snapshot into this runtime.
    fn load_state(&self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes)?;
        let mut m = self.machine.lock();
        let mut p = self.policy.lock();
        r.section_with(|s| m.load_fields(s))?;
        r.section_with(|s| p.load_state(s))?;
        r.expect_end()
    }
}

impl Drop for Runtime {
    /// Dropping the runtime without calling [`Runtime::shutdown`] used to
    /// leak both daemon threads (`ksampled` kept polling its 5 ms timeout
    /// because the shutdown flag was never raised). Stop and join them here;
    /// after an explicit `shutdown()` the thread list is already empty and
    /// this is a no-op.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::addr::{VirtPage, HUGE_PAGE_SIZE};

    fn small_cfg() -> (MachineConfig, MemtisConfig) {
        let mc = MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
        let pc = MemtisConfig {
            load_period: 1,
            store_period: 1,
            adapt_interval: 100,
            cooling_interval: 800,
            control_interval: 1_000_000,
            ..MemtisConfig::sim_scaled()
        };
        (mc, pc)
    }

    #[test]
    fn background_promotion_happens_without_app_involvement() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc, pc, Duration::from_millis(2));
        // Fill the fast tier with a cold region, put the hot page in
        // capacity.
        rt.alloc_region(0, 2 * HUGE_PAGE_SIZE, true).unwrap();
        rt.alloc_region(1 << 30, HUGE_PAGE_SIZE, true).unwrap();
        let hot_page = VirtPage((1 << 30) / 4096);
        assert_eq!(rt.locate(hot_page).unwrap().0, TierId::CAPACITY);
        // Hammer the hot page from the app thread only.
        for i in 0..3000u64 {
            rt.access(Access::store((1 << 30) + (i % 512) * 4096))
                .unwrap();
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Give the daemons a moment to act, then check placement.
        let mut promoted = false;
        for _ in 0..500 {
            std::thread::sleep(Duration::from_millis(2));
            if rt.locate(hot_page).map(|(t, _)| t) == Some(TierId::FAST) {
                promoted = true;
                break;
            }
        }
        let stats = rt.shutdown();
        assert!(promoted, "kmigrated should promote the hot page");
        assert!(stats.samples_delivered.load(Ordering::Relaxed) > 0);
        assert!(stats.migration_wakeups.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn background_promotion_completes_through_async_engine() {
        let (mut mc, pc) = small_cfg();
        // Bandwidth-limit the link so promotions go through the in-flight
        // engine (a huge-page pass takes ~131 us of wall time here) and
        // must be finalized by kmigrated's pump on a later wakeup.
        mc.migration.bandwidth_limit = Some(16.0);
        let rt = Runtime::start(mc, pc, Duration::from_millis(2));
        rt.alloc_region(0, 2 * HUGE_PAGE_SIZE, true).unwrap();
        rt.alloc_region(1 << 30, HUGE_PAGE_SIZE, true).unwrap();
        let hot_page = VirtPage((1 << 30) / 4096);
        assert_eq!(rt.locate(hot_page).unwrap().0, TierId::CAPACITY);
        for i in 0..3000u64 {
            rt.access(Access::load((1 << 30) + (i % 512) * 4096))
                .unwrap();
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut promoted = false;
        for _ in 0..500 {
            std::thread::sleep(Duration::from_millis(2));
            if rt.locate(hot_page).map(|(t, _)| t) == Some(TierId::FAST) {
                promoted = true;
                break;
            }
        }
        let stats = rt.machine_stats();
        rt.shutdown();
        assert!(
            promoted,
            "async promotion should complete in the background"
        );
        assert!(
            stats.migration.in_flight_peak >= 1,
            "promotion must have gone through the engine"
        );
    }

    #[test]
    fn full_buffer_drops_samples_instead_of_blocking() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc, pc, Duration::from_secs(3600));
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        // Flood faster than ksampled can drain; the app must never block.
        let start = std::time::Instant::now();
        for i in 0..200_000u64 {
            rt.access(Access::store((i % 512) * 4096)).unwrap();
        }
        assert!(start.elapsed() < Duration::from_secs(30));
        let stats = rt.shutdown();
        let delivered = stats.samples_delivered.load(Ordering::Relaxed);
        let dropped = stats.samples_dropped.load(Ordering::Relaxed);
        assert_eq!(stats.accesses.load(Ordering::Relaxed), 200_000);
        assert!(delivered + dropped > 0);
    }

    /// The daemons self-profile: after a run that delivered samples and
    /// fired wakeups, the shared profiler must attribute host time to
    /// `sampling_drain`, `policy_tick`, and `migration_pump`.
    #[test]
    fn daemons_accumulate_phase_profile() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc, pc, Duration::from_millis(1));
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        for i in 0..5_000u64 {
            rt.access(Access::store((i % 512) * 4096)).unwrap();
            if i % 256 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        let stats = rt.profile_stats();
        rt.shutdown();
        let get = |id: SpanId| stats.iter().find(|s| s.id == id).unwrap();
        assert!(get(SpanId::SamplingDrain).calls > 0);
        assert!(get(SpanId::PolicyTick).calls > 0);
        assert!(get(SpanId::MigrationPump).calls > 0);
        assert!(get(SpanId::PolicyTick).ns > 0);
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc, pc, Duration::from_millis(1));
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        rt.access(Access::load(0)).unwrap();
        let _ = rt.shutdown();
    }

    /// Regression (PR 4): dropping the runtime without an explicit
    /// `shutdown()` must stop the daemons rather than leaking them. The
    /// `Drop` impl joins both threads, so merely reaching the end of this
    /// test without hanging proves they exited.
    #[test]
    fn drop_without_shutdown_stops_daemons() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc, pc, Duration::from_millis(1));
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        for i in 0..100u64 {
            rt.access(Access::store((i % 512) * 4096)).unwrap();
        }
        drop(rt);
    }

    /// Regression (PR 4): `ksampled` must exit when every sender is gone,
    /// even if the shutdown flag was never raised. Before the fix the
    /// `Err(_)` arm treated `Disconnected` like `Timeout` and the thread
    /// spun forever.
    #[test]
    fn ksampled_exits_when_sender_disconnects() {
        let (mc, pc) = small_cfg();
        let mut rt = Runtime::start(mc, pc, Duration::from_secs(3600));
        // Replace the runtime's sender with a dummy so the real channel
        // disconnects while the shutdown flag stays false.
        let (dummy_tx, _dummy_rx) = bounded::<SampleMsg>(1);
        rt.sample_tx = dummy_tx;
        let ksampled = rt
            .threads
            .iter()
            .position(|t| t.thread().name() == Some("ksampled"))
            .expect("ksampled thread present");
        let handle = rt.threads.swap_remove(ksampled);
        let start = std::time::Instant::now();
        handle.join().expect("ksampled exits on disconnect");
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    /// Save-on-shutdown / warm-start: after the daemons are joined, the
    /// state snapshot captures machine + policy exactly; a warm-started
    /// runtime reproduces that state byte-for-byte (save → load → save is
    /// identity) and keeps serving accesses.
    #[test]
    fn warm_start_restores_machine_and_policy_state() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc.clone(), pc.clone(), Duration::from_millis(2));
        rt.alloc_region(0, 2 * HUGE_PAGE_SIZE, true).unwrap();
        rt.alloc_region(1 << 30, HUGE_PAGE_SIZE, true).unwrap();
        let hot_page = VirtPage((1 << 30) / 4096);
        for i in 0..3000u64 {
            rt.access(Access::store((1 << 30) + (i % 512) * 4096))
                .unwrap();
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        let (stats, state) = rt.shutdown_with_state();
        assert!(stats.samples_delivered.load(Ordering::Relaxed) > 0);

        // Warm-start with an idle wakeup period so nothing mutates state
        // between restore and re-save; the round trip must be an identity.
        let rt2 = Runtime::start_warm(mc, pc, Duration::from_secs(3600), &state)
            .expect("warm start from matching configs");
        assert_eq!(rt2.save_state(), state, "restore→save must be identity");
        // The restored page table answers placement queries...
        assert!(rt2.locate(hot_page).is_some());
        // ...and the policy's accumulated sampling state survived.
        assert!(rt2.with_policy(|p| p.stats.samples) > 0);
        // The warm runtime still serves the application path.
        rt2.access(Access::load(1 << 30)).unwrap();
        rt2.shutdown();
    }

    /// A warm start against a different policy configuration must be
    /// rejected (the fingerprint guard), not silently misinterpreted.
    #[test]
    fn warm_start_rejects_mismatched_policy_config() {
        let (mc, pc) = small_cfg();
        let rt = Runtime::start(mc.clone(), pc.clone(), Duration::from_secs(3600));
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        rt.access(Access::store(0)).unwrap();
        let (_stats, state) = rt.shutdown_with_state();
        let other = MemtisConfig {
            cooling_interval: pc.cooling_interval + 1,
            ..pc
        };
        match Runtime::start_warm(mc, other, Duration::from_secs(3600), &state) {
            Err(SnapError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("expected ConfigMismatch, got {e:?}"),
            Ok(_) => panic!("expected ConfigMismatch, got a running runtime"),
        }
    }

    /// Fault plans drive the real-thread daemons too: machine-level faults
    /// through kmigrated's pump, sample drops in ksampled, tick skips in
    /// kmigrated.
    #[test]
    fn fault_plan_perturbs_real_thread_daemons() {
        let (mc, pc) = small_cfg();
        let plan = FaultPlan {
            seed: 7,
            sample_drop: 0.5,
            tick_skip: 0.5,
            ..FaultPlan::default()
        };
        let rt = Runtime::start_with_faults(mc, pc, Duration::from_millis(1), &plan);
        rt.alloc_region(0, HUGE_PAGE_SIZE, true).unwrap();
        for i in 0..20_000u64 {
            rt.access(Access::store((i % 512) * 4096)).unwrap();
            if i % 256 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let stats = rt.shutdown();
        assert!(
            stats.fault_samples_dropped.load(Ordering::Relaxed) > 0,
            "50% sample-drop plan must discard some samples"
        );
        assert!(
            stats.fault_ticks_skipped.load(Ordering::Relaxed) > 0,
            "50% tick-skip plan must skip some wakeups"
        );
    }
}
