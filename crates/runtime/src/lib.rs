//! # memtis-runtime — real-thread background daemons
//!
//! The deterministic simulation driver (in `memtis-sim`) interleaves daemon
//! work with the access stream for reproducibility. This crate mirrors the
//! *actual* kernel architecture with real concurrency: the application
//! thread executes accesses, a `ksampled` thread drains a bounded PEBS
//! buffer and updates the MEMTIS histograms, and a `kmigrated` thread wakes
//! periodically to promote/demote/split — all communicating over
//! a bounded `std::sync::mpsc` channel with `Mutex`-locked shared state.
//!
//! Two properties of the paper's design surface naturally here:
//!
//! - **Nothing blocks the application**: samples are pushed with
//!   `try_send`; when the buffer is full the sample is *dropped* (counted),
//!   exactly like a PEBS buffer overflow, rather than stalling the app.
//! - **All migration happens asynchronously** in the `kmigrated` thread.

#![forbid(unsafe_code)]

use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_sim::addr::{PageSize, VirtAddr, VirtPage};
use memtis_sim::engine::EngineEvent;
use memtis_sim::policy::alloc_region;
use memtis_sim::prelude::{
    Access, AccessOutcome, CostAccounting, CostSink, Machine, MachineConfig, PolicyOps, SimResult,
    TierId, TieringPolicy,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A sampled access forwarded to `ksampled`.
#[derive(Debug, Clone, Copy)]
struct SampleMsg {
    access: Access,
    outcome: AccessOutcome,
}

/// Locks `m`, ignoring poisoning: a panicked daemon leaves the machine and
/// policy as consistent as any interrupted step would, and the other
/// threads keep going.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
}

/// Handle to a running tiered-memory runtime.
pub struct Runtime {
    machine: Arc<Mutex<Machine>>,
    policy: Arc<Mutex<MemtisPolicy>>,
    sample_tx: SyncSender<SampleMsg>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Shared counters.
    pub stats: Arc<RuntimeStats>,
}

impl Runtime {
    /// Starts the runtime: spawns `ksampled` and `kmigrated`.
    ///
    /// `wakeup` is the `kmigrated` period in real (host) time, standing in
    /// for the paper's 500 ms.
    pub fn start(machine_cfg: MachineConfig, memtis_cfg: MemtisConfig, wakeup: Duration) -> Self {
        let machine = Arc::new(Mutex::new(Machine::new(machine_cfg)));
        let policy = Arc::new(Mutex::new(MemtisPolicy::new(memtis_cfg)));
        let (tx, rx): (SyncSender<SampleMsg>, Receiver<SampleMsg>) = sync_channel(4096);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RuntimeStats::default());

        let mut threads = Vec::new();

        // ksampled: drain the PEBS buffer, update histograms/thresholds.
        {
            let machine = Arc::clone(&machine);
            let policy = Arc::clone(&policy);
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            threads.push(
                std::thread::Builder::new()
                    .name("ksampled".into())
                    .spawn(move || {
                        let mut acct = CostAccounting::default();
                        let mut deliver = |msg: SampleMsg| {
                            let mut m = lock(&machine);
                            let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
                            lock(&policy).on_access(&mut ops, &msg.access, &msg.outcome);
                            stats.samples_delivered.fetch_add(1, Ordering::Relaxed);
                        };
                        loop {
                            match rx.recv_timeout(Duration::from_millis(5)) {
                                Ok(msg) => deliver(msg),
                                // On shutdown, drain what was buffered before
                                // the flag went up, then exit.
                                Err(RecvTimeoutError::Timeout) => {
                                    if shutdown.load(Ordering::Acquire) {
                                        rx.try_iter().for_each(&mut deliver);
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
                            let now_ns = start.elapsed().as_nanos() as f64;
                            let mut m = lock(&machine);
                            let mut p = lock(&policy);
                            let mut ops =
                                PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, now_ns);
                            p.tick(&mut ops);
                            // With a bandwidth-limited link, `tick` only
                            // enqueued transfers; advance the engine and
                            // report completions/aborts back to the policy.
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
        }
    }

    /// Maps a region (application side), asking the policy for placement
    /// exactly as the simulation driver does.
    pub fn alloc_region(&self, start: u64, bytes: u64, thp: bool) -> SimResult<()> {
        let mut m = lock(&self.machine);
        let mut acct = CostAccounting::default();
        let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::App, 0.0);
        alloc_region(
            &mut *lock(&self.policy),
            &mut ops,
            VirtAddr(start),
            bytes,
            thp,
        )
    }

    /// Executes one access on the application path. The only daemon
    /// interaction is a non-blocking sample push.
    pub fn access(&self, access: Access) -> SimResult<AccessOutcome> {
        let outcome = {
            let mut m = lock(&self.machine);
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
    pub fn locate(&self, vpage: VirtPage) -> Option<(TierId, PageSize)> {
        lock(&self.machine).locate(vpage)
    }

    /// Machine statistics snapshot.
    pub fn machine_stats(&self) -> memtis_sim::stats::MachineStats {
        lock(&self.machine).stats.clone()
    }

    /// Stops the daemons and joins their threads.
    pub fn shutdown(mut self) -> Arc<RuntimeStats> {
        self.stop_daemons();
        Arc::clone(&self.stats)
    }

    fn stop_daemons(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    /// Dropping the runtime without calling [`Runtime::shutdown`] used to
    /// leak both daemon threads (`ksampled` kept polling its 5 ms timeout
    /// because the shutdown flag was never raised). Stop and join them here;
    /// after an explicit `shutdown()` the thread list is already empty and
    /// this is a no-op.
    fn drop(&mut self) {
        self.stop_daemons();
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
        let (dummy_tx, _dummy_rx) = sync_channel::<SampleMsg>(1);
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
}
