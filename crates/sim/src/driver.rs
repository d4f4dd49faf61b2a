//! The simulation driver: feeds a workload's event stream through the
//! machine and a tiering policy, accounting application and daemon time.
//!
//! ## Time model
//!
//! The workload represents `app_threads` application threads issuing an
//! aggregate access stream; wall-clock time advances by `latency /
//! app_threads` per access (perfect thread overlap). Policy work is charged
//! to one of two sinks (see [`crate::policy::CostSink`]): application-side
//! costs (fault handlers, allocation-path migration) stretch wall time
//! directly, while daemon costs consume cores. At each daemon-contention
//! window the driver converts daemon CPU into an application slowdown only when the
//! application threads plus daemon threads oversubscribe the cores — this
//! reproduces the paper's observation that HeMem's sampling thread hurts at
//! 20 app threads but not at 16 (§6.2.9).

use crate::access::{Access, AccessOutcome, AccessRecord, RecordFilter};
use crate::addr::{PageSize, VirtAddr, VirtPage, HUGE_PAGE_SIZE};
use crate::config::MachineConfig;
use crate::engine::EngineEvent;
use crate::error::{SimError, SimResult};
use crate::faults::{
    FaultCounters, FaultInjector, FaultPlan, SampleFate, TickFate, DRIVER_FAULT_SALT,
};
use crate::machine::{BatchClock, BatchStop, Machine};
use crate::policy::{
    abort_failure, alloc_page, alloc_region, CostAccounting, CostSink, PolicyOps, TieringPolicy,
};
use crate::shard::{self, lane_of, LaneScratch, NUM_LANES};
use crate::stats::MachineStats;
use crate::util::tree_fold_f64;
use memtis_obs::profile::{SpanGuard, SpanId};
use memtis_obs::{
    Event, EventKind, FlightRecorder, HistStats, LatHist, NopObserver, Observer, ShootdownCause,
    SnapError, SnapFields, SnapReader, SnapWriter, WindowCollector, WindowCut, WindowSample,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One event produced by a workload generator.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadEvent {
    /// Execute a memory access.
    Access(Access),
    /// Map a virtual region. `thp` marks the region THP-eligible (the driver
    /// also honors the global THP switch).
    Alloc {
        /// Start address (2 MiB-aligned for THP-eligible regions).
        addr: VirtAddr,
        /// Region length in bytes.
        bytes: u64,
        /// Whether THP may back this region with huge pages.
        thp: bool,
    },
    /// Unmap a virtual region previously allocated.
    Free {
        /// Start address.
        addr: VirtAddr,
        /// Region length in bytes.
        bytes: u64,
    },
}

/// Default main-loop batching granularity (events per [`AccessStream::fill`]
/// call). Large enough to amortize per-chunk work over the ~1600-access tick
/// intervals typical of bench configs, small enough that the chunk buffers
/// stay cache-resident.
pub const DEFAULT_CHUNK: usize = 1024;

/// A source of workload events.
pub trait AccessStream {
    /// The next event, or `None` when the workload is finished.
    fn next_event(&mut self) -> Option<WorkloadEvent>;

    /// Fills `buf` with upcoming events, returning how many were written;
    /// `0` means the stream is finished. Must produce exactly the sequence
    /// repeated [`next_event`] calls would.
    ///
    /// The default delegates to [`next_event`]. Because default trait
    /// methods are compiled once per implementation, even this fallback
    /// dispatches `next_event` statically inside the loop — the driver pays
    /// one virtual `fill` call per chunk instead of one per event.
    /// Generators with a cheap bulk path override it.
    ///
    /// [`next_event`]: AccessStream::next_event
    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            match self.next_event() {
                Some(ev) => {
                    buf[n] = ev;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Skips the next `n` events without delivering them, as if they had
    /// been pulled and discarded. Used to fast-forward a fresh stream to a
    /// checkpoint's cursor on resume. The default pulls and drops `n`
    /// events; sources with a cheaper path (trace replays decode and drop
    /// in bulk) override it.
    fn skip_events(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_event().is_none() {
                break;
            }
        }
    }

    /// The stream's current position in source-defined units (events, for
    /// trace replays and for generators that track one), surfaced in
    /// heartbeat lines. `None` when the source doesn't report one.
    fn position(&self) -> Option<u64> {
        None
    }

    /// Workload name for reports.
    fn name(&self) -> &str;
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Global transparent-huge-page switch.
    pub thp_enabled: bool,
    /// Background tick period in simulated ns (kmigrated-style wakeups).
    pub tick_interval_ns: f64,
    /// Daemon-contention window length in simulated ns. Every this-many ns
    /// the driver measures the daemons' CPU use over the elapsed window and
    /// stretches the wall clock by the cores they stole from the
    /// application (see `Simulation::close_window`).
    pub timeline_interval_ns: f64,
    /// Telemetry window length in workload events (accesses + allocs +
    /// frees). A window closes every this-many events; a final partial
    /// window covers the tail of the run.
    pub window_events: u64,
    /// Migration-link bandwidth cap override (bytes/ns). `Some(v > 0)`
    /// engages the asynchronous migration engine with that cap;
    /// `Some(v <= 0)` forces instantaneous migration; `None` keeps the
    /// machine config's setting.
    pub migration_bw: Option<f64>,
    /// Migration admission-queue depth override; `None` keeps the machine
    /// config's setting.
    pub migration_queue: Option<usize>,
    /// Turns shadow copies (non-exclusive transactional migration) on;
    /// `false` keeps the machine config's setting.
    pub shadow: bool,
    /// Turns anti-thrashing hysteresis on with this configuration; `None`
    /// keeps the machine config's setting.
    pub hysteresis: Option<crate::config::HysteresisConfig>,
    /// Fault-injection plan. `None` — and any inert plan — leaves every
    /// code path bit-exact with a normal run.
    pub faults: Option<FaultPlan>,
    /// Main-loop batching granularity in events. Values above 1 pull events
    /// through [`AccessStream::fill`] in chunks of this size and execute
    /// access runs through the batched pipeline; `0` or `1` forces the
    /// legacy one-event-at-a-time loop (the bit-exactness oracle). Both
    /// paths produce byte-identical [`RunReport`]s.
    pub chunk: usize,
    /// Sharded execution: `Some(s)` partitions the address space into
    /// [`NUM_LANES`] fixed lanes, runs every lane of each chunked burst on
    /// the coordinator, and merges the lanes deterministically at the end of
    /// every burst. Requires `chunk > 1`. `s` groups the lanes into `s`
    /// contiguous shards, which only sets the per-shard load split that
    /// [`ShardMetrics::crit_accesses`] and [`ShardMetrics::projected_ns`]
    /// model. Reports, traces, and window series are byte-identical for
    /// every `s` at a fixed `chunk`; `None` keeps the unsharded pipeline.
    pub shards: Option<usize>,
    /// Heartbeat period in workload events: every this-many events the
    /// driver prints a compact one-line JSON status to *stderr* (stdout
    /// output and the report stay untouched), so hours-long soaks are
    /// inspectable mid-run. `None` disables.
    pub heartbeat_events: Option<u64>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            thp_enabled: true,
            tick_interval_ns: 100_000.0,
            timeline_interval_ns: 2_000_000.0,
            window_events: 100_000,
            migration_bw: None,
            migration_queue: None,
            shadow: false,
            hysteresis: None,
            faults: None,
            chunk: DEFAULT_CHUNK,
            shards: None,
            heartbeat_events: None,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Total wall-clock time (ns), the performance headline.
    pub wall_ns: f64,
    /// Sum of raw access latencies (ns), before dividing across threads.
    pub app_access_ns: f64,
    /// Application-side policy overhead (fault handlers etc., ns).
    pub app_extra_ns: f64,
    /// Background daemon CPU consumed (ns).
    pub daemon_ns: f64,
    /// Accesses executed.
    pub accesses: u64,
    /// Machine counters at the end of the run.
    pub stats: MachineStats,
    /// TLB counters.
    pub tlb: crate::tlb::TlbStats,
    /// LLC counters.
    pub llc: crate::cache::LlcStats,
    /// Peak application RSS (bytes).
    pub rss_peak_bytes: u64,
    /// Final application RSS (bytes).
    pub rss_final_bytes: u64,
    /// Telemetry windows (every [`DriverConfig::window_events`] events),
    /// produced by the shared [`WindowCollector`] regardless of observer.
    pub windows: Vec<WindowSample>,
    /// Workload events processed (accesses + allocs + frees).
    pub sim_events: u64,
    /// Histogram bin underflows the policy detected (metadata/histogram
    /// desync; must be zero on healthy runs).
    pub hist_underflows: u64,
    /// Fault-injection tallies (all zero on normal runs).
    pub faults: FaultCounters,
    /// Flight-recorder latency summary: flat `(key, value)` rows of
    /// percentiles/counts per class (demand by tier/page-size, transfer,
    /// queue-wait, abort-to-retry). Empty unless the observer attached the
    /// flight recorder. Simulated-time quantities only, so the rows are
    /// deterministic and chunk/shard-invariant.
    pub lat: Vec<(String, f64)>,
    /// Per-window flight-recorder summaries, parallel to `windows` (cut by
    /// differencing cumulative histogram snapshots). Empty unless the
    /// flight recorder is attached.
    pub lat_windows: Vec<Vec<(String, f64)>>,
    /// *Host* wall-clock time the run took (ns) — simulator self-throughput,
    /// not simulated time. Tracks the perf trajectory of the simulator
    /// itself across PRs (see BENCH_*.json).
    pub host_elapsed_ns: u64,
}

impl RunReport {
    /// Accesses per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.accesses as f64 / (self.wall_ns * 1e-9)
        }
    }

    /// Simulator self-throughput: workload events per second of *host*
    /// wall-clock time.
    pub fn self_events_per_sec(&self) -> f64 {
        if self.host_elapsed_ns == 0 {
            0.0
        } else {
            self.sim_events as f64 / (self.host_elapsed_ns as f64 * 1e-9)
        }
    }

    /// Daemon CPU usage as a fraction of one core over the run.
    pub fn daemon_core_usage(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.daemon_ns / self.wall_ns
        }
    }
}

/// Start of the current daemon-contention window (see
/// `Simulation::close_window`).
struct WindowState {
    start_wall: f64,
    start_daemon_ns: f64,
}

/// Per-run sharded-execution state: the lane scratch pool plus cumulative
/// barrier tallies. Lives outside `RunReport` so reports stay byte-identical
/// across shard counts; the host-side scaling numbers surface through
/// [`Simulation::shard_metrics`].
struct ShardRun {
    /// Lane-group count per burst: the grain of the critical-path model.
    shards: usize,
    /// One scratch buffer per lane, reused across bursts.
    lanes: Vec<LaneScratch>,
    /// Tournament-merge heap, reused across bursts (zero steady-state
    /// allocation alongside the lane scratch).
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// The records one program pass over a burst's merged candidates
    /// fires, reused across bursts.
    sampled: Vec<AccessRecord>,
    /// Parallel bursts merged so far.
    bursts: u64,
    /// Accesses that spilled from a stopped lane to the serial path.
    spills: u64,
    /// Host ns the coordinator spent in the lane phase, summed over bursts.
    busy_ns: u64,
    /// Accesses executed through the lane phase.
    lane_accesses: u64,
    /// Sum over bursts of the most-loaded shard's access count: the lane
    /// phase's critical path in access units, deterministic per shard count.
    crit_accesses: u64,
}

/// Host-side scaling metrics of a sharded run (see
/// [`Simulation::shard_metrics`]). These are *host* timings — like
/// [`RunReport::host_elapsed_ns`] they vary run to run and are kept out of
/// the deterministic report.
#[derive(Debug, Clone, Copy)]
pub struct ShardMetrics {
    /// Lane-group count the run was configured with (`--shards`). No
    /// thread runs per shard; it sets the grouping `crit_accesses` models.
    pub shards: usize,
    /// Parallel bursts merged.
    pub bursts: u64,
    /// Accesses that spilled from a stopped lane to the serial path.
    pub spills: u64,
    /// Host ns the coordinator spent running the lane phase, summed over
    /// bursts: the total lane work, all of it on one thread.
    pub busy_ns: u64,
    /// Accesses executed through the lane phase (spills excluded).
    pub lane_accesses: u64,
    /// Sum over bursts of the most-loaded shard's access count: the lane
    /// phase's critical path in access units. Deterministic for a given
    /// shard count — only the host timings above vary run to run.
    pub crit_accesses: u64,
}

impl ShardMetrics {
    /// Projects `host_ns` (a measured wall time for the whole run) onto a
    /// host with one core per shard: the lane phase shrinks from its
    /// measured one-thread wall time to its critical-path share, everything
    /// else (coordinator fold, ticks, policy work) stays serial. Amdahl-style,
    /// using the observed per-shard access loads as the work model.
    pub fn projected_ns(&self, host_ns: f64) -> f64 {
        if self.lane_accesses == 0 {
            return host_ns;
        }
        let crit_frac = self.crit_accesses as f64 / self.lane_accesses as f64;
        host_ns - self.busy_ns as f64 * (1.0 - crit_frac)
    }
}

/// The simulation: one machine, one policy, one workload stream.
///
/// Generic over an [`Observer`]; the default [`NopObserver`] compiles the
/// instrumentation away entirely. Build a traced simulation with
/// [`Simulation::with_observer`].
pub struct Simulation<P: TieringPolicy, O: Observer = NopObserver> {
    machine: Machine,
    policy: P,
    obs: O,
    cfg: DriverConfig,
    acct: CostAccounting,
    wall_ns: f64,
    app_access_ns: f64,
    accesses: u64,
    sim_events: u64,
    next_tick: f64,
    next_stretch: f64,
    rss_peak: u64,
    window: WindowState,
    wcol: WindowCollector,
    /// Driver-level fault injector (sample drop/dup, tick skip/delay).
    drv_faults: Option<FaultInjector>,
    /// Whether any fault injector (machine or driver level) is installed.
    has_faults: bool,
    /// Policy-reported histogram underflows already surfaced as events.
    hist_underflows_seen: u64,
    /// Sharded-execution state (`None` on unsharded runs).
    shard: Option<ShardRun>,
    /// Flight-recorder snapshot at the last window cut, for differencing
    /// cumulative histograms into per-window series.
    flight_prev: FlightRecorder,
    /// Per-window flight-recorder summaries collected so far.
    lat_windows: Vec<Vec<(String, f64)>>,
    /// Heartbeat period in events (`u64::MAX` disables) and next due point.
    hb_every: u64,
    hb_next: u64,
    /// Host start time, for heartbeat events/sec.
    host_start: std::time::Instant,
    /// Pause target in cumulative workload events for the current
    /// [`Simulation::run_until`] call (`u64::MAX` = never pause).
    pause_at: u64,
    /// Whether the last `run_until` stopped at the pause target rather
    /// than finishing the stream or the access budget.
    paused: bool,
    /// Whether `policy.init` has run — exactly once per logical run, even
    /// when the run spans several pause/resume segments.
    init_done: bool,
    /// `sim_events` at the start of the logical run, subtracted when the
    /// report is built. Serialized, so a resumed run reports the same
    /// cumulative event count as the uninterrupted one.
    report_events_base: u64,
    /// Events the next `run_until` must skip on its stream before pulling:
    /// set by [`Simulation::restore`] so a fresh stream fast-forwards to
    /// the checkpoint's cursor.
    resume_skip: Option<u64>,
    /// Events pulled from the stream but not yet processed when a pause
    /// fired mid-buffer; the next `run_until` on the same stream drains
    /// them first. Only the *length* is serialized (as `chunk_carry`): a
    /// restored run re-pulls the same events from its fast-forwarded
    /// stream.
    pending: Vec<WorkloadEvent>,
    /// First-fill cap after a restore — the serialized `pending` length,
    /// so a resumed run reproduces the interrupted run's partial-buffer
    /// boundary (and with it every downstream burst boundary) exactly.
    chunk_carry: usize,
    /// `sim_events` when [`Simulation::snapshot`] last ran. Heartbeat
    /// gauge only; not serialized (a restored run just loaded one).
    last_snapshot_events: u64,
    /// Last observed stream position (see [`AccessStream::position`]),
    /// for heartbeat lines. `None` when the stream doesn't report one.
    stream_pos: Option<u64>,
}

/// Human tier label for flight-recorder report keys.
fn tier_label(tier: usize) -> String {
    match tier {
        0 => "fast".to_string(),
        1 => "cap".to_string(),
        n => format!("tier{n}"),
    }
}

/// Appends the standard percentile rows of one histogram summary under
/// `prefix`.
fn lat_rows(out: &mut Vec<(String, f64)>, prefix: &str, s: &HistStats) {
    out.push((format!("{prefix}_count"), s.count as f64));
    out.push((format!("{prefix}_p50_ns"), s.p50 as f64));
    out.push((format!("{prefix}_p90_ns"), s.p90 as f64));
    out.push((format!("{prefix}_p99_ns"), s.p99 as f64));
    out.push((format!("{prefix}_p999_ns"), s.p999 as f64));
    out.push((format!("{prefix}_mean_ns"), s.mean));
    out.push((format!("{prefix}_max_ns"), s.max as f64));
}

/// Flattens a flight recorder into the report's `(key, value)` rows:
/// overall demand, each non-empty `(tier, page-size)` demand class, and
/// the migration transfer / queue-wait / abort-to-retry histograms.
///
/// With `prev = Some(snapshot)` the rows cover the window since that
/// snapshot, computed via single-pass difference stats — the per-window
/// cut never materialises difference histograms (the recorder must be
/// flushed; the caller does so). With `prev = None` the rows cover the
/// whole run. A demand class gets rows iff it saw samples in the covered
/// span; the aggregate rows are always present.
fn flight_rows_since(cur: &FlightRecorder, prev: Option<&FlightRecorder>) -> Vec<(String, f64)> {
    let class_stats = |h: &LatHist, p: Option<&LatHist>| match p {
        Some(p) => h.stats_since(p),
        None => h.stats(),
    };
    let mut out = Vec::new();
    let all = match prev {
        Some(p) => cur.demand_all_stats_since(p),
        None => cur.demand_all_stats(),
    };
    lat_rows(&mut out, "demand", &all);
    for t in 0..cur.demand_tiers() {
        for (huge, sfx) in [(false, "base"), (true, "huge")] {
            if let Some(h) = cur.demand(t as u8, huge) {
                let s = class_stats(h, prev.and_then(|p| p.demand(t as u8, huge)));
                if s.count > 0 {
                    lat_rows(&mut out, &format!("demand_{}_{}", tier_label(t), sfx), &s);
                }
            }
        }
    }
    for (name, h, p) in [
        ("transfer", &cur.transfer, prev.map(|p| &p.transfer)),
        ("queue_wait", &cur.queue_wait, prev.map(|p| &p.queue_wait)),
        (
            "abort_retry",
            &cur.abort_retry,
            prev.map(|p| &p.abort_retry),
        ),
    ] {
        lat_rows(&mut out, name, &class_stats(h, p));
    }
    out
}

impl<P: TieringPolicy> Simulation<P, NopObserver> {
    /// Creates an untraced simulation over a fresh machine.
    pub fn new(machine_cfg: MachineConfig, policy: P, cfg: DriverConfig) -> Self {
        Self::with_observer(machine_cfg, policy, cfg, NopObserver)
    }
}

impl<P: TieringPolicy, O: Observer> Simulation<P, O> {
    /// Creates a simulation routing trace events and window samples to
    /// `obs`.
    pub fn with_observer(
        mut machine_cfg: MachineConfig,
        policy: P,
        cfg: DriverConfig,
        obs: O,
    ) -> Self {
        if let Some(bw) = cfg.migration_bw {
            machine_cfg.migration.bandwidth_limit = if bw > 0.0 { Some(bw) } else { None };
        }
        if let Some(q) = cfg.migration_queue {
            machine_cfg.migration.queue_depth = q;
        }
        if cfg.shadow {
            machine_cfg.migration.shadow = true;
        }
        if let Some(h) = &cfg.hysteresis {
            machine_cfg.migration.hysteresis = Some(h.clone());
        }
        let mut machine = Machine::new(machine_cfg);
        let drv_faults = match &cfg.faults {
            Some(plan) if !plan.is_inert() => {
                machine.install_faults(plan);
                Some(FaultInjector::new(*plan, DRIVER_FAULT_SALT))
            }
            _ => None,
        };
        let has_faults = drv_faults.is_some();
        let shard = match cfg.shards {
            Some(s) if cfg.chunk > 1 => {
                machine.enable_lanes();
                Some(ShardRun {
                    shards: s.max(1),
                    lanes: (0..NUM_LANES).map(|_| LaneScratch::default()).collect(),
                    heap: BinaryHeap::new(),
                    sampled: Vec::new(),
                    bursts: 0,
                    spills: 0,
                    busy_ns: 0,
                    lane_accesses: 0,
                    crit_accesses: 0,
                })
            }
            _ => None,
        };
        if obs.enabled() && obs.flight_enabled() {
            machine.attach_flight();
        }
        let next_tick = cfg.tick_interval_ns;
        let next_stretch = cfg.timeline_interval_ns;
        let wcol = WindowCollector::new(cfg.window_events);
        let hb_every = cfg.heartbeat_events.unwrap_or(u64::MAX).max(1);
        Simulation {
            machine,
            policy,
            obs,
            cfg,
            acct: CostAccounting::default(),
            wall_ns: 0.0,
            app_access_ns: 0.0,
            accesses: 0,
            sim_events: 0,
            next_tick,
            next_stretch,
            rss_peak: 0,
            window: WindowState {
                start_wall: 0.0,
                start_daemon_ns: 0.0,
            },
            wcol,
            drv_faults,
            has_faults,
            hist_underflows_seen: 0,
            shard,
            flight_prev: FlightRecorder::new(),
            lat_windows: Vec::new(),
            hb_every,
            hb_next: hb_every,
            host_start: std::time::Instant::now(),
            pause_at: u64::MAX,
            paused: false,
            init_done: false,
            report_events_base: 0,
            resume_skip: None,
            pending: Vec::new(),
            chunk_carry: 0,
            last_snapshot_events: 0,
            stream_pos: None,
        }
    }

    /// Read access to the machine (tests, inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Read access to the policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Read access to the observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the simulation, returning the observer (for export).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The flight recorder's cumulative histograms, if attached.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.machine.flight()
    }

    /// Opens a self-profiling span if the observer carries a profiler.
    /// The guard owns its `Arc`, so the borrow of `obs` ends here.
    #[inline]
    fn span(obs: &O, id: SpanId) -> Option<SpanGuard> {
        obs.profiler().map(|p| p.enter(id))
    }

    fn ops<'a>(
        machine: &'a mut Machine,
        acct: &'a mut CostAccounting,
        obs: &'a mut O,
        sink: CostSink,
        now: f64,
    ) -> PolicyOps<'a> {
        if obs.enabled() {
            PolicyOps::with_observer(machine, acct, sink, now, Some(obs as &mut dyn Observer))
        } else {
            // NopObserver resolves here at compile time: no dyn pointer is
            // ever attached, keeping the untraced path identical to PR-1.
            PolicyOps::new(machine, acct, sink, now)
        }
    }

    fn threads(&self) -> f64 {
        self.machine.config().app_threads.max(1) as f64
    }

    fn handle_alloc(&mut self, addr: VirtAddr, bytes: u64, thp: bool) -> SimResult<()> {
        let mut ops = Self::ops(
            &mut self.machine,
            &mut self.acct,
            &mut self.obs,
            CostSink::App,
            self.wall_ns,
        );
        let thp = thp && self.cfg.thp_enabled;
        alloc_region(&mut self.policy, &mut ops, addr, bytes, thp)?;
        self.rss_peak = self.rss_peak.max(self.machine.rss_bytes());
        Ok(())
    }

    fn handle_free(&mut self, addr: VirtAddr, bytes: u64) -> SimResult<()> {
        let mut cur = addr.0;
        let end = addr.0 + bytes;
        while cur < end {
            let vpage = VirtAddr(cur).base_page();
            match self.machine.locate(vpage) {
                Some((_, PageSize::Huge)) if vpage.is_huge_aligned() => {
                    let cost = self.machine.unmap_and_free(vpage, PageSize::Huge)?;
                    self.acct.app_extra_ns += cost;
                    self.emit_unmap_shootdown(vpage);
                    let mut ops = Self::ops(
                        &mut self.machine,
                        &mut self.acct,
                        &mut self.obs,
                        CostSink::App,
                        self.wall_ns,
                    );
                    self.policy.on_free(&mut ops, vpage, PageSize::Huge);
                    cur += HUGE_PAGE_SIZE;
                }
                Some((_, PageSize::Base)) => {
                    let cost = self.machine.unmap_and_free(vpage, PageSize::Base)?;
                    self.acct.app_extra_ns += cost;
                    self.emit_unmap_shootdown(vpage);
                    let mut ops = Self::ops(
                        &mut self.machine,
                        &mut self.acct,
                        &mut self.obs,
                        CostSink::App,
                        self.wall_ns,
                    );
                    self.policy.on_free(&mut ops, vpage, PageSize::Base);
                    cur += PageSize::Base.bytes();
                }
                _ => {
                    // Hole (e.g. a zero subpage freed by a split): skip.
                    cur += PageSize::Base.bytes();
                }
            }
        }
        Ok(())
    }

    /// Traces the TLB shootdown a workload unmap performed.
    #[inline]
    fn emit_unmap_shootdown(&mut self, vpage: VirtPage) {
        if self.obs.enabled() {
            self.obs.record(Event::new(
                self.wall_ns,
                EventKind::TlbShootdown {
                    vpage: vpage.0,
                    cause: ShootdownCause::Unmap,
                },
            ));
        }
    }

    fn handle_access(&mut self, access: Access) -> SimResult<()> {
        let outcome = match self.machine.access(access) {
            Ok(o) => o,
            Err(SimError::NotMapped(vpage)) => {
                // Demand fault: map a base page where the policy prefers.
                self.acct.app_extra_ns += self.machine.config().costs.fault_overhead_ns;
                self.machine.stats.demand_faults += 1;
                let mut ops = Self::ops(
                    &mut self.machine,
                    &mut self.acct,
                    &mut self.obs,
                    CostSink::App,
                    self.wall_ns,
                );
                alloc_page(&mut self.policy, &mut ops, vpage, PageSize::Base)?;
                let mut o = self.machine.access(access)?;
                o.demand_fault = true;
                o
            }
            Err(e) => return Err(e),
        };
        self.commit_access(&access, &outcome);
        Ok(())
    }

    /// The tail of one executed access, shared by the per-event path and
    /// the batched loop's hint stop: the hint-fault hook (on the app's
    /// critical path), sample delivery, then the clock advance by the
    /// access latency plus the app-side fault work those hooks charged.
    fn commit_access(&mut self, access: &Access, outcome: &AccessOutcome) {
        let app_before = self.acct.app_extra_ns;
        if outcome.hint_fault {
            let mut ops = Self::ops(
                &mut self.machine,
                &mut self.acct,
                &mut self.obs,
                CostSink::App,
                self.wall_ns,
            );
            self.policy.on_hint_fault(&mut ops, outcome.vpage);
        }
        self.notify_access(access, outcome);
        let fault_work = self.acct.app_extra_ns - app_before;

        self.app_access_ns += outcome.latency_ns;
        self.wall_ns += (outcome.latency_ns + fault_work) / self.threads();
        self.accesses += 1;
    }

    /// Delivers one executed access to the policy (daemon context),
    /// applying the fault injector's sample fate — drop the sample before
    /// the policy sees it (lossy perf buffer), deliver it, or deliver it
    /// twice (replayed record). The *single* `policy.on_access` call site:
    /// both the per-event path and the batched fault tails route through
    /// here, so the fate logic cannot diverge between them.
    fn notify_access(&mut self, access: &Access, outcome: &AccessOutcome) {
        let fate = match self.drv_faults.as_mut() {
            Some(inj) => inj.sample_fate(self.wall_ns, outcome.vpage.0),
            None => SampleFate::Deliver,
        };
        if fate != SampleFate::Drop {
            let mut ops = Self::ops(
                &mut self.machine,
                &mut self.acct,
                &mut self.obs,
                CostSink::Daemon,
                self.wall_ns,
            );
            self.policy.on_access(&mut ops, access, outcome);
        }
        if fate == SampleFate::Duplicate {
            let mut ops = Self::ops(
                &mut self.machine,
                &mut self.acct,
                &mut self.obs,
                CostSink::Daemon,
                self.wall_ns,
            );
            self.policy.on_access(&mut ops, access, outcome);
        }
    }

    /// Advances the asynchronous migration engine to the current wall
    /// clock: starts queued transfers as links free up, finalizes finished
    /// copies, and reports terminal transfers back to the policy (daemon
    /// context). No-op while the engine is idle, so unlimited-bandwidth
    /// runs never enter this path.
    fn pump_transfers(&mut self) {
        // Machine-level faults (outages, pressure, forced aborts) are
        // applied inside the machine's pump and may need to run even while
        // the engine is idle.
        if self.machine.transfers_idle()
            && !self.machine.has_fault_injection()
            && !self.machine.has_pending_shadow_events()
        {
            return;
        }
        let _span = Self::span(&self.obs, SpanId::MigrationPump);
        let events = self.machine.pump_transfers(self.wall_ns);
        if events.is_empty() {
            return;
        }
        let shootdown_ns = self.machine.config().costs.tlb_shootdown_ns;
        for ev in events {
            match ev {
                EngineEvent::Started {
                    vpage,
                    from,
                    to,
                    bytes,
                    ..
                } => {
                    if self.obs.enabled() {
                        self.obs.record(Event::new(
                            self.wall_ns,
                            EventKind::MigrationStarted {
                                vpage: vpage.0,
                                from: from.0,
                                to: to.0,
                                bytes,
                            },
                        ));
                    }
                }
                EngineEvent::Ended(end) => {
                    match end.aborted {
                        None => {
                            // The remap (PTE update + TLB shootdown) runs on
                            // the migration daemon, off the app critical path.
                            self.acct.daemon_ns += shootdown_ns;
                            if self.obs.enabled() {
                                self.obs.record(Event::new(
                                    self.wall_ns,
                                    EventKind::MigrationCompleted {
                                        vpage: end.vpage.0,
                                        from: end.from.0,
                                        to: end.to.0,
                                        bytes: end.bytes,
                                    },
                                ));
                            }
                        }
                        Some(cause) => {
                            if self.obs.enabled() {
                                self.obs.record(Event::new(
                                    self.wall_ns,
                                    EventKind::MigrationAborted {
                                        vpage: end.vpage.0,
                                        to: end.to.0,
                                        bytes: end.bytes,
                                        wasted_bytes: end.wasted_bytes,
                                        cause: abort_failure(cause),
                                    },
                                ));
                            }
                        }
                    }
                    let mut ops = Self::ops(
                        &mut self.machine,
                        &mut self.acct,
                        &mut self.obs,
                        CostSink::Daemon,
                        self.wall_ns,
                    );
                    self.policy.on_transfer_end(&mut ops, &end);
                }
                EngineEvent::ShadowReclaimed { vpage, tier, bytes } => {
                    if self.obs.enabled() {
                        self.obs.record(Event::new(
                            self.wall_ns,
                            EventKind::ShadowReclaimed {
                                vpage: vpage.0,
                                tier: tier.0,
                                bytes,
                            },
                        ));
                    }
                }
            }
        }
    }

    fn run_due_ticks(&mut self) {
        while self.wall_ns >= self.next_tick {
            let mut now = self.next_tick;
            if let Some(inj) = self.drv_faults.as_mut() {
                match inj.tick_fate(now) {
                    TickFate::Skip => {
                        // The wakeup never fired; the next one keeps cadence.
                        self.next_tick += self.cfg.tick_interval_ns;
                        continue;
                    }
                    TickFate::Delay(extra_ns) => now += extra_ns,
                    TickFate::Run => {}
                }
            }
            let _span = Self::span(&self.obs, SpanId::PolicyTick);
            let mut ops = Self::ops(
                &mut self.machine,
                &mut self.acct,
                &mut self.obs,
                CostSink::Daemon,
                now,
            );
            self.policy.tick(&mut ops);
            self.next_tick += self.cfg.tick_interval_ns;
        }
    }

    /// Drains pending fault records (machine- and driver-level) into the
    /// trace ring. The drain happens even untraced so the bounded logs
    /// cannot alter behavior between traced and untraced runs.
    fn emit_fault_records(&mut self) {
        let machine_recs = self.machine.drain_fault_log();
        let driver_recs = match self.drv_faults.as_mut() {
            Some(inj) => inj.drain_log(),
            None => Vec::new(),
        };
        if !self.obs.enabled() {
            return;
        }
        for r in machine_recs.into_iter().chain(driver_recs) {
            self.obs.record(Event::new(
                r.t_ns,
                EventKind::FaultInjected {
                    fault: r.kind,
                    vpage: r.vpage,
                },
            ));
        }
    }

    /// Surfaces newly-detected histogram underflows as trace events.
    fn note_hist_underflows(&mut self) {
        let total = self.policy.hist_underflows();
        if total > self.hist_underflows_seen {
            let count = total - self.hist_underflows_seen;
            self.hist_underflows_seen = total;
            if self.obs.enabled() {
                self.obs
                    .record(Event::new(self.wall_ns, EventKind::HistUnderflow { count }));
            }
        }
    }

    /// Closes the daemon-contention window: daemons steal cores from the
    /// application when the machine is oversubscribed, so the window's wall
    /// time stretches by the share of cores they used. Windows are
    /// [`DriverConfig::timeline_interval_ns`] long, plus a final partial one
    /// at the end of the run.
    fn close_window(&mut self) {
        let wdur = self.wall_ns - self.window.start_wall;
        if wdur <= 0.0 {
            return;
        }
        let cores = self.machine.config().cores as f64;
        let threads = self.threads();
        let wdaemon = self.acct.daemon_ns - self.window.start_daemon_ns;
        // Daemon work runs on a bounded set of kernel threads; work beyond
        // that capacity queues rather than consuming extra cores.
        let dcores = ((wdaemon / wdur).min(self.machine.config().daemon_core_cap)
            + self.policy.dedicated_daemon_cores())
        .min(cores - 1.0);
        let available = cores - dcores;
        let speed = (available.min(threads)) / threads;
        let stretch = wdur * (1.0 / speed - 1.0);
        self.wall_ns += stretch;
        self.window = WindowState {
            start_wall: self.wall_ns,
            start_daemon_ns: self.acct.daemon_ns,
        };
    }

    /// Closes the current telemetry window at the present cumulative state
    /// and notifies the observer.
    fn cut_telemetry_window(&mut self) {
        let _span = Self::span(&self.obs, SpanId::WindowCut);
        self.note_hist_underflows();
        // Epoch-barrier telemetry: cumulative burst/spill tallies at the
        // cut. Both values are shard-count-invariant, so traces stay
        // byte-identical across `--shards` values.
        if let Some(sh) = &self.shard {
            if self.obs.enabled() {
                self.obs.record(Event::new(
                    self.wall_ns,
                    EventKind::ShardBarrier {
                        bursts: sh.bursts,
                        spills: sh.spills,
                    },
                ));
            }
        }
        let mut gauges = Vec::new();
        self.policy.timeline(&mut gauges);
        let mut hist_bins = Vec::new();
        self.policy.histogram_bins(&mut hist_bins);
        let sample = self.wcol.close(WindowCut {
            events: self.sim_events,
            wall_ns: self.wall_ns,
            accesses: self.accesses,
            tier_hits: &self.machine.stats.tier_hits,
            migrated_bytes: self.machine.stats.migration.migrated_bytes,
            gauges,
            hist_bins,
        });
        self.obs.on_window(sample);
        // Cut the flight recorder's window by single-pass difference stats
        // against the last cut's snapshot (no histograms are materialised,
        // and the snapshot reuses its allocations). `WindowSample` itself
        // stays untouched so traced and untraced window series still match.
        if self.machine.flight_attached() {
            let cur = self.machine.flight().expect("checked attached");
            self.lat_windows
                .push(flight_rows_since(cur, Some(&self.flight_prev)));
            self.flight_prev.snapshot_from(cur);
        }
    }

    /// Processes one workload event plus the per-event bookkeeping the main
    /// loop performs after it. Returns `true` when
    /// [`Simulation::run_until`]'s pause target is reached.
    fn step_event(&mut self, ev: WorkloadEvent) -> SimResult<bool> {
        self.sim_events += 1;
        match ev {
            WorkloadEvent::Access(a) => self.handle_access(a)?,
            WorkloadEvent::Alloc { addr, bytes, thp } => self.handle_alloc(addr, bytes, thp)?,
            WorkloadEvent::Free { addr, bytes } => self.handle_free(addr, bytes)?,
        }
        self.pump_transfers();
        if self.has_faults {
            self.emit_fault_records();
        }
        Ok(self.post_event_checks())
    }

    /// The boundary checks the main loop runs after every event: due ticks,
    /// daemon-contention stretches, telemetry-window cuts, the RSS peak,
    /// and the pause target. Returns `true` when
    /// [`Simulation::run_until`]'s pause target is reached. The
    /// batched loop hoists this from per-event to per-burst, having sized
    /// each burst so no check could have fired mid-burst.
    fn post_event_checks(&mut self) -> bool {
        if self.wall_ns >= self.next_tick {
            self.run_due_ticks();
        }
        if self.wall_ns >= self.next_stretch {
            self.close_window();
            self.next_stretch = self.wall_ns + self.cfg.timeline_interval_ns;
        }
        if self.wcol.due(self.sim_events) {
            self.cut_telemetry_window();
        }
        if self.sim_events >= self.hb_next {
            self.emit_heartbeat();
        }
        self.rss_peak = self.rss_peak.max(self.machine.rss_bytes());
        if self.sim_events >= self.pause_at {
            self.paused = true;
            return true;
        }
        false
    }

    /// Prints the periodic one-line JSON status to stderr (never stdout —
    /// reports and exported traces stay unperturbed). Host-time rate plus
    /// instantaneous simulated-state gauges; flight-recorder p99 when the
    /// recorder is attached, 0 otherwise. `snapshot_age_events` is the
    /// events since the last [`Simulation::snapshot`] (or since the start
    /// of the run if none was taken) and `stream_pos` the source-reported
    /// stream position (`-1` when the source doesn't report one), so soaks
    /// expose their resumability state mid-run.
    fn emit_heartbeat(&mut self) {
        while self.hb_next <= self.sim_events {
            self.hb_next += self.hb_every;
        }
        let elapsed = self.host_start.elapsed().as_secs_f64().max(1e-9);
        let eps = self.sim_events as f64 / elapsed;
        let p99 = self
            .machine
            .flight()
            .map(|f| f.demand_all_stats().p99)
            .unwrap_or(0);
        eprintln!(
            "{{\"schema\":\"memtis-heartbeat-v2\",\"sim_events\":{},\"events_per_sec\":{:.0},\
             \"wall_ns\":{:.0},\"inflight\":{},\"queue_depth\":{},\"p99_demand_ns\":{},\
             \"rss_bytes\":{},\"snapshot_age_events\":{},\"stream_pos\":{}}}",
            self.sim_events,
            eps,
            self.wall_ns,
            self.machine.transfers_in_flight(),
            self.machine.transfer_queue_len(),
            p99,
            self.machine.rss_bytes(),
            self.sim_events - self.last_snapshot_events,
            self.stream_pos.map(|p| p as i64).unwrap_or(-1),
        );
    }

    /// The batched main loop: pulls events in [`DriverConfig::chunk`]-sized
    /// chunks and executes runs of consecutive accesses through
    /// [`Machine::access_batch`], hoisting the per-event boundary checks to
    /// run granularity.
    ///
    /// Byte-exactness with the per-event loop rests on three invariants:
    ///
    /// 1. Deferral engages only on *quiet* runs — no fault injection
    ///    (every sample fate is `Deliver`, no fault records, per-access
    ///    fault work exactly `0.0`), no shadow copies, and no bandwidth cap
    ///    on a sharded run — for every policy, under the deferral contract
    ///    of [`TieringPolicy::on_access`]. Anything else funnels through
    ///    [`Simulation::step_event`] unchanged, and so does an access taken
    ///    while a queued transfer waits on an idle link
    ///    ([`Machine::next_transfer_event_ns`] is `None`): the pump after it
    ///    starts the copy.
    /// 2. A burst is sized so no boundary check and no engine event could
    ///    fire between two of its accesses: the clock stops at the next
    ///    tick/stretch boundary or the soonest end of an active copy pass,
    ///    and the length is capped by the window collector's
    ///    remaining-event budget and the remaining access budget. The pump
    ///    and the checks then run once after the burst — the first point
    ///    the per-event loop could have seen them act. The engine's active
    ///    set is fixed for the burst, so store dirtying, link contention
    ///    and the uncoalesced access path see what per-event accesses see.
    /// 3. Deferred `on_access` deliveries replay in order, each at its
    ///    recorded pre-update wall clock, before the pump, boundary work
    ///    or fault tail that follows the burst. The record program
    ///    ([`TieringPolicy::batch_record_filter`]) is fetched before every
    ///    burst, so it starts from the policy's counters as the per-event
    ///    loop would have left them, and its cap ends the burst where a
    ///    delivery may reprogram it.
    ///
    /// Hint faults stop the burst (the machine has executed the access;
    /// the legacy tail replays its policy hooks and clock update here) and
    /// demand faults stop it before any side effect (the event re-runs
    /// through `step_event`).
    fn run_chunked(&mut self, workload: &mut dyn AccessStream) -> SimResult<()> {
        let chunk = self.cfg.chunk;
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); chunk];
        let mut records: Vec<AccessRecord> = Vec::with_capacity(chunk);
        // Shadow mode mutates the shadow map from store paths, so its runs
        // stay strictly per-event (stream-ordered): no deferred batches and
        // no sharded bursts, making serial and `--shards N` byte-identical
        // by construction. Sharded bursts ignore the engine's clock stop,
        // so a bandwidth-capped sharded run stays per-event as well.
        let migration = &self.machine.config().migration;
        let defer = !self.has_faults
            && !migration.shadow
            && (self.shard.is_none() || migration.bandwidth_limit.is_none());
        let mut first = true;
        loop {
            // The first buffer of a continued run replays the previous
            // segment's partial buffer — either verbatim (`pending`, same
            // stream) or by re-pulling the same events from a
            // fast-forwarded stream (`chunk_carry`, after a restore) — so
            // burst boundaries land exactly where the uninterrupted run's
            // would.
            let n = if first && !self.pending.is_empty() {
                let take = self.pending.len();
                buf[..take].copy_from_slice(&self.pending);
                self.pending.clear();
                take
            } else if first && self.chunk_carry > 0 {
                let want = self.chunk_carry.min(chunk);
                workload.fill(&mut buf[..want])
            } else {
                workload.fill(&mut buf)
            };
            first = false;
            self.chunk_carry = 0;
            self.stream_pos = workload.position();
            if n == 0 {
                break;
            }
            let mut i = 0;
            let mut halt = false;
            while i < n && !halt {
                let engine_next = match buf[i] {
                    WorkloadEvent::Access(_) if defer => self.machine.next_transfer_event_ns(),
                    _ => None,
                };
                let Some(engine_next) = engine_next else {
                    let ev = buf[i];
                    i += 1;
                    if self.step_event(ev)? {
                        halt = true;
                    }
                    continue;
                };
                let limit = ((n - i) as u64).min(self.wcol.events_until_due(self.sim_events));
                debug_assert!(limit >= 1, "burst sizing must always make progress");
                // Reprogrammed per burst: the policy's counters moved with
                // the last batch and any per-event delivery since.
                let filter = self.policy.batch_record_filter();
                if self.shard.is_some() {
                    let (consumed, stop) =
                        self.run_sharded_burst(&buf[i..i + limit as usize], &mut records, filter)?;
                    i += consumed;
                    if stop {
                        halt = true;
                    }
                    continue;
                }
                let mut clock = BatchClock {
                    wall_ns: self.wall_ns,
                    app_access_ns: self.app_access_ns,
                    threads: self.threads(),
                    stop_wall_ns: self.next_tick.min(self.next_stretch).min(engine_next),
                };
                records.clear();
                let (consumed, stop) = {
                    let _span = Self::span(&self.obs, SpanId::BatchExec);
                    self.machine.access_batch(
                        &buf[i..i + limit as usize],
                        &mut records,
                        &mut clock,
                        filter,
                    )
                };
                self.wall_ns = clock.wall_ns;
                self.app_access_ns = clock.app_access_ns;
                self.accesses += consumed as u64;
                self.sim_events += consumed as u64;
                i += consumed;
                // Delivered even when nothing fired: the policy catches its
                // counters up on the burst's tally.
                if consumed > 0 {
                    self.deliver_record_batch(&records);
                }
                match stop {
                    BatchStop::Clean => {
                        self.pump_transfers();
                        if consumed > 0 && self.post_event_checks() {
                            halt = true;
                        }
                    }
                    BatchStop::Hint(outcome) => {
                        // The access executed (trap cost included in its
                        // latency); replay the per-event tail.
                        let WorkloadEvent::Access(access) = buf[i] else {
                            unreachable!("hint stop only fires on an access event");
                        };
                        self.sim_events += 1;
                        i += 1;
                        self.commit_access(&access, &outcome);
                        self.pump_transfers();
                        if self.post_event_checks() {
                            halt = true;
                        }
                    }
                    BatchStop::NotMapped => {
                        // No side effects yet: the demand fault replays
                        // whole through the per-event path.
                        let ev = buf[i];
                        i += 1;
                        if self.step_event(ev)? {
                            halt = true;
                        }
                    }
                }
            }
            if halt {
                // Events pulled but unprocessed carry over to the next
                // `run_until` segment (and their count into snapshots) so
                // nothing is lost and burst boundaries stay reproducible.
                if i < n {
                    self.pending.extend_from_slice(&buf[i..n]);
                }
                break;
            }
        }
        Ok(())
    }

    /// Executes one sharded burst: the Access-only prefix of `events` runs
    /// through the lane executors ([`shard::run_lanes`], on this thread),
    /// then the coordinator commits the results deterministically. Returns
    /// `(events consumed, stop)`.
    ///
    /// Determinism across shard counts rests on the lanes being pure
    /// functions of the burst-start machine snapshot (see [`crate::shard`]):
    ///
    /// 1. **Partition** — accesses are distributed to their lanes in stream
    ///    order (lane order within a lane equals stream order), tagged with
    ///    their stream index and a pre-rolled flight-recorder sampling
    ///    decision ([`Machine::flight_preroll`] keeps the demand-tap
    ///    schedule a pure function of stream position).
    /// 2. **Lane phase** — lanes run against `&PageTable` read-only;
    ///    reference-bit updates, bookkeeping partials ([`shard::LaneFold`]),
    ///    and kept-record indices are buffered per lane.
    /// 3. **Commit** — deferred reference bits are OR-folded into the page
    ///    table in fixed lane order, then every lane's executed prefix
    ///    commits from its per-lane partials: counter folds merge in lane
    ///    order (order-free), kept records rebuild stream order through a
    ///    tournament merge ([`shard::merge_records`]) and are delivered, and
    ///    the clock advances once by the fixed-shape [`tree_fold_f64`] of
    ///    the 64 lane latency sums. Every ingredient is lane-indexed, so the
    ///    commit is shard-count-invariant by construction and does no
    ///    per-access coordinator work.
    /// 4. **Spill** — a lane that stopped early (unmapped page or armed
    ///    hint) leaves the rest of its accesses unexecuted; they replay in
    ///    stream order through the serial [`Simulation::handle_access`]
    ///    path. Which accesses spill depends only on lane contents, never
    ///    the shard count.
    ///
    /// Three documented deviations from the per-event loop (all invariant
    /// across shard counts, the determinism claim): records are stamped with
    /// the burst-*start* wall clock rather than the evolving mid-burst one
    /// (the policy sees them at the burst barrier either way); spilled
    /// accesses run after the burst's executed accesses are committed and
    /// delivered, not at their stream position; and a spilled access
    /// re-rolls its flight-recorder sampling decision inside
    /// [`Machine::access`] after the partition already consumed its
    /// pre-rolled slot.
    fn run_sharded_burst(
        &mut self,
        events: &[WorkloadEvent],
        records: &mut Vec<AccessRecord>,
        filter: RecordFilter,
    ) -> SimResult<(usize, bool)> {
        let mut sh = self
            .shard
            .take()
            .expect("sharded burst without shard state");
        let m = events
            .iter()
            .position(|ev| !matches!(ev, WorkloadEvent::Access(_)))
            .unwrap_or(events.len());
        debug_assert!(m >= 1, "sharded burst must start with an access");
        for sc in sh.lanes.iter_mut() {
            sc.reset();
        }
        for (idx, ev) in events[..m].iter().enumerate() {
            let WorkloadEvent::Access(a) = *ev else {
                unreachable!("non-access event inside the access prefix");
            };
            let sampled = self.machine.flight_preroll();
            sh.lanes[lane_of(a.vaddr.base_page())].push(a, idx as u32, sampled);
        }
        let phase_start = std::time::Instant::now();
        {
            let _span = Self::span(&self.obs, SpanId::ShardBarrier);
            shard::run_lanes(&mut self.machine, &mut sh.lanes, filter);
        }
        let phase_ns = phase_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shard::apply_deferred_bits(&mut self.machine, &mut sh.lanes);
        // Per-shard load split (deterministic, over the contiguous lane
        // grouping `--shards` names) for the Amdahl projection in
        // [`ShardMetrics::projected_ns`].
        let per = NUM_LANES.div_ceil(sh.shards.max(1));
        let (mut burst_load, mut burst_crit) = (0u64, 0u64);
        for group in sh.lanes.chunks(per) {
            let load: u64 = group.iter().map(|sc| sc.outcome_count() as u64).sum();
            burst_load += load;
            burst_crit = burst_crit.max(load);
        }

        records.clear();
        let fold_span = Self::span(&self.obs, SpanId::ShardFold);
        // Commit every lane's executed prefix from its partials: counter
        // folds merge in lane order (order-free), and the clock advances
        // once by the fixed-shape tree fold of the lane latency sums.
        let mut lat = [0f64; NUM_LANES];
        for (i, sc) in sh.lanes.iter().enumerate() {
            let f = sc.fold();
            self.machine.stats.loads += f.loads;
            self.machine.stats.stores += f.stores;
            for (t, &n) in f.tier_hits.iter().enumerate() {
                // Zero counts never resize, so the tier vector's final
                // length matches per-access counting.
                self.machine.stats.count_tier_hits_bulk(t, n);
            }
            lat[i] = f.lat_sum;
        }
        for sc in sh.lanes.iter() {
            // A sampled position the lane did not execute stays consumed:
            // its access re-rolls inside `Machine::access` when it spills.
            for &k in sc.sampled() {
                if k as usize >= sc.outcome_count() {
                    break;
                }
                let o = sc.outcome(k as usize);
                self.machine
                    .flight_insert_sample(o.tier, o.page_size, o.latency_ns);
            }
        }
        shard::merge_records(&sh.lanes, self.wall_ns, &mut sh.heap, records);
        let total = tree_fold_f64(&lat);
        self.app_access_ns += total;
        self.wall_ns += total / self.threads();
        self.accesses += burst_load;
        self.sim_events += burst_load;
        // The merged candidates are in stream order: run the record
        // program over them, one delivery per capped pass, reprogramming
        // between passes as the serial loop does between bursts.
        let mut pos = 0;
        let mut filter = filter;
        while pos < records.len() {
            if pos > 0 {
                filter = self.policy.batch_record_filter();
            }
            sh.sampled.clear();
            let (used, tally) = filter.select(&records[pos..], &mut sh.sampled);
            pos += used;
            self.machine.set_batch_tally(tally);
            self.deliver_record_batch(&sh.sampled);
        }
        drop(fold_span);

        // Accesses a stopped lane did not execute (unmapped page or armed
        // hint) replay serially, in stream order, after the commit.
        let mut spilled: Vec<u32> = sh
            .lanes
            .iter()
            .flat_map(|sc| sc.unexecuted())
            .copied()
            .collect();
        spilled.sort_unstable();
        sh.spills += spilled.len() as u64;
        sh.bursts += 1;
        sh.busy_ns += phase_ns;
        sh.lane_accesses += burst_load;
        sh.crit_accesses += burst_crit;
        self.shard = Some(sh);
        for idx in spilled {
            let WorkloadEvent::Access(access) = events[idx as usize] else {
                unreachable!("non-access event inside the access prefix");
            };
            self.sim_events += 1;
            self.handle_access(access)?;
        }
        let stop = self.post_event_checks();
        Ok((m, stop))
    }

    /// Delivers one burst's (or one sharded program pass's) records to the
    /// policy (daemon context), even an empty batch: the policy catches up
    /// on the burst's tally.
    fn deliver_record_batch(&mut self, records: &[AccessRecord]) {
        let _span = Self::span(&self.obs, SpanId::SamplingDrain);
        let mut ops = Self::ops(
            &mut self.machine,
            &mut self.acct,
            &mut self.obs,
            CostSink::Daemon,
            self.wall_ns,
        );
        self.policy.on_access_batch(&mut ops, records);
    }

    /// Host-side scaling metrics of the sharded pipeline, or `None` on an
    /// unsharded run. Host timings, not simulated time: use these to model
    /// a per-shard speedup without perturbing the deterministic report.
    pub fn shard_metrics(&self) -> Option<ShardMetrics> {
        self.shard.as_ref().map(|sh| ShardMetrics {
            shards: sh.shards,
            bursts: sh.bursts,
            spills: sh.spills,
            busy_ns: sh.busy_ns,
            lane_accesses: sh.lane_accesses,
            crit_accesses: sh.crit_accesses,
        })
    }

    /// Runs the workload to completion and reports.
    /// The simulation (machine and policy) remains inspectable afterwards.
    pub fn run(&mut self, workload: &mut dyn AccessStream) -> SimResult<RunReport> {
        match self.run_until(workload, None)? {
            Some(report) => Ok(report),
            None => Err(SimError::Internal("run paused without a pause target")),
        }
    }

    /// Cumulative workload events processed across all `run_until`
    /// segments — the checkpoint/stream cursor.
    pub fn sim_events(&self) -> u64 {
        self.sim_events
    }

    /// Whether the last [`Simulation::run_until`] stopped at its pause
    /// target (stream unfinished, state at an event boundary) rather than
    /// completing.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Runs the workload until the stream ends or `pause_after` cumulative
    /// events have been processed, whichever comes first. On completion returns `Ok(Some(report))`, exactly as
    /// [`Simulation::run`] would; at a pause returns `Ok(None)` with every
    /// piece of state intact at an event boundary, ready for
    /// [`Simulation::snapshot`] and for another `run_until` call on the
    /// same stream.
    ///
    /// `pause_after` is an *absolute* cumulative-event target (compare
    /// [`Simulation::sim_events`]), so a checkpoint-every-N loop passes
    /// `Some(k * N)` for k = 1, 2, …. Batched runs may overshoot the
    /// target by up to one burst; the pause still lands on an event
    /// boundary, and a run continued from it — in-process or via
    /// snapshot/restore — reproduces the uninterrupted run byte for byte.
    ///
    /// After [`Simulation::restore`], the first `run_until` call
    /// fast-forwards `workload` past the checkpoint's cursor via
    /// [`AccessStream::skip_events`]; pass a stream positioned at the
    /// start.
    pub fn run_until(
        &mut self,
        workload: &mut dyn AccessStream,
        pause_after: Option<u64>,
    ) -> SimResult<Option<RunReport>> {
        let host_start = std::time::Instant::now();
        self.pause_at = pause_after.unwrap_or(u64::MAX);
        self.paused = false;
        if let Some(skip) = self.resume_skip.take() {
            workload.skip_events(skip);
        }
        if !self.init_done {
            self.report_events_base = self.sim_events;
            let mut ops = Self::ops(
                &mut self.machine,
                &mut self.acct,
                &mut self.obs,
                CostSink::Daemon,
                0.0,
            );
            self.policy.init(&mut ops);
            self.init_done = true;
        }
        if self.sim_events >= self.pause_at {
            self.paused = true;
        } else if self.cfg.chunk > 1 {
            self.run_chunked(workload)?;
        } else {
            while let Some(ev) = workload.next_event() {
                let stop = self.step_event(ev)?;
                self.stream_pos = workload.position();
                if stop {
                    break;
                }
            }
        }
        if self.paused {
            // All finalization (final transfer pump, fault-record drain,
            // window close, partial telemetry cut) is deferred to the
            // segment that actually finishes the run, exactly as the
            // uninterrupted run defers it past this point.
            return Ok(None);
        }
        self.pump_transfers();
        if self.has_faults {
            self.emit_fault_records();
        }
        self.note_hist_underflows();
        self.close_window();
        if self.wcol.has_partial(self.sim_events) {
            self.cut_telemetry_window();
        }

        let mut fault_counters = self.machine.fault_counters();
        if let Some(inj) = self.drv_faults.as_ref() {
            fault_counters.merge(&inj.counters);
        }
        Ok(Some(RunReport {
            workload: workload.name().to_string(),
            policy: self.policy.descriptor().name.to_string(),
            wall_ns: self.wall_ns,
            app_access_ns: self.app_access_ns,
            app_extra_ns: self.acct.app_extra_ns,
            daemon_ns: self.acct.daemon_ns,
            accesses: self.accesses,
            stats: self.machine.stats.clone(),
            tlb: self.machine.tlb_stats(),
            llc: self.machine.llc_stats(),
            rss_peak_bytes: self.rss_peak.max(self.machine.rss_bytes()),
            rss_final_bytes: self.machine.rss_bytes(),
            windows: self.wcol.samples().to_vec(),
            sim_events: self.sim_events - self.report_events_base,
            hist_underflows: self.hist_underflows_seen,
            faults: fault_counters,
            lat: self
                .machine
                .flight()
                .map(|f| flight_rows_since(f, None))
                .unwrap_or_default(),
            lat_windows: self.lat_windows.clone(),
            host_elapsed_ns: host_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        }))
    }

    /// The configuration a snapshot is bound to: every knob of the driver
    /// and machine configs — including the fault *plan*, whose injector
    /// state is serialized without its schedule — so a snapshot only
    /// restores into a simulation built from the identical configs.
    fn snapshot_config(&self) -> (&DriverConfig, &MachineConfig) {
        (&self.cfg, self.machine.config())
    }

    /// Serializes the complete run state — machine, policy, observer, and
    /// every driver cursor — into a versioned checkpoint. Call it between
    /// [`Simulation::run_until`] segments (i.e. at an event boundary); a
    /// fresh simulation built from the identical configs that
    /// [`Simulation::restore`]s these bytes and finishes the run produces
    /// a byte-identical report, trace, and window series.
    pub fn snapshot(&mut self) -> Vec<u8> {
        self.last_snapshot_events = self.sim_events;
        if !self.pending.is_empty() {
            // A restored run re-pulls the buffered events from its
            // fast-forwarded stream; only their count travels.
            self.chunk_carry = self.pending.len();
        }
        let mut w = SnapWriter::with_header();
        w.fingerprint(&self.snapshot_config());
        w.section(|w| self.save_fields(w));
        w.section(|w| self.machine.save_fields(w));
        w.section(|w| self.policy.save_state(w));
        w.section(|w| self.obs.save_state(w));
        // Only unrepresentable state (a collection longer than u32) fails
        // serialization; no reachable configuration produces it.
        w.finish().expect("simulation state must be serializable")
    }

    /// Restores a checkpoint written by [`Simulation::snapshot`] into this
    /// simulation, which must be freshly built from the identical machine
    /// and driver configurations (enforced via fingerprint). The next
    /// [`Simulation::run_until`] call fast-forwards its stream past the
    /// checkpoint's cursor and continues the run. On error the simulation
    /// may be partially overwritten — rebuild it before reuse.
    pub fn restore(&mut self, bytes: &[u8]) -> SimResult<()> {
        let mut r = SnapReader::with_header(bytes)?;
        r.fingerprint(&self.snapshot_config())?;
        r.section_with(|s| self.load_fields(s))?;
        r.section_with(|s| self.machine.load_fields(s))?;
        r.section_with(|s| self.policy.load_state(s))?;
        r.section_with(|s| self.obs.load_state(s))?;
        r.expect_end()?;
        self.pending.clear();
        self.paused = false;
        self.resume_skip = Some(self.sim_events);
        self.last_snapshot_events = self.sim_events;
        self.stream_pos = None;
        Ok(())
    }

    fn check_snap(&mut self) -> Result<(), SnapError> {
        if self.chunk_carry > self.cfg.chunk {
            return Err(SnapError::Corrupt("pending buffer overflow"));
        }
        Ok(())
    }
}

// The driver's own run state: clocks, counters and cursors, the window
// collector, the driver-level fault injector, the shard tallies, and the
// flight-recorder window baseline.
memtis_obs::snap_struct!(in [P: TieringPolicy, O: Observer] Simulation<P, O> {
    wall_ns,
    app_access_ns,
    accesses,
    sim_events,
    next_tick,
    next_stretch,
    rss_peak,
    acct.app_extra_ns,
    acct.daemon_ns,
    hist_underflows_seen,
    hb_next,
    report_events_base,
    init_done,
    chunk_carry,
    window.start_wall,
    window.start_daemon_ns,
    wcol,
    @in drv_faults,
    @in shard,
    @in flight_prev,
    lat_windows,
} check Self::check_snap);

// Burst/spill tallies feed ShardBarrier trace events and must survive;
// the host-side timings restart at zero.
memtis_obs::snap_struct!(in ShardRun {
    bursts,
    spills,
    lane_accesses,
    crit_accesses,
} check |s: &mut ShardRun| {
    s.busy_ns = 0;
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{TierId, HUGE_PAGE_SIZE};
    use crate::config::TierSpec;
    use crate::policy::NoopPolicy;

    /// A scripted stream for tests.
    pub struct Script {
        events: std::vec::IntoIter<WorkloadEvent>,
    }

    impl Script {
        pub fn new(events: Vec<WorkloadEvent>) -> Self {
            Script {
                events: events.into_iter(),
            }
        }
    }

    impl AccessStream for Script {
        fn next_event(&mut self) -> Option<WorkloadEvent> {
            self.events.next()
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    fn cfg() -> MachineConfig {
        MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE)
    }

    #[test]
    fn alloc_access_free_cycle() {
        let mut wl = Script::new(vec![
            WorkloadEvent::Alloc {
                addr: VirtAddr(0),
                bytes: HUGE_PAGE_SIZE,
                thp: true,
            },
            WorkloadEvent::Access(Access::load(4096)),
            WorkloadEvent::Access(Access::store(8192)),
            WorkloadEvent::Free {
                addr: VirtAddr(0),
                bytes: HUGE_PAGE_SIZE,
            },
        ]);
        let mut sim = Simulation::new(cfg(), NoopPolicy, DriverConfig::default());
        let r = sim.run(&mut wl).unwrap();
        assert_eq!(r.accesses, 2);
        assert_eq!(r.rss_final_bytes, 0);
        assert_eq!(r.rss_peak_bytes, HUGE_PAGE_SIZE);
        assert!(r.wall_ns > 0.0);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.sim_events, 4);
        assert!(r.self_events_per_sec() > 0.0);
    }

    #[test]
    fn thp_disabled_maps_base_pages() {
        let mut wl = Script::new(vec![WorkloadEvent::Alloc {
            addr: VirtAddr(0),
            bytes: HUGE_PAGE_SIZE,
            thp: true,
        }]);
        let mut sim = Simulation::new(
            cfg(),
            NoopPolicy,
            DriverConfig {
                thp_enabled: false,
                ..Default::default()
            },
        );
        let r = sim.run(&mut wl).unwrap();
        assert_eq!(r.rss_final_bytes, HUGE_PAGE_SIZE);
        let _ = r;
    }

    #[test]
    fn demand_fault_maps_missing_page() {
        let mut wl = Script::new(vec![WorkloadEvent::Access(Access::load(123 * 4096))]);
        let mut sim = Simulation::new(cfg(), NoopPolicy, DriverConfig::default());
        let r = sim.run(&mut wl).unwrap();
        assert_eq!(r.accesses, 1);
        assert_eq!(r.stats.demand_faults, 1);
        assert_eq!(r.rss_final_bytes, 4096);
        assert!(r.app_extra_ns >= 300.0);
    }

    #[test]
    fn spillover_to_capacity_tier() {
        // 2 MiB fast tier, allocate 3 huge pages: 1 fast + 2 capacity.
        let mc = MachineConfig::dram_nvm(HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        let mut wl = Script::new(vec![WorkloadEvent::Alloc {
            addr: VirtAddr(0),
            bytes: 3 * HUGE_PAGE_SIZE,
            thp: true,
        }]);
        let mut sim = Simulation::new(mc, NoopPolicy, DriverConfig::default());
        let r = sim.run(&mut wl).unwrap();
        assert_eq!(r.rss_final_bytes, 3 * HUGE_PAGE_SIZE);
    }

    #[test]
    fn wall_time_divides_across_threads() {
        let mut one = Script::new(vec![
            WorkloadEvent::Alloc {
                addr: VirtAddr(0),
                bytes: HUGE_PAGE_SIZE,
                thp: true,
            },
            WorkloadEvent::Access(Access::load(0)),
        ]);
        let mut mc = cfg();
        mc.app_threads = 1;
        let r1 = Simulation::new(mc.clone(), NoopPolicy, DriverConfig::default())
            .run(&mut one)
            .unwrap();
        let mut twenty = Script::new(vec![
            WorkloadEvent::Alloc {
                addr: VirtAddr(0),
                bytes: HUGE_PAGE_SIZE,
                thp: true,
            },
            WorkloadEvent::Access(Access::load(0)),
        ]);
        mc.app_threads = 20;
        let r20 = Simulation::new(mc, NoopPolicy, DriverConfig::default())
            .run(&mut twenty)
            .unwrap();
        assert!(r20.wall_ns < r1.wall_ns);
        assert!((r1.wall_ns / r20.wall_ns - 20.0).abs() < 0.5);
    }

    /// Promotes page 0 once from the first tick and records every terminal
    /// transfer it is told about.
    struct PromoteOnce {
        asked: bool,
        ended: Vec<crate::engine::TransferEnd>,
    }

    impl PromoteOnce {
        fn new() -> Self {
            PromoteOnce {
                asked: false,
                ended: Vec::new(),
            }
        }
    }

    impl TieringPolicy for PromoteOnce {
        fn descriptor(&self) -> crate::policy::PolicyDescriptor {
            NoopPolicy.descriptor()
        }
        fn alloc_tier(
            &mut self,
            _ops: &mut PolicyOps<'_>,
            _vpage: VirtPage,
            _size: PageSize,
        ) -> TierId {
            TierId::CAPACITY
        }
        fn tick(&mut self, ops: &mut PolicyOps<'_>) {
            if !self.asked && ops.migrate(VirtPage(0), TierId::FAST).is_ok() {
                self.asked = true;
            }
        }
        fn on_transfer_end(&mut self, _ops: &mut PolicyOps<'_>, end: &crate::engine::TransferEnd) {
            self.ended.push(*end);
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.put(&self.asked);
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.asked = r.get()?;
            Ok(())
        }
    }

    fn promote_workload() -> Script {
        let mut events = vec![WorkloadEvent::Alloc {
            addr: VirtAddr(0),
            bytes: HUGE_PAGE_SIZE,
            thp: false,
        }];
        for i in 0..5_000u64 {
            events.push(WorkloadEvent::Access(Access::load((i % 512) * 4096)));
        }
        Script::new(events)
    }

    #[test]
    fn run_loop_pumps_async_transfers_to_completion() {
        let mut sim = Simulation::new(
            cfg(),
            PromoteOnce::new(),
            DriverConfig {
                migration_bw: Some(1.0),
                tick_interval_ns: 10_000.0,
                ..Default::default()
            },
        );
        let r = sim.run(&mut promote_workload()).unwrap();
        assert!(sim.policy().asked);
        // The transfer finished inside the run and was reported back.
        assert!(sim.machine().transfers_idle());
        assert_eq!(sim.policy().ended.len(), 1);
        assert!(sim.policy().ended[0].aborted.is_none());
        assert_eq!(sim.machine().locate(VirtPage(0)).unwrap().0, TierId::FAST);
        assert_eq!(r.stats.migration.promoted_4k, 1);
        assert_eq!(r.stats.migration.aborted, 0);
    }

    #[test]
    fn unlimited_bandwidth_run_matches_legacy_sync_path() {
        // `migration_bw: None` (the default) must reproduce the
        // pre-engine instantaneous semantics bit-exactly: this is the
        // regression oracle for the whole refactor.
        let run = |cfg_driver: DriverConfig| {
            let mut sim = Simulation::new(cfg(), PromoteOnce::new(), cfg_driver);
            sim.run(&mut promote_workload()).unwrap()
        };
        let legacy = run(DriverConfig {
            tick_interval_ns: 10_000.0,
            ..Default::default()
        });
        let explicit_off = run(DriverConfig {
            migration_bw: Some(0.0),
            tick_interval_ns: 10_000.0,
            ..Default::default()
        });
        assert_eq!(legacy.wall_ns, explicit_off.wall_ns);
        assert_eq!(legacy.app_access_ns, explicit_off.app_access_ns);
        assert_eq!(legacy.daemon_ns, explicit_off.daemon_ns);
        assert_eq!(
            format!("{:?}", legacy.stats),
            format!("{:?}", explicit_off.stats)
        );
        // Sync completion never calls the terminal hook.
        let mut sim = Simulation::new(
            cfg(),
            PromoteOnce::new(),
            DriverConfig {
                tick_interval_ns: 10_000.0,
                ..Default::default()
            },
        );
        sim.run(&mut promote_workload()).unwrap();
        assert!(sim.policy().asked);
        assert!(sim.policy().ended.is_empty());
    }

    /// Debug-formats a report with the host timing zeroed — the only field
    /// allowed to differ between two byte-identical runs.
    fn report_sig(mut r: RunReport) -> String {
        r.host_elapsed_ns = 0;
        format!("{r:?}")
    }

    /// A deterministic event mix: same-page access runs (coalesced path),
    /// loads/stores, demand faults past the mapped range, and occasional
    /// frees.
    fn mixed_events(n: usize) -> Vec<WorkloadEvent> {
        let mut events = vec![WorkloadEvent::Alloc {
            addr: VirtAddr(0),
            bytes: 2 * HUGE_PAGE_SIZE,
            thp: true,
        }];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut i = 0u64;
        while events.len() < n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            let page = r % 1200; // ~15% past the 1024 mapped pages
            let addr = page * 4096 + (r % 500) * 8;
            let ev = if r.is_multiple_of(7) {
                WorkloadEvent::Access(Access::store(addr))
            } else {
                WorkloadEvent::Access(Access::load(addr))
            };
            for _ in 0..=(r % 3) {
                events.push(ev);
            }
            i += 1;
            if i.is_multiple_of(289) {
                events.push(WorkloadEvent::Free {
                    addr: VirtAddr(1040 * 4096),
                    bytes: 4 * 4096,
                });
            }
        }
        events
    }

    /// [`mixed_events`] cut right after its `n`th access.
    fn mixed_accesses(n: usize) -> Vec<WorkloadEvent> {
        let mut events = mixed_events(n + n / 8);
        let mut seen = 0;
        let last = events
            .iter()
            .position(|ev| {
                seen += usize::from(matches!(ev, WorkloadEvent::Access(_)));
                seen == n
            })
            .expect("enough accesses");
        events.truncate(last + 1);
        events
    }

    /// Policy that arms NUMA hints from ticks and charges
    /// app-side fault work — exercising the batched loop's hint tail and
    /// its fault-work clock arithmetic.
    struct ArmHints {
        next: u64,
    }

    impl TieringPolicy for ArmHints {
        fn descriptor(&self) -> crate::policy::PolicyDescriptor {
            NoopPolicy.descriptor()
        }
        fn tick(&mut self, ops: &mut PolicyOps<'_>) {
            for _ in 0..4 {
                ops.set_hint(VirtPage(self.next % 1024));
                self.next = self.next.wrapping_add(97);
            }
        }
        fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage) {
            ops.charge(75.0);
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.put(&self.next);
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.next = r.get()?;
            Ok(())
        }
    }

    #[test]
    fn chunked_loop_matches_per_event_loop_byte_for_byte() {
        let run = |chunk: usize| {
            let mut wl = Script::new(mixed_accesses(5_500));
            let mut sim = Simulation::new(
                cfg(),
                ArmHints { next: 5 },
                DriverConfig {
                    tick_interval_ns: 5_000.0,
                    timeline_interval_ns: 20_000.0,
                    window_events: 37,
                    chunk,
                    ..Default::default()
                },
            );
            report_sig(sim.run(&mut wl).unwrap())
        };
        let legacy = run(1);
        for chunk in [2, 7, 64, DEFAULT_CHUNK] {
            assert_eq!(legacy, run(chunk), "chunk {chunk} diverged from legacy");
        }
    }

    #[test]
    fn deferred_loop_matches_for_policy_migrating_from_tick() {
        // PromoteOnce migrates from `tick`, which runs between bursts: the
        // deferred loop must reproduce the per-event loop with and without
        // the async migration engine.
        for bw in [None, Some(1.0)] {
            let run = |chunk: usize| {
                let mut sim = Simulation::new(
                    cfg(),
                    PromoteOnce::new(),
                    DriverConfig {
                        tick_interval_ns: 10_000.0,
                        migration_bw: bw,
                        chunk,
                        ..Default::default()
                    },
                );
                report_sig(sim.run(&mut promote_workload()).unwrap())
            };
            assert_eq!(run(1), run(DEFAULT_CHUNK), "bw {bw:?} diverged");
        }
    }

    #[test]
    fn sharded_run_is_shard_count_invariant() {
        // `--shards N` must reproduce `--shards 1` byte-for-byte at the same
        // chunk: the lanes are the unit of determinism, shards are only a
        // grouping over them.
        let run = |chunk: usize, shards: usize| {
            let mut wl = Script::new(mixed_accesses(5_500));
            let mut sim = Simulation::new(
                cfg(),
                ArmHints { next: 5 },
                DriverConfig {
                    tick_interval_ns: 5_000.0,
                    timeline_interval_ns: 20_000.0,
                    window_events: 37,
                    chunk,
                    shards: Some(shards),
                    ..Default::default()
                },
            );
            let sig = report_sig(sim.run(&mut wl).unwrap());
            let metrics = sim.shard_metrics().expect("sharded run has metrics");
            assert!(metrics.bursts > 0, "sharded path never engaged");
            assert!(metrics.spills > 0, "serial spill replay never engaged");
            sig
        };
        for chunk in [7, 64, DEFAULT_CHUNK] {
            let serial = run(chunk, 1);
            for shards in [2, 3, 8] {
                assert_eq!(
                    serial,
                    run(chunk, shards),
                    "chunk {chunk} shards {shards} diverged from shards 1"
                );
            }
        }
    }

    #[test]
    fn sharded_run_supports_more_than_eight_tiers() {
        // Eight (zero-usable-capacity) DRAM tiers ahead of NVM: every page
        // lands on tier 8, past any fixed-size per-lane tier tally.
        let mut tiers = vec![TierSpec::dram(64 * 1024); 8];
        tiers.push(TierSpec::nvm(8 * HUGE_PAGE_SIZE));
        let run = |shards: usize| {
            let mc = MachineConfig {
                tiers: tiers.clone(),
                ..cfg()
            };
            let mut sim = Simulation::new(
                mc,
                NoopPolicy,
                DriverConfig {
                    shards: Some(shards),
                    ..Default::default()
                },
            );
            let sig = report_sig(sim.run(&mut Script::new(mixed_events(20_000))).unwrap());
            let metrics = sim.shard_metrics().expect("sharded run has metrics");
            assert!(metrics.lane_accesses > 0, "lane phase never engaged");
            sig
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn sharded_run_matches_unsharded_when_serial_semantics_apply() {
        // With chunk 1 the shards knob is ignored outright (per-event loop).
        let run = |shards: Option<usize>| {
            let mut wl = Script::new(mixed_events(3_000));
            let mut sim = Simulation::new(
                cfg(),
                NoopPolicy,
                DriverConfig {
                    chunk: 1,
                    shards,
                    ..Default::default()
                },
            );
            report_sig(sim.run(&mut wl).unwrap())
        };
        assert_eq!(run(None), run(Some(4)));
    }

    #[test]
    fn default_fill_matches_next_event() {
        let evs = mixed_events(100);
        let mut bulk = Script::new(evs.clone());
        let mut single = Script::new(evs);
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 7];
        loop {
            let n = bulk.fill(&mut buf);
            if n == 0 {
                assert!(single.next_event().is_none());
                break;
            }
            for ev in &buf[..n] {
                let expect = single.next_event().unwrap();
                assert_eq!(format!("{ev:?}"), format!("{expect:?}"));
            }
        }
    }

    #[test]
    fn run_until_pauses_and_resumes_in_process_byte_identically() {
        for chunk in [1, 7, DEFAULT_CHUNK] {
            let mk = || {
                Simulation::new(
                    cfg(),
                    ArmHints { next: 5 },
                    DriverConfig {
                        tick_interval_ns: 5_000.0,
                        timeline_interval_ns: 20_000.0,
                        window_events: 37,
                        chunk,
                        ..Default::default()
                    },
                )
            };
            let full = report_sig(mk().run(&mut Script::new(mixed_accesses(5_500))).unwrap());

            let mut wl = Script::new(mixed_accesses(5_500));
            let mut sim = mk();
            let mut pauses = [700u64, 1_900, 3_100, 4_400].into_iter();
            let report = loop {
                let target = pauses.next();
                match sim.run_until(&mut wl, target).unwrap() {
                    Some(r) => break r,
                    None => {
                        assert!(sim.is_paused());
                        assert!(sim.sim_events() >= target.unwrap());
                    }
                }
            };
            assert_eq!(full, report_sig(report), "chunk {chunk} diverged");
        }
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // Sharded + batched: the hardest boundary case, since burst
        // boundaries (and the ShardBarrier tallies they feed) must line up
        // across the interruption.
        let dcfg = || DriverConfig {
            tick_interval_ns: 5_000.0,
            timeline_interval_ns: 20_000.0,
            window_events: 37,
            chunk: DEFAULT_CHUNK,
            shards: Some(3),
            ..Default::default()
        };
        let full = report_sig(
            Simulation::new(cfg(), ArmHints { next: 5 }, dcfg())
                .run(&mut Script::new(mixed_accesses(5_500)))
                .unwrap(),
        );
        let mut wl = Script::new(mixed_accesses(5_500));
        let mut sim = Simulation::new(cfg(), ArmHints { next: 5 }, dcfg());
        assert!(sim.run_until(&mut wl, Some(2_000)).unwrap().is_none());
        let bytes = sim.snapshot();
        drop(sim);
        drop(wl);
        let mut resumed = Simulation::new(cfg(), ArmHints { next: 0 }, dcfg());
        resumed.restore(&bytes).unwrap();
        // A fresh stream from the start: `run_until` fast-forwards it.
        let mut fresh = Script::new(mixed_accesses(5_500));
        let r = resumed
            .run_until(&mut fresh, None)
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(full, report_sig(r));
    }

    #[test]
    fn snapshot_mid_transfer_resumes_byte_identically() {
        // A 0.01 B/ns link keeps the promotion copy in flight for most of
        // the run, so the checkpoint must carry the engine's transfer.
        let dcfg = || DriverConfig {
            migration_bw: Some(0.01),
            tick_interval_ns: 10_000.0,
            ..Default::default()
        };
        let full = {
            let mut sim = Simulation::new(cfg(), PromoteOnce::new(), dcfg());
            report_sig(sim.run(&mut promote_workload()).unwrap())
        };
        let mut sim = Simulation::new(cfg(), PromoteOnce::new(), dcfg());
        let mut wl = promote_workload();
        assert!(sim.run_until(&mut wl, Some(2_500)).unwrap().is_none());
        assert!(sim.policy().asked);
        let bytes = sim.snapshot();
        let mut resumed = Simulation::new(cfg(), PromoteOnce::new(), dcfg());
        resumed.restore(&bytes).unwrap();
        let r = resumed
            .run_until(&mut promote_workload(), None)
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(full, report_sig(r));
        assert!(resumed.policy().asked);
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let mut wl = Script::new(mixed_events(500));
        let mut sim = Simulation::new(cfg(), NoopPolicy, DriverConfig::default());
        assert!(sim.run_until(&mut wl, Some(100)).unwrap().is_none());
        let bytes = sim.snapshot();
        let mut other = Simulation::new(
            cfg(),
            NoopPolicy,
            DriverConfig {
                tick_interval_ns: 123.0,
                ..Default::default()
            },
        );
        assert!(matches!(other.restore(&bytes), Err(SimError::Snapshot(_))));
        let mut same = Simulation::new(cfg(), NoopPolicy, DriverConfig::default());
        same.restore(&bytes).unwrap();
    }

    #[test]
    fn window_series_accumulate() {
        let mut events = vec![WorkloadEvent::Alloc {
            addr: VirtAddr(0),
            bytes: HUGE_PAGE_SIZE,
            thp: true,
        }];
        for i in 0..20_000u64 {
            events.push(WorkloadEvent::Access(Access::load((i % 512) * 4096)));
        }
        let mut wl = Script::new(events);
        let mut sim = Simulation::new(
            cfg(),
            NoopPolicy,
            DriverConfig {
                timeline_interval_ns: 10_000.0,
                window_events: 5_000,
                ..Default::default()
            },
        );
        let r = sim.run(&mut wl).unwrap();
        assert!(r.windows.len() >= 2, "windows: {}", r.windows.len());
        assert!(r.throughput() > 0.0);
        // Windows are monotonic in time and accesses.
        for w in r.windows.windows(2) {
            assert!(w[1].wall_ns >= w[0].wall_ns);
            assert!(w[1].accesses >= w[0].accesses);
        }
    }
}
