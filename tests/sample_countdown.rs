//! PEBS countdown in the batch kernel: the batched driver hands MEMTIS only
//! the records its sampling program fires (plus each burst's per-class
//! tally), and that must reproduce per-event delivery (`chunk = 1`) byte
//! for byte while the period controller reprograms the sampler mid-run.
//!
//! The cells are 654.roms (huge pages, 40% stores) and Silo (splits, 20%
//! stores) at test scale on a 1:8 DRAM:NVM machine. MEMTIS runs with a
//! short control interval and a CPU limit near its sampling cost, so the
//! controller raises and lowers the periods many times: a kernel that
//! filtered records past a reprogramming point, or lost count of the
//! events between two samples, would move a sample and diverge. Each cell
//! also runs sharded at 1 and 2 shards (identical to each other), and
//! resumes from a mid-run checkpoint.
//!
//! A faulted per-event run checks the other end of delivery: every access
//! reaches `on_access` except the samples the injector dropped, plus the
//! ones it duplicated, so no sample goes missing uncounted.

use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
use memtis_repro::obs::{export_jsonl, TracingObserver};
use memtis_repro::sim::prelude::*;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};

const SEED: u64 = 20231023;
const ACCESSES: u64 = 300_000;

/// Counts the records delivered through `on_access_batch` and the calls
/// to `on_access`.
struct Counted {
    inner: MemtisPolicy,
    records: u64,
    calls: u64,
}

impl TieringPolicy for Counted {
    fn descriptor(&self) -> PolicyDescriptor {
        self.inner.descriptor()
    }
    fn init(&mut self, ops: &mut PolicyOps<'_>) {
        self.inner.init(ops)
    }
    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) -> TierId {
        self.inner.alloc_tier(ops, vpage, size)
    }
    fn on_alloc(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize, tier: TierId) {
        self.inner.on_alloc(ops, vpage, size, tier)
    }
    fn on_free(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage, size: PageSize) {
        self.inner.on_free(ops, vpage, size)
    }
    fn on_access(&mut self, ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        self.calls += 1;
        self.inner.on_access(ops, access, outcome)
    }
    fn batch_record_filter(&self) -> RecordFilter {
        self.inner.batch_record_filter()
    }
    fn on_access_batch(&mut self, ops: &mut PolicyOps<'_>, batch: &[AccessRecord]) {
        self.records += batch.len() as u64;
        self.inner.on_access_batch(ops, batch)
    }
    fn on_hint_fault(&mut self, ops: &mut PolicyOps<'_>, vpage: VirtPage) {
        self.inner.on_hint_fault(ops, vpage)
    }
    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.inner.tick(ops)
    }
    fn on_transfer_end(&mut self, ops: &mut PolicyOps<'_>, end: &TransferEnd) {
        self.inner.on_transfer_end(ops, end)
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
    fn save_state(&self, w: &mut memtis_repro::obs::SnapWriter) {
        self.inner.save_state(w)
    }
    fn load_state(
        &mut self,
        r: &mut memtis_repro::obs::SnapReader<'_>,
    ) -> Result<(), memtis_repro::obs::SnapError> {
        self.inner.load_state(r)
    }
}

fn policy() -> Counted {
    Counted {
        inner: MemtisPolicy::new(MemtisConfig {
            control_interval: 100,
            cpu_limit: 0.05,
            ..MemtisConfig::sim_scaled()
        }),
        records: 0,
        calls: 0,
    }
}

fn stream(bench: Benchmark, accesses: u64) -> SpecStream {
    SpecStream::new(bench.spec(Scale::TEST, accesses), SEED)
}

fn machine(bench: Benchmark, accesses: u64) -> MachineConfig {
    let rss = bench.spec(Scale::TEST, accesses).total_bytes();
    MachineConfig::dram_nvm((rss / 9).max(2 * HUGE_PAGE_SIZE), rss * 2)
}

fn driver(chunk: usize, shards: Option<usize>) -> DriverConfig {
    DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 150_000.0,
        window_events: 25_000,
        chunk,
        shards,
        ..Default::default()
    }
}

type Sim = Simulation<Counted, TracingObserver>;

fn sim(bench: Benchmark, chunk: usize, shards: Option<usize>) -> Sim {
    Simulation::with_observer(
        machine(bench, ACCESSES),
        policy(),
        driver(chunk, shards),
        TracingObserver::with_ring_capacity(1 << 20),
    )
}

struct Run {
    report: String,
    trace: String,
    samples: u64,
    records: u64,
    periods: Vec<u64>,
}

fn finish(sim: &Sim, mut report: RunReport) -> Run {
    report.host_elapsed_ns = 0;
    let stats = &sim.policy().inner.stats;
    Run {
        trace: export_jsonl(sim.observer(), &report.windows),
        samples: stats.samples,
        records: sim.policy().records,
        periods: stats.period_series.iter().map(|&(_, p)| p).collect(),
        report: format!("{report:?}"),
    }
}

fn run(bench: Benchmark, chunk: usize, shards: Option<usize>) -> Run {
    let mut s = sim(bench, chunk, shards);
    let report = s
        .run(&mut stream(bench, ACCESSES))
        .expect("simulation completes");
    finish(&s, report)
}

/// Pauses at half the budget, checkpoints, and finishes in a fresh
/// simulation restored from the checkpoint.
fn run_resumed(bench: Benchmark, chunk: usize) -> Run {
    let mut s = sim(bench, chunk, None);
    let paused = s
        .run_until(&mut stream(bench, ACCESSES), Some(ACCESSES / 2))
        .expect("run to the pause");
    assert!(paused.is_none(), "the pause lands before the end");
    let bytes = s.snapshot();
    drop(s);
    let mut s = sim(bench, chunk, None);
    s.restore(&bytes).expect("restore succeeds");
    let report = s
        .run_until(&mut stream(bench, ACCESSES), None)
        .expect("resumed run completes")
        .expect("resumed run reaches the end");
    finish(&s, report)
}

fn assert_same(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.report, b.report, "{what}: reports diverge");
    assert!(a.trace == b.trace, "{what}: JSONL traces diverge");
}

fn check(bench: Benchmark) {
    let oracle = run(bench, 1, None);
    // The controller must move the periods both ways, many times.
    let rises = oracle.periods.windows(2).filter(|w| w[1] > w[0]).count();
    let falls = oracle.periods.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(
        rises >= 5 && falls >= 5,
        "periods rose {rises} and fell {falls} times: {:?}",
        oracle.periods
    );
    // Per event, nothing goes through the batch path.
    assert_eq!(oracle.records, 0);

    let batched = run(bench, DEFAULT_CHUNK, None);
    assert_same(&oracle, &batched, "chunk 1 vs DEFAULT_CHUNK");
    // Every delivered record is a sample, and every sample was delivered
    // as a record.
    assert_eq!(batched.records, batched.samples);

    let resumed = run_resumed(bench, DEFAULT_CHUNK);
    assert_same(&batched, &resumed, "straight vs resumed");

    // Sharded runs deviate from the serial loop by design (records carry
    // the burst-start clock) but not across shard counts.
    let one = run(bench, DEFAULT_CHUNK, Some(1));
    let two = run(bench, DEFAULT_CHUNK, Some(2));
    assert_same(&one, &two, "1 vs 2 shards");
    assert_eq!(one.records, one.samples);
}

#[test]
fn roms_countdown_matches_per_event_sampling() {
    check(Benchmark::Roms);
}

#[test]
fn silo_countdown_matches_per_event_sampling() {
    check(Benchmark::Silo);
}

/// A lossy, replaying sample path loses nothing uncounted: per event, with
/// and without a migration bandwidth cap, `on_access` runs once per access
/// less each injected drop plus each injected duplicate.
#[test]
fn every_lost_sample_is_counted() {
    const N: u64 = 200_000;
    for bench in [Benchmark::Silo, Benchmark::Btree] {
        for migration_bw in [None, Some(8.0)] {
            let cfg = DriverConfig {
                faults: Some(FaultPlan {
                    seed: 7,
                    sample_drop: 0.05,
                    sample_dup: 0.05,
                    ..Default::default()
                }),
                migration_bw,
                ..driver(1, None)
            };
            let mut s = Simulation::new(machine(bench, N), policy(), cfg);
            let report = s.run(&mut stream(bench, N)).expect("simulation completes");
            let f = &report.faults;
            let cell = format!("{bench:?} migration_bw {migration_bw:?}");
            assert_eq!(report.accesses, N, "{cell}");
            assert!(f.sample_drops > 0 && f.sample_dups > 0, "{cell}: {f:?}");
            assert_eq!(
                s.policy().calls,
                report.accesses - f.sample_drops + f.sample_dups,
                "{cell}: {f:?}"
            );
        }
    }
}
