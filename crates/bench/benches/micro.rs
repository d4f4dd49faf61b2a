#![allow(missing_docs)] // The criterion_group! macro generates undocumented items.

//! Criterion micro-benchmarks for the hot paths of the stack: the per-access
//! machine pipeline, PEBS sampling, MEMTIS's batched sample drain and its
//! cooling pass, histogram updates, Algorithm 1, page walks, huge-page
//! splits, and workload stream generation. These bound the simulator's
//! throughput and double as regression guards.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memtis_core::{adapt, AccessHistogram, MemtisConfig, MemtisPolicy};
use memtis_sim::prelude::*;
use memtis_tracking::pebs::PebsSampler;
use memtis_workloads::dist::ZipfTable;
use memtis_workloads::{Benchmark, Scale, SpecStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn machine_access(c: &mut Criterion) {
    let mut m = Machine::new(MachineConfig::dram_nvm(64 << 21, 512 << 21));
    for i in 0..64u64 {
        m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::FAST)
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("machine_access", |b| {
        b.iter(|| {
            let addr = rng.gen_range(0..64 * (1u64 << 21));
            black_box(m.access(Access::load(addr)).unwrap())
        })
    });
}

fn pebs_observe(c: &mut Criterion) {
    let mut s = PebsSampler::new(200, 100_000);
    let out = AccessOutcome {
        latency_ns: 100.0,
        vpage: VirtPage(0),
        page_size: PageSize::Huge,
        tier: TierId::FAST,
        llc_miss: true,
        tlb_miss: false,
        hint_fault: false,
        demand_fault: false,
    };
    c.bench_function("pebs_observe", |b| {
        b.iter(|| black_box(s.observe(&Access::load(4096), &out)))
    });
}

/// Maps a workload region the way the driver does (huge pages where
/// aligned and THP-eligible, first-touch fast tier then capacity) and
/// announces each mapping to `policy`.
fn map_region(
    m: &mut Machine,
    policy: &mut MemtisPolicy,
    acct: &mut CostAccounting,
    addr: VirtAddr,
    bytes: u64,
    thp: bool,
) {
    const ORDER: [TierId; 2] = [TierId::FAST, TierId::CAPACITY];
    let (mut cur, end) = (addr.0, addr.0 + bytes);
    while cur < end {
        let vpage = VirtAddr(cur).base_page();
        let size = if thp && cur.is_multiple_of(HUGE_PAGE_SIZE) && end - cur >= HUGE_PAGE_SIZE {
            PageSize::Huge
        } else {
            PageSize::Base
        };
        let (tier, _) = m.alloc_and_map_fallback(vpage, size, &ORDER).unwrap();
        let mut ops = PolicyOps::new(m, acct, CostSink::Daemon, 0.0);
        policy.on_alloc(&mut ops, vpage, size, tier);
        cur += size.bytes();
    }
}

/// MEMTIS's batched sample drain on 654.roms: one 1024-access burst
/// through the batch kernel under the policy's record program, then
/// `on_access_batch` on what the kernel recorded. The accesses cycle
/// through a pre-generated test-scale roms stream on a 1:8 machine, so
/// the policy's state (and its periodic cooling and adaptation) evolves
/// as in a run.
fn memtis_drain(c: &mut Criterion) {
    const BURST: usize = 1024;
    let spec = Benchmark::Roms.spec(Scale::TEST, 2_000_000);
    let rss = spec.total_bytes();
    let mut m = Machine::new(MachineConfig::dram_nvm(
        (rss / 9).max(2 * HUGE_PAGE_SIZE),
        rss * 2,
    ));
    let mut policy = MemtisPolicy::new(MemtisConfig::sim_scaled());
    let mut acct = CostAccounting::default();
    let mut accesses = Vec::new();
    let mut stream = SpecStream::new(spec, 5);
    while let Some(ev) = stream.next_event() {
        match ev {
            WorkloadEvent::Access(_) => accesses.push(ev),
            WorkloadEvent::Alloc { addr, bytes, thp } => {
                map_region(&mut m, &mut policy, &mut acct, addr, bytes, thp)
            }
            WorkloadEvent::Free { .. } => {}
        }
    }
    let threads = m.config().app_threads.max(1) as f64;
    let mut clock = BatchClock {
        wall_ns: 0.0,
        app_access_ns: 0.0,
        threads,
        stop_wall_ns: f64::INFINITY,
    };
    let mut records: Vec<AccessRecord> = Vec::with_capacity(BURST);
    let mut at = 0usize;
    c.bench_function("memtis_drain_roms", |b| {
        b.iter(|| {
            if at + BURST > accesses.len() {
                at = 0;
            }
            let burst = &accesses[at..at + BURST];
            at += BURST;
            let mut i = 0;
            while i < burst.len() {
                records.clear();
                let filter = policy.batch_record_filter();
                let (n, stop) = m.access_batch(&burst[i..], &mut records, &mut clock, filter);
                assert!(matches!(stop, BatchStop::Clean), "roms is fully mapped");
                i += n;
                let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, clock.wall_ns);
                policy.on_access_batch(&mut ops, &records);
            }
            black_box(policy.stats.samples)
        })
    });
}

/// One MEMTIS cooling pass over a test-scale 654.roms page table in
/// mid-run state: the policy runs per event up to one sample before its
/// first cooling and is checkpointed there; each iteration restores the
/// checkpoint (untimed) and feeds the following accesses until the sample
/// that cools.
fn memtis_cooling(c: &mut Criterion) {
    const COOL_AT: u64 = 100_000;
    let cfg = MemtisConfig {
        cooling_interval: COOL_AT,
        ..MemtisConfig::sim_scaled()
    };
    let spec = Benchmark::Roms.spec(Scale::TEST, 4_000_000);
    let rss = spec.total_bytes();
    let mut m = Machine::new(MachineConfig::dram_nvm(
        (rss / 9).max(2 * HUGE_PAGE_SIZE),
        rss * 2,
    ));
    let mut policy = MemtisPolicy::new(cfg.clone());
    let mut acct = CostAccounting::default();
    let mut stream = SpecStream::new(spec, 5);
    let mut next = Vec::new();
    let mut checkpoint = None;
    while let Some(ev) = stream.next_event() {
        match ev {
            WorkloadEvent::Access(a) => {
                let o = m.access(a).unwrap();
                if checkpoint.is_none() {
                    let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
                    policy.on_access(&mut ops, &a, &o);
                    if policy.stats.samples == COOL_AT - 1 {
                        let mut w = memtis_sim::obs::SnapWriter::new();
                        policy.save_state(&mut w);
                        checkpoint = Some(w.finish().unwrap());
                    }
                } else if next.len() < 10_000 {
                    next.push((a, o));
                } else {
                    break;
                }
            }
            WorkloadEvent::Alloc { addr, bytes, thp } => {
                map_region(&mut m, &mut policy, &mut acct, addr, bytes, thp)
            }
            WorkloadEvent::Free { .. } => {}
        }
    }
    let checkpoint = checkpoint.expect("the stream reaches the cooling point");
    c.bench_function("memtis_cooling", |b| {
        b.iter_with_setup(
            || {
                let mut p = MemtisPolicy::new(cfg.clone());
                let mut r = memtis_sim::obs::SnapReader::new(&checkpoint);
                p.load_state(&mut r).unwrap();
                p
            },
            |mut p| {
                let mut ops = PolicyOps::new(&mut m, &mut acct, CostSink::Daemon, 0.0);
                for (a, o) in &next {
                    p.on_access(&mut ops, a, o);
                    if p.stats.coolings > 0 {
                        break;
                    }
                }
                assert_eq!(p.stats.coolings, 1);
                p
            },
        )
    });
}

fn histogram_ops(c: &mut Criterion) {
    let mut h = AccessHistogram::new();
    for b in 0..16 {
        h.add(b, 1000);
    }
    let mut i = 0usize;
    c.bench_function("histogram_move", |b| {
        b.iter(|| {
            i = (i + 1) % 15;
            h.move_pages(i, i + 1, 1);
            h.move_pages(i + 1, i, 1);
            black_box(&h);
        })
    });
    c.bench_function("histogram_cool", |b| {
        b.iter(|| {
            let mut hh = h.clone();
            hh.cool();
            black_box(hh.total_pages())
        })
    });
}

fn algorithm1(c: &mut Criterion) {
    let mut h = AccessHistogram::new();
    for b in 0..16 {
        h.add(b, (b as u64 + 1) * 977);
    }
    c.bench_function("algorithm1_adapt", |b| {
        b.iter(|| black_box(adapt(&h, 64 << 21, 0.9, true)))
    });
}

fn page_walks(c: &mut Criterion) {
    let mut pt = memtis_sim::page_table::PageTable::new();
    for i in 0..10_000u64 {
        pt.map_base(VirtPage(i), Frame(i)).unwrap();
    }
    let mut i = 0u64;
    c.bench_function("page_table_translate", |b| {
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(pt.translate(VirtPage(i)))
        })
    });
}

fn huge_split(c: &mut Criterion) {
    c.bench_function("machine_split_huge", |b| {
        b.iter_with_setup(
            || {
                let mut m = Machine::new(MachineConfig::dram_nvm(16 << 21, 64 << 21));
                m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
                    .unwrap();
                for i in 0..8u64 {
                    m.access(Access::store(i * 4096)).unwrap();
                }
                m
            },
            |mut m| black_box(m.split_huge(VirtPage(0), true).unwrap()),
        )
    });
}

fn zipf_sampling(c: &mut Criterion) {
    let z = ZipfTable::new(200_000, 0.99);
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("zipf_sample", |b| b.iter(|| black_box(z.sample(&mut rng))));
}

fn spec_fill(c: &mut Criterion) {
    // Pipeline throughput: draining a whole test-scale Silo stream (200,002
    // events) through `fill`, as the driver reads it. Silo generates
    // scattered records under Zipf, the generator's most expensive
    // per-access path (placement stride plus CDF search). On a host with a
    // spare core a producer thread generates ahead and `fill` mostly
    // copies, so this times the slower of generation and hand-over, thread
    // start and join included; `zipf_sample` times the generator's own
    // sampling. Each stream is built (its Zipf tables too) untimed.
    let spec = Benchmark::Silo.spec(Scale::TEST, 200_000);
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); DEFAULT_CHUNK];
    c.bench_function("spec_fill_silo", |b| {
        b.iter_with_setup(
            || SpecStream::new(spec.clone(), 3),
            |mut stream| {
                let mut events = 0;
                loop {
                    match stream.fill(&mut buf) {
                        0 => break events,
                        n => events += n,
                    }
                }
            },
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = machine_access, pebs_observe, memtis_drain, memtis_cooling, histogram_ops, algorithm1, page_walks, huge_split, zipf_sampling, spec_fill
}
criterion_main!(micro);
