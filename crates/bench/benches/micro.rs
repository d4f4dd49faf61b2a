#![allow(missing_docs)] // The criterion_group! macro generates undocumented items.

//! Criterion micro-benchmarks for the hot paths of the stack: the per-access
//! machine pipeline, PEBS sampling, histogram updates, Algorithm 1, page
//! walks, huge-page splits, and workload stream generation. These bound the
//! simulator's throughput and double as regression guards.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memtis_core::{adapt, AccessHistogram};
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
    // Silo generates scattered records under Zipf: the generator's most
    // expensive per-access path (placement stride plus CDF search). The
    // stream restarts when it runs dry, so every iteration fills a full
    // buffer of accesses.
    let spec = Benchmark::Silo.spec(Scale::TEST, 4_000_000);
    let mut stream = SpecStream::new(spec.clone(), 3);
    let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 1024];
    c.bench_function("spec_fill_silo", |b| {
        b.iter(|| {
            if stream.fill(&mut buf) < buf.len() {
                stream = SpecStream::new(spec.clone(), 3);
            }
            black_box(&buf);
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = machine_access, pebs_observe, histogram_ops, algorithm1, page_walks, huge_split, zipf_sampling, spec_fill
}
criterion_main!(micro);
