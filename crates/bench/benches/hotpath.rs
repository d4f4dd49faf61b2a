#![allow(missing_docs)] // The criterion_group! macro generates undocumented items.

//! Hot-path micro benchmark: single-walk `Machine::access` versus the
//! retained triple-walk reference path (`Machine::access_reference`).
//!
//! Address streams are **precomputed** so the timed loop contains only the
//! access path itself (no RNG). Four patterns stress different mixes of
//! walk cost versus shared model cost (TLB/LLC/stats, identical in both
//! paths):
//!
//! - `hot`: 64 addresses, TLB- and LLC-resident — isolates the translation
//!   and reference-bit work that the single-walk fast path targets.
//! - `random`: uniform over 64 huge regions — LLC-missing, end-to-end view.
//! - `local`: sequential within a region, hopping every 512 accesses.
//! - `base`: 4 KiB mappings (4-level walks), TLB-capacity working set.
//!
//! A direct head-to-head prints speedups and writes `BENCH_hotpath.json`
//! so the trajectory is tracked across PRs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memtis_bench::emit_bench_json;
use memtis_sim::prelude::*;
use std::time::{Duration, Instant};

const HUGE_PAGES: u64 = 64;

/// Base-page working set: 6 regions x 128 pages = 768 pages. TLB-resident
/// (half the base-TLB capacity, and pages land 6-deep in each 12-way set)
/// so the measured delta is walk cost, not TLB-miss cost.
const BASE_REGIONS: u64 = 6;
const BASE_PAGES_PER_REGION: u64 = 128;

/// Precomputed address-stream length (power of two; the timed loop cycles).
const STREAM_LEN: usize = 1 << 20;

fn machine_with_huge_pages() -> Machine {
    let mut m = Machine::new(MachineConfig::dram_nvm(
        HUGE_PAGES * HUGE_PAGE_SIZE,
        8 * HUGE_PAGE_SIZE,
    ));
    for i in 0..HUGE_PAGES {
        m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::FAST)
            .unwrap();
    }
    m
}

fn machine_with_base_pages() -> Machine {
    let mut m = Machine::new(MachineConfig::dram_nvm(
        HUGE_PAGES * HUGE_PAGE_SIZE,
        8 * HUGE_PAGE_SIZE,
    ));
    for r in 0..BASE_REGIONS {
        for j in 0..BASE_PAGES_PER_REGION {
            m.alloc_and_map(VirtPage(r * 512 + j), PageSize::Base, TierId::FAST)
                .unwrap();
        }
    }
    m
}

/// Deterministic LCG driving the precomputed streams.
#[inline]
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

#[derive(Clone, Copy)]
enum Pattern {
    /// 64 addresses (one per huge region, distinct LLC sets): TLB and LLC
    /// hit after warmup, so the loop is dominated by translation +
    /// reference-bit updates — the work the fast path collapses.
    Hot,
    /// Uniform random over the whole 64-region huge mapping.
    Random,
    /// Sequential cachelines, hopping regions every 512 accesses.
    Local,
    /// Random within the base-page (4-level walk) working set.
    Base,
}

const PATTERNS: [(&str, Pattern); 4] = [
    ("hot", Pattern::Hot),
    ("random", Pattern::Random),
    ("local", Pattern::Local),
    ("base", Pattern::Base),
];

impl Pattern {
    fn machine(self) -> Machine {
        match self {
            Pattern::Base => machine_with_base_pages(),
            _ => machine_with_huge_pages(),
        }
    }

    fn stream(self) -> Vec<u64> {
        let mut seed = 0x9E3779B97F4A7C15u64;
        (0..STREAM_LEN as u64)
            .map(|i| match self {
                Pattern::Hot => {
                    // Offset `r * 4096` puts each region's line in its own
                    // LLC set (region strides are multiples of the set
                    // count, so only the offset picks the set).
                    let r = lcg_next(&mut seed) % HUGE_PAGES;
                    r * HUGE_PAGE_SIZE + r * 4096
                }
                Pattern::Random => lcg_next(&mut seed) % (HUGE_PAGES * HUGE_PAGE_SIZE),
                Pattern::Local => {
                    let region = (i / 512) % HUGE_PAGES;
                    region * HUGE_PAGE_SIZE + (i % 512) * 4096 + (i % 7) * 64
                }
                Pattern::Base => {
                    // One fixed cacheline per page, spread over distinct LLC
                    // sets, so the stream is LLC-resident after warmup and
                    // the measured delta is the 4-level walks.
                    let x = lcg_next(&mut seed);
                    let region = x % BASE_REGIONS;
                    let page = (x >> 8) % BASE_PAGES_PER_REGION;
                    let g = region * BASE_PAGES_PER_REGION + page;
                    (region * 512 + page) * 4096 + ((g / 64) % 64) * 64
                }
            })
            .collect()
    }
}

fn access_paths(c: &mut Criterion) {
    for (name, pattern) in PATTERNS {
        let stream = pattern.stream();

        let mut m = pattern.machine();
        let mut i = 0usize;
        c.bench_function(&format!("hotpath_fast_{name}"), |b| {
            b.iter(|| {
                let a = Access::load(stream[i & (STREAM_LEN - 1)]);
                i += 1;
                black_box(m.access(a).unwrap());
            })
        });

        let mut m = pattern.machine();
        let mut i = 0usize;
        c.bench_function(&format!("hotpath_reference_{name}"), |b| {
            b.iter(|| {
                let a = Access::load(stream[i & (STREAM_LEN - 1)]);
                i += 1;
                black_box(m.access_reference(a).unwrap());
            })
        });
    }
}

/// The per-access *page-table work* in isolation: the single `walk_mut`
/// (reading the translation and setting reference bits in one pass) versus
/// the seed's steady-state `translate` + `entry_mut` pair. This is the code
/// the tentpole collapsed; the end-to-end targets above dilute it with the
/// simulated TLB/LLC model cost, which is identical in both paths.
fn walk_component(c: &mut Criterion) {
    use memtis_sim::page_table::{EntryMut, PageTable};

    let regions: Vec<u64> = {
        let mut seed = 0x9E3779B97F4A7C15u64;
        (0..STREAM_LEN)
            .map(|_| lcg_next(&mut seed) % HUGE_PAGES)
            .collect()
    };

    let mut pt = PageTable::new();
    for r in 0..HUGE_PAGES {
        pt.map_huge(VirtPage(r * 512), Frame(r * 512)).unwrap();
    }
    let mut i = 0usize;
    c.bench_function("hotpath_walk_fast", |b| {
        b.iter(|| {
            let r = regions[i & (STREAM_LEN - 1)];
            i += 1;
            let vp = VirtPage(r * 512 + r);
            match pt.walk_mut(vp).unwrap() {
                EntryMut::Huge(h) => {
                    h.accessed = true;
                    black_box(h.frame.add(vp.subpage_index() as u64));
                }
                EntryMut::Base(p) => {
                    p.accessed = true;
                    black_box(p.frame);
                }
            }
        })
    });

    let mut pt = PageTable::new();
    for r in 0..HUGE_PAGES {
        pt.map_huge(VirtPage(r * 512), Frame(r * 512)).unwrap();
    }
    let mut i = 0usize;
    c.bench_function("hotpath_walk_reference", |b| {
        b.iter(|| {
            let r = regions[i & (STREAM_LEN - 1)];
            i += 1;
            let vp = VirtPage(r * 512 + r);
            let tr = pt.translate(vp).unwrap();
            match pt.entry_mut(vp).unwrap() {
                EntryMut::Huge(h) => h.accessed = true,
                EntryMut::Base(p) => p.accessed = true,
            }
            black_box(tr.frame);
        })
    });
}

/// Direct head-to-head: repeated one-stream sweeps through each path on
/// each pattern, minimum per-rep time kept (noise-robust on a shared box),
/// speedups printed and recorded in BENCH_hotpath.json.
fn head_to_head(_c: &mut Criterion) {
    const REPS: usize = 5;

    // Monomorphic per-path reps (a shared loop with an `if reference`
    // branch inlines both access paths into one bloated body and skews
    // the comparison).
    fn run_fast(pattern: Pattern, stream: &[u64]) -> f64 {
        let mut m = pattern.machine();
        // Warm TLB/LLC/walk-cache state outside the timed window.
        for &addr in &stream[..STREAM_LEN / 4] {
            let _ = m.access(Access::load(addr));
        }
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            for &addr in stream {
                black_box(m.access(Access::load(addr)).unwrap());
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    }

    fn run_reference(pattern: Pattern, stream: &[u64]) -> f64 {
        let mut m = pattern.machine();
        for &addr in &stream[..STREAM_LEN / 4] {
            let _ = m.access_reference(Access::load(addr));
        }
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            for &addr in stream {
                black_box(m.access_reference(Access::load(addr)).unwrap());
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    }

    let mut metrics = vec![("accesses".to_string(), STREAM_LEN as f64)];
    let mut lines = Vec::new();
    for (name, pattern) in PATTERNS {
        let stream = pattern.stream();
        let reference = run_reference(pattern, &stream);
        let fast = run_fast(pattern, &stream);
        let speedup = reference / fast;
        lines.push(format!(
            "{name} {:.1} -> {:.1} Macc/s ({speedup:.2}x)",
            STREAM_LEN as f64 / reference / 1e6,
            STREAM_LEN as f64 / fast / 1e6,
        ));
        metrics.push((
            format!("fast_{name}_macc_s"),
            STREAM_LEN as f64 / fast / 1e6,
        ));
        metrics.push((
            format!("reference_{name}_macc_s"),
            STREAM_LEN as f64 / reference / 1e6,
        ));
        metrics.push((format!("speedup_{name}"), speedup));
    }
    println!(
        "hotpath head-to-head, best of {REPS} reps x {STREAM_LEN} accesses: {}",
        lines.join(", ")
    );
    emit_bench_json("hotpath", &metrics);
}

/// End-to-end batched-pipeline head-to-head: full MEMTIS cells driven at
/// `chunk = 1` (the legacy per-event loop) versus the default chunk size.
/// Two workloads — 654.roms and a zipfian key-value synth — are recorded
/// once and replayed from identical traces, so both paths consume the
/// same byte stream; the per-rep reports are asserted bit-identical
/// (host wall-clock aside) before timings are reported. Best-of-reps
/// events/sec and speedups land in `BENCH_hotloop.json`.
fn hotloop(_c: &mut Criterion) {
    use memtis_bench::{
        driver_config, machine_for, CapacityKind, Ratio, System, SEED, TIME_COMPRESSION,
    };
    use memtis_workloads::{
        Benchmark, Scale, SpecStream, SynthBuilder, TraceRecorder, TraceReplay,
    };

    // Long reps (~100 ms each): on a shared box, tens-of-ms runs are
    // dominated by scheduler jitter and the best-of comparison becomes a
    // lottery; ~100 ms reps average the jitter away within each rep.
    const ACCESSES: u64 = 2_000_000;
    const REPS: usize = 7;
    let ratio = Ratio {
        fast: 1,
        capacity: 8,
    };

    /// Render a report for comparison, ignoring only host wall-clock.
    fn signature(mut report: RunReport) -> String {
        report.host_elapsed_ns = 0;
        format!("{report:?}")
    }

    let zipf_spec = SynthBuilder::new("zipf-synth")
        .footprint(96 << 20)
        .zipf(0.9)
        .stores(0.1)
        .build(ACCESSES);
    let zipf_rss = zipf_spec.total_bytes();
    let zipf_machine = MachineConfig::dram_nvm(
        ratio.fast_bytes(zipf_rss),
        zipf_rss * 2 + 64 * HUGE_PAGE_SIZE,
    )
    .with_bandwidth_scale(TIME_COMPRESSION);
    let cases = [
        (
            "roms",
            Benchmark::Roms.spec(Scale::TEST, ACCESSES),
            machine_for(Benchmark::Roms, Scale::TEST, ratio, CapacityKind::Nvm),
        ),
        ("zipf", zipf_spec, zipf_machine),
    ];

    let run_once = |machine: &MachineConfig, mk: &dyn Fn() -> TraceReplay, chunk: usize| {
        let mut wl = mk();
        let mut driver = driver_config();
        driver.chunk = chunk;
        let mut sim = Simulation::new(machine.clone(), System::Memtis.build(), driver);
        let start = Instant::now();
        let report = sim.run(&mut wl).unwrap();
        (report, start.elapsed().as_secs_f64())
    };

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut metrics = vec![
        ("chunk".to_string(), DEFAULT_CHUNK as f64),
        // Raw shard timings only beat S=1 when the host has spare cores;
        // recording the core count keeps cross-host comparisons honest.
        ("host_cores".to_string(), host_cores as f64),
    ];
    let mut lines = Vec::new();
    let mut total_events = 0.0;
    let mut total_batched_s = 0.0;
    for (name, spec, machine) in cases {
        let mut rec = TraceRecorder::new(SpecStream::new(spec, SEED));
        while rec.next_event().is_some() {}
        let trace = rec.finish();
        let mk = || TraceReplay::new(trace.clone(), name).expect("just-recorded trace is valid");

        // Interleave legacy/batched reps pairwise so drifting background
        // load biases both paths alike; keep the best rep of each.
        let (_, _) = run_once(&machine, &mk, 1); // Shared warmup, untimed.
        let mut legacy_s = f64::INFINITY;
        let mut batched_s = f64::INFINITY;
        let mut reports = None;
        for _ in 0..REPS {
            let (legacy_report, ls) = run_once(&machine, &mk, 1);
            let (batched_report, bs) = run_once(&machine, &mk, DEFAULT_CHUNK);
            legacy_s = legacy_s.min(ls);
            batched_s = batched_s.min(bs);
            reports = Some((legacy_report, batched_report));
        }
        let (legacy_report, batched_report) = reports.unwrap();
        assert_eq!(
            signature(legacy_report),
            signature(batched_report.clone()),
            "batched pipeline diverged from the per-event oracle on {name}"
        );

        let events = batched_report.sim_events as f64;
        let speedup = legacy_s / batched_s;
        lines.push(format!(
            "{name} {:.1} -> {:.1} Mev/s ({speedup:.2}x)",
            events / legacy_s / 1e6,
            events / batched_s / 1e6,
        ));
        metrics.push((format!("{name}_sim_events"), events));
        metrics.push((format!("{name}_legacy_host_ns"), legacy_s * 1e9));
        metrics.push((format!("{name}_batched_host_ns"), batched_s * 1e9));
        metrics.push((format!("{name}_legacy_eps"), events / legacy_s));
        metrics.push((format!("{name}_batched_eps"), events / batched_s));
        metrics.push((format!("{name}_speedup"), speedup));
        total_events += events;
        total_batched_s += batched_s;

        // Shard-scaling curve: the same trace under 1/2/4 lane groups at a
        // large chunk. Reports must stay byte-identical across shard
        // counts. Every lane runs on the coordinator, so raw wall-clock
        // does not scale with S; the projected time
        // (`ShardMetrics::projected_ns`: the lane phase shrinks from its
        // measured wall to its critical-path share of the per-shard load
        // split) models an S-core host.
        const SHARD_CHUNK: usize = 65536;
        const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
        const SHARD_REPS: usize = 3;
        let mut shard_lines = Vec::new();
        let mut base_projected_eps = f64::NAN;
        let mut shard1_sig: Option<String> = None;
        for s in SHARD_COUNTS {
            let mut best_host = f64::INFINITY;
            let mut best_projected = f64::INFINITY;
            let mut last: Option<(RunReport, ShardMetrics)> = None;
            for _ in 0..SHARD_REPS {
                let mut wl = mk();
                let mut driver = driver_config();
                driver.chunk = SHARD_CHUNK;
                driver.shards = Some(s);
                let mut sim = Simulation::new(machine.clone(), System::Memtis.build(), driver);
                let start = Instant::now();
                let report = sim.run(&mut wl).unwrap();
                let host = start.elapsed().as_secs_f64();
                let m = sim.shard_metrics().expect("sharded run exposes metrics");
                let projected = m.projected_ns(host * 1e9).max(1.0) / 1e9;
                best_host = best_host.min(host);
                best_projected = best_projected.min(projected);
                last = Some((report, m));
            }
            let (report, sm) = last.unwrap();
            let events = report.sim_events as f64;
            let accesses = report.accesses as f64;
            match &shard1_sig {
                None => shard1_sig = Some(signature(report)),
                Some(base) => assert_eq!(
                    base,
                    &signature(report),
                    "sharded run diverged from the single-shard oracle on {name} at S={s}"
                ),
            }
            let projected_eps = events / best_projected;
            if s == 1 {
                base_projected_eps = projected_eps;
            }
            shard_lines.push(format!("S={s} {:.1}", projected_eps / 1e6));
            metrics.push((format!("{name}_shards{s}_host_ns"), best_host * 1e9));
            metrics.push((format!("{name}_shards{s}_eps"), events / best_host));
            metrics.push((format!("{name}_shards{s}_projected_eps"), projected_eps));
            // Deterministic health metrics (identical run to run, so CI can
            // gate them hard): the share of accesses the lane phase
            // executed, and the critical-path share of the per-shard load
            // split (1/S is perfect balance, 1.0 is fully serial).
            metrics.push((
                format!("{name}_shards{s}_lane_frac"),
                sm.lane_accesses as f64 / accesses,
            ));
            metrics.push((
                format!("{name}_shards{s}_crit_frac"),
                sm.crit_accesses as f64 / sm.lane_accesses.max(1) as f64,
            ));
            if s > 1 {
                metrics.push((
                    format!("{name}_shards{s}_projected_speedup"),
                    projected_eps / base_projected_eps,
                ));
            }
        }
        println!(
            "shard scaling ({name}, chunk {SHARD_CHUNK}, projected Mev/s): {}",
            shard_lines.join(", ")
        );
    }
    metrics.push(("sim_events".to_string(), total_events));
    metrics.push(("host_elapsed_ns".to_string(), total_batched_s * 1e9));
    metrics.push(("events_per_sec".to_string(), total_events / total_batched_s));

    // Flight-recorder overhead curve: the same MEMTIS cell under (a) no
    // observer, (b) events-only tracing (ring + registry, no profiler or
    // latency histograms), (c) the full flight recorder (events + phase
    // spans + latency histograms). Modes are interleaved pairwise per rep
    // so drifting background load biases all three alike; best rep kept.
    {
        use memtis_core::{MemtisConfig, MemtisPolicy};
        use memtis_workloads::{Benchmark, Scale, SpecStream};
        const OBS_ACCESSES: u64 = 400_000;
        const OBS_REPS: usize = 9;

        fn run_obs<O: Observer>(mk: &dyn Fn() -> O, accesses: u64) -> (f64, f64) {
            let ratio = Ratio {
                fast: 1,
                capacity: 8,
            };
            let machine = machine_for(Benchmark::Roms, Scale::TEST, ratio, CapacityKind::Nvm);
            let mut wl = SpecStream::new(Benchmark::Roms.spec(Scale::TEST, accesses), SEED);
            let mut sim = Simulation::with_observer(
                machine,
                MemtisPolicy::new(MemtisConfig::sim_scaled()),
                driver_config(),
                mk(),
            );
            let start = Instant::now();
            let report = sim.run(&mut wl).unwrap();
            (start.elapsed().as_secs_f64(), report.sim_events as f64)
        }

        // Untimed warmup: fault in both code paths before the first rep.
        let _ = run_obs(&NopObserver::default, OBS_ACCESSES);
        let _ = run_obs(&TracingObserver::new, OBS_ACCESSES);
        let (mut off, mut events_only, mut full) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut obs_events = 0.0;
        for _ in 0..OBS_REPS {
            let (t, e) = run_obs(&NopObserver::default, OBS_ACCESSES);
            off = off.min(t);
            obs_events = e;
            let (t, _) = run_obs(&TracingObserver::events_only, OBS_ACCESSES);
            events_only = events_only.min(t);
            let (t, _) = run_obs(&TracingObserver::new, OBS_ACCESSES);
            full = full.min(t);
        }
        // A tracing observer cannot make the run faster, so any inversion
        // that survives the best-of filter is scheduler noise; clamp the
        // curve monotone (off <= events-only <= full) so the recorded
        // overhead fractions never go negative and CI floors don't flap.
        let events_only = events_only.max(off);
        let full = full.max(events_only);
        let events_frac = events_only / off - 1.0;
        let full_frac = full / off - 1.0;
        println!(
            "observer curve, best of {OBS_REPS} reps x {OBS_ACCESSES} accesses: \
             off {:.1} Mev/s, events-only {:.1} Mev/s ({:+.1}%), \
             full flight recorder {:.1} Mev/s ({:+.1}%)",
            obs_events / off / 1e6,
            obs_events / events_only / 1e6,
            events_frac * 100.0,
            obs_events / full / 1e6,
            full_frac * 100.0,
        );
        metrics.push(("obs_off_eps".to_string(), obs_events / off));
        metrics.push(("obs_events_eps".to_string(), obs_events / events_only));
        metrics.push(("obs_full_eps".to_string(), obs_events / full));
        metrics.push(("obs_events_overhead_frac".to_string(), events_frac));
        metrics.push(("obs_full_overhead_frac".to_string(), full_frac));
    }

    // Migration-policy head-to-head: MEMTIS on a drifting-zipf ping-pong
    // workload over a tight migration link, with and without anti-thrashing
    // hysteresis. The phase drift re-ranks the hot set every phase, so the
    // baseline promotes pages the next phase demotes again; hysteresis
    // backs off those re-promotions. Both counters are sim-deterministic
    // (same seed → same values on every host), so the gate is asserted
    // hard: promote+demote traffic must at least halve while the fast-tier
    // hit ratio stays within 2 % of the baseline.
    {
        use memtis_workloads::SynthBuilder;
        const PP_ACCESSES: u64 = 2_000_000;
        const TIGHT_BW: f64 = 8.0;

        let spec = SynthBuilder::new("drifting-zipf")
            .footprint(64 << 20)
            .zipf(1.2)
            .phases(16)
            .drift(0.5)
            .stores(0.0)
            .build(PP_ACCESSES);
        let rss = spec.total_bytes();
        let machine = MachineConfig::dram_nvm(ratio.fast_bytes(rss), rss * 2 + 64 * HUGE_PAGE_SIZE)
            .with_bandwidth_scale(TIME_COMPRESSION);
        let run_pp = |hysteresis: Option<HysteresisConfig>| {
            let mut driver = driver_config();
            driver.migration_bw = Some(TIGHT_BW);
            driver.hysteresis = hysteresis;
            let mut wl = SpecStream::new(spec.clone(), SEED);
            let mut sim = Simulation::new(machine.clone(), System::Memtis.build(), driver);
            sim.run(&mut wl).unwrap()
        };
        let base = run_pp(None);
        let hyst = run_pp(Some(HysteresisConfig {
            window_ns: 4e6,
            base_backoff_ns: 4e6,
            max_backoff_ns: 128e6,
        }));
        let (base_traffic, hyst_traffic) = (
            base.stats.migration.traffic_4k(),
            hyst.stats.migration.traffic_4k(),
        );
        let (base_fhr, hyst_fhr) = (
            base.stats.fast_tier_hit_ratio(),
            hyst.stats.fast_tier_hit_ratio(),
        );
        assert!(
            hyst_traffic * 2 <= base_traffic,
            "hysteresis must at least halve ping-pong traffic \
             (baseline {base_traffic} vs hysteresis {hyst_traffic} 4K pages)"
        );
        assert!(
            (hyst_fhr - base_fhr).abs() <= 0.02,
            "hysteresis must not cost fast-tier hit ratio \
             (baseline {base_fhr:.4} vs hysteresis {hyst_fhr:.4})"
        );
        println!(
            "migration policies (drifting-zipf, bw {TIGHT_BW}): \
             traffic {base_traffic} -> {hyst_traffic} 4K pages ({:.2}x), \
             fast-hit {:.2}% -> {:.2}%, {} backoffs",
            base_traffic as f64 / hyst_traffic.max(1) as f64,
            base_fhr * 100.0,
            hyst_fhr * 100.0,
            hyst.stats.migration.promotion_backoffs,
        );
        metrics.push((
            "migration_policies_base_traffic_4k".to_string(),
            base_traffic as f64,
        ));
        metrics.push((
            "migration_policies_hysteresis_traffic_4k".to_string(),
            hyst_traffic as f64,
        ));
        metrics.push((
            "migration_policies_traffic_reduction".to_string(),
            base_traffic as f64 / hyst_traffic.max(1) as f64,
        ));
        metrics.push(("migration_policies_base_fhr".to_string(), base_fhr));
        metrics.push(("migration_policies_hysteresis_fhr".to_string(), hyst_fhr));
        metrics.push((
            "migration_policies_backoffs".to_string(),
            hyst.stats.migration.promotion_backoffs as f64,
        ));
    }

    println!(
        "hotloop head-to-head, best of {REPS} reps x {ACCESSES} accesses: {}",
        lines.join(", ")
    );
    emit_bench_json("hotloop", &metrics);
}

criterion_group! {
    name = hotpath;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    targets = access_paths, walk_component, head_to_head, hotloop
}
criterion_main!(hotpath);
