//! The paper's evaluation — Tables 1–3, Figs. 1–14, §6.3.5 and two
//! extension studies — as one bench.
//!
//! ```text
//! cargo bench -p memtis-bench --bench paper [-- NAME...]
//! ```
//!
//! With no names every figure runs, in the order of [`FIGURES`]; otherwise
//! the named ones. Each figure requests its [`Cell`]s from one shared
//! [`Runner`], which executes each distinct cell once per invocation (the
//! MEMTIS 1:8 runs of Figs. 5, 10 and 12 are one run), then prints its
//! tables and writes them as CSV under `target/experiments/`. The access
//! budget per run is `MEMTIS_ACCESSES` (default 1.5 M); a malformed value,
//! an unknown name or a flag exits 2.

use memtis_bench::{
    access_budget, cli, emit, geomean, normalized, CapacityKind, Cell, MachineSpec, Outcome,
    PolicySpec, Ratio, Runner, System, Table, Workload, SEED, TIME_COMPRESSION,
};
use memtis_core::MemtisConfig;
use memtis_sim::prelude::{
    AccessStream, DriverConfig, MachineConfig, RunReport, VirtAddr, WorkloadEvent, HUGE_PAGE_SIZE,
};
use memtis_tracking::damon::{Damon, DamonConfig};
use memtis_workloads::{Benchmark, Scale, SpecStream, SynthBuilder};
use std::sync::Arc;

/// A figure: requests its cells from the runner (at the given access
/// budget) and renders its tables.
type Figure = fn(&mut Runner, u64);

/// Every figure, by the name that selects it.
const FIGURES: [(&str, Figure); 19] = [
    ("table1_taxonomy", table1_taxonomy),
    ("table2_benchmarks", table2_benchmarks),
    ("table3_overalloc", table3_overalloc),
    ("fig1_damon", fig1_damon),
    ("fig2_hemem_hotset", fig2_hemem_hotset),
    ("fig3_skew_scatter", fig3_skew_scatter),
    ("fig5_main_comparison", fig5_main_comparison),
    ("fig6_scalability", fig6_scalability),
    ("fig7_ratio_2to1", fig7_ratio_2to1),
    ("fig8_hemem_detail", fig8_hemem_detail),
    ("fig9_hotset_series", fig9_hotset_series),
    ("fig10_ablation", fig10_ablation),
    ("fig11_split_timeline", fig11_split_timeline),
    ("fig12_hit_ratios", fig12_hit_ratios),
    ("fig13_sensitivity", fig13_sensitivity),
    ("fig14_cxl", fig14_cxl),
    ("overhead_tracking", overhead_tracking),
    ("ext_hybrid_scan", ext_hybrid_scan),
    ("migration_interference", migration_interference),
];

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
    let usage = format!(
        "usage: cargo bench -p memtis-bench --bench paper [-- NAME...]\n  names: {}",
        names.join(" ")
    );
    // Cargo passes `--bench` to every `harness = false` target.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let figures: Vec<Figure> = if args.is_empty() {
        FIGURES.iter().map(|&(_, f)| f).collect()
    } else {
        let find = |name: &String| {
            FIGURES
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, f)| f)
                .ok_or_else(|| format!("unknown figure {name:?}"))
        };
        cli::or_exit(args.iter().map(find).collect(), &usage)
    };
    let budget = cli::or_exit(access_budget(), &usage);
    let mut runner = Runner::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
    for figure in figures {
        figure(&mut runner, budget);
    }
    println!(
        "\npaper: {} cells requested, {} executed",
        runner.requested(),
        runner.executed()
    );
}

/// The 1:2 configuration.
const ONE_TO_TWO: Ratio = Ratio::MAIN[0];

/// A machine with an NVM capacity tier at `ratio`.
fn nvm(ratio: Ratio) -> MachineSpec {
    MachineSpec::Tiered(ratio, CapacityKind::Nvm)
}

/// The all-NVM normalization baseline at the default scale.
fn baseline(bench: Benchmark, n: u64) -> Cell {
    Cell::baseline(bench, Scale::DEFAULT, CapacityKind::Nvm, n)
}

/// Hands out a figure's outcomes in the order it requested the cells.
struct Outcomes(std::vec::IntoIter<Arc<Outcome>>);

impl Outcomes {
    fn of(runner: &mut Runner, cells: &[Cell]) -> Outcomes {
        Outcomes(runner.run(cells).into_iter())
    }

    fn next(&mut self) -> Arc<Outcome> {
        self.0.next().expect("one outcome per requested cell")
    }
}

/// A table with the `|`-separated columns of `header`.
fn new_table(header: &str) -> Table {
    Table::new(header.split('|').collect())
}

/// The systems' names as `|`-separated columns.
fn system_columns(systems: &[System]) -> String {
    let names: Vec<&str> = systems.iter().map(|s| s.name()).collect();
    names.join("|")
}

fn mb(bytes: f64) -> f64 {
    bytes / (1 << 20) as f64
}

/// Table 1 — taxonomy of tiered memory systems, generated from each
/// policy's descriptor so it always reflects what the implementations do.
fn table1_taxonomy(_: &mut Runner, _: u64) {
    let systems = [
        System::AutoNuma,
        System::AutoTiering,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::MultiClock,
        System::Tmts,
        System::Hemem,
        System::Memtis,
    ];
    let mut t = new_table("system|tracking mechanism|subpage tracking|promotion metric|demotion metric|thresholding|critical-path migration|page size handling");
    for s in systems {
        let d = s.build().descriptor();
        t.row(vec![
            d.name.to_string(),
            d.mechanism.to_string(),
            if d.subpage_tracking { "Yes" } else { "No" }.to_string(),
            d.promotion_metric.to_string(),
            d.demotion_metric.to_string(),
            d.thresholding.to_string(),
            d.critical_path_migration.to_string(),
            d.page_size_handling.to_string(),
        ]);
    }
    emit(
        "table1_taxonomy",
        "comparison of tiered memory systems (paper Table 1)",
        &t,
    );
}

/// Table 2 — benchmark characteristics: RSS and huge-page ratio (RHP),
/// measured in the simulator against the paper's testbed values (sizes
/// scaled 1/64).
fn table2_benchmarks(runner: &mut Runner, _: u64) {
    // Enough accesses to get through all allocation phases.
    let cells =
        Benchmark::ALL.map(|b| Cell::new(b, MachineSpec::AllFast, PolicySpec::Noop, 400_000));
    let mut out = Outcomes::of(runner, &cells);
    let mut t = new_table("benchmark|paper RSS (GB)|scaled RSS (MB)|measured RSS (MB)|paper RHP|measured RHP|description");
    for bench in Benchmark::ALL {
        let o = out.next();
        let huge_bytes = o.mapped_huge_pages * HUGE_PAGE_SIZE;
        let rss = o.report.rss_peak_bytes.max(o.rss_bytes);
        let rhp = huge_bytes as f64 / o.rss_bytes.max(1) as f64;
        t.row(vec![
            bench.name().to_string(),
            format!("{:.1}", bench.paper_rss_gb()),
            format!("{:.0}", bench.paper_rss_gb() * 1024.0 / 64.0),
            format!("{:.0}", mb(rss as f64)),
            format!("{:.1}%", bench.paper_rhp() * 100.0),
            format!("{:.1}%", rhp * 100.0),
            bench.description().to_string(),
        ]);
    }
    emit(
        "table2_benchmarks",
        "benchmark characteristics (paper Table 2, sizes scaled 1/64)",
        &t,
    );
}

/// Table 3 — HeMem over-allocation: small (non-huge-mmap) allocations
/// HeMem places directly in the fast tier, read from the policy's own
/// accounting. The paper shrinks HeMem's fast tier by this much.
fn table3_overalloc(runner: &mut Runner, _: u64) {
    let paper_mb: [(Benchmark, u64); 8] = [
        (Benchmark::Graph500, 60),
        (Benchmark::PageRank, 500),
        (Benchmark::XsBench, 420),
        (Benchmark::Liblinear, 90),
        (Benchmark::Silo, 1400),
        (Benchmark::Btree, 9800),
        (Benchmark::Bwaves, 1900),
        (Benchmark::Roms, 900),
    ];
    let cells = paper_mb.map(|(b, _)| Cell::new(b, nvm(ONE_TO_TWO), System::Hemem, 300_000));
    let mut out = Outcomes::of(runner, &cells);
    let mut t = new_table("benchmark|paper over-allocation (MB)|measured (MB, 1/64 scale)|measured x64 (MB, paper scale)");
    for (bench, paper) in paper_mb {
        let measured = out.next().hemem().overallocated_bytes as f64;
        t.row(vec![
            bench.name().to_string(),
            format!("{paper}"),
            format!("{:.1}", mb(measured)),
            format!("{:.0}", mb(measured * 64.0)),
        ]);
    }
    emit(
        "table3_overalloc",
        "HeMem small-allocation over-allocation sizes (paper Table 3)",
        &t,
    );
}

/// Figure 1 — DAMON's granularity / interval / CPU-overhead trade-off on
/// the 654.roms stream (no tiering run): coarse regions at a short
/// interval are cheap but lump distinct frequencies together, fine regions
/// at a long interval cannot separate them in time, and fine + fast is
/// accurate but expensive. Emits the CPU-overhead table plus one heat-map
/// CSV per configuration (time bin × address bin → aggregated accesses).
fn fig1_damon(_: &mut Runner, n: u64) {
    /// Nominal per-access wall contribution (ns) at 20 threads.
    const NS_PER_ACCESS: f64 = 10.0;
    /// DAMON's intervals are compressed by this factor to fit the simulated
    /// run length; its per-region check cost shrinks by the same factor so
    /// the CPU-overhead *percentages* stay comparable to the paper's.
    const INTERVAL_COMPRESSION: f64 = 2000.0;
    const TIME_BINS: usize = 40;
    const ADDR_BINS: usize = 32;

    let spec = Benchmark::Roms.spec(Scale::DEFAULT, n);
    // Monitoring targets: the workload's regions.
    let ranges: Vec<(VirtAddr, u64)> = spec.regions.iter().map(|r| (r.addr, r.bytes)).collect();
    let lo = ranges.iter().map(|(a, _)| a.0).min().unwrap();
    let hi = ranges.iter().map(|(a, b)| a.0 + b).max().unwrap();
    let total_ns = n as f64 * NS_PER_ACCESS;

    let configs: [(&str, DamonConfig); 3] = [
        ("5ms-10-1000", DamonConfig::paper(5.0, 10, 1000)),
        ("500ms-10K-20K", DamonConfig::paper(500.0, 10_000, 20_000)),
        ("5ms-10K-20K", DamonConfig::paper(5.0, 10_000, 20_000)),
    ];
    let mut table = new_table("config|regions (end)|snapshots|cpu overhead (1 core)|paper cpu overhead|addr bins with signal");
    let paper_cpu = ["2.15%", "3.18%", "72.85%"];

    for (i, (name, cfg)) in configs.into_iter().enumerate() {
        let cfg = DamonConfig {
            sample_interval_ns: cfg.sample_interval_ns / INTERVAL_COMPRESSION,
            aggregate_interval_ns: cfg.aggregate_interval_ns / INTERVAL_COMPRESSION,
            ..cfg
        };
        let mut damon = Damon::new(cfg, &ranges, SEED);
        let mut wl = SpecStream::new(spec.clone(), SEED);
        let mut t = 0.0f64;
        while let Some(ev) = wl.next_event() {
            if let WorkloadEvent::Access(a) = ev {
                t += NS_PER_ACCESS;
                damon.observe(t, a.vaddr.base_page());
            }
        }
        damon.advance(t);

        let mut heat = vec![vec![0u64; ADDR_BINS]; TIME_BINS];
        for (when, snap) in &damon.history {
            let tb = (((when / total_ns) * TIME_BINS as f64) as usize).min(TIME_BINS - 1);
            for r in snap {
                let a0 = r.start.addr().0;
                let a1 = r.end.addr().0;
                let b0 = (((a0 - lo) as f64 / (hi - lo) as f64) * ADDR_BINS as f64) as usize;
                let b1 = (((a1 - lo) as f64 / (hi - lo) as f64) * ADDR_BINS as f64) as usize;
                for cell in &mut heat[tb][b0..=b1.min(ADDR_BINS - 1)] {
                    *cell += r.nr_accesses as u64;
                }
            }
        }
        let mut csv = Table::new(
            std::iter::once("time_bin".to_string())
                .chain((0..ADDR_BINS).map(|b| format!("addr{b}")))
                .collect::<Vec<_>>(),
        );
        for (tb, row) in heat.iter().enumerate() {
            let mut cells = vec![tb.to_string()];
            cells.extend(row.iter().map(|v| v.to_string()));
            csv.row(cells);
        }
        emit(
            &format!("fig1_damon_heatmap_{i}"),
            &format!("DAMON heat map, config {name}"),
            &csv,
        );

        let signal_bins = (0..ADDR_BINS)
            .filter(|&b| heat.iter().map(|r| r[b]).sum::<u64>() > 0)
            .count();
        table.row(vec![
            name.to_string(),
            damon.regions().len().to_string(),
            damon.history.len().to_string(),
            format!(
                "{:.2}%",
                damon.cpu_ns / INTERVAL_COMPRESSION / total_ns * 100.0
            ),
            paper_cpu[i].to_string(),
            signal_bins.to_string(),
        ]);
    }
    emit(
        "fig1_damon",
        "DAMON granularity/interval/CPU trade-off (paper Fig. 1)",
        &table,
    );
}

/// Figure 2 — hot pages identified by HeMem over time. On PageRank the
/// static-threshold hot set stays far below the fast tier; on XSBench it
/// overshoots mid-run and later collapses.
fn fig2_hemem_hotset(runner: &mut Runner, n: u64) {
    let benches = [Benchmark::PageRank, Benchmark::XsBench];
    let cells = benches.map(|b| Cell::new(b, nvm(Ratio::DEFAULT), System::Hemem, n));
    let mut out = Outcomes::of(runner, &cells);
    let mut table = new_table("benchmark|fast tier (MB)|hot set min (MB)|hot set max (MB)|time under fast size|time over fast size");
    for (bench, cell) in benches.into_iter().zip(&cells) {
        let fast = cell.machine_config().tiers[0].capacity;
        let o = out.next();
        let series = &o.hemem().hot_series;
        let min = series.iter().map(|&(_, h)| h).min().unwrap_or(0);
        let max = series.iter().map(|&(_, h)| h).max().unwrap_or(0);
        let under = series.iter().filter(|&&(_, h)| h <= fast).count();
        let over = series.len() - under;
        table.row(vec![
            bench.name().to_string(),
            format!("{:.1}", mb(fast as f64)),
            format!("{:.1}", mb(min as f64)),
            format!("{:.1}", mb(max as f64)),
            format!("{:.0}%", under as f64 / series.len().max(1) as f64 * 100.0),
            format!("{:.0}%", over as f64 / series.len().max(1) as f64 * 100.0),
        ]);

        let mut csv = new_table("time_ns|hot_bytes|fast_bytes");
        for &(t, h) in series {
            csv.row(vec![format!("{t:.0}"), h.to_string(), fast.to_string()]);
        }
        emit(
            &format!("fig2_hemem_hotset_{}", bench.name().to_lowercase()),
            &format!("HeMem identified hot set over time, {}", bench.name()),
            &csv,
        );
    }
    emit(
        "fig2_hemem_hotset",
        "HeMem hot-set size vs fast-tier capacity (paper Fig. 2)",
        &table,
    );
}

/// Figure 3 — hotness vs huge-page utilization. Liblinear's hot huge pages
/// are well utilized (keep them whole); Silo's hold only a few hot
/// subpages, the case the skewness-aware split exploits. Tracked with
/// MEMTIS without split, so pages stay huge.
fn fig3_skew_scatter(runner: &mut Runner, n: u64) {
    let benches = [
        (Benchmark::Liblinear, "positive correlation (Fig. 3a)"),
        (Benchmark::Silo, "no correlation, low utilization (Fig. 3b)"),
    ];
    let cfg = MemtisConfig::sim_scaled().without_split();
    let cells = benches.map(|(b, _)| Cell::new(b, nvm(ONE_TO_TWO), cfg.clone(), n));
    let mut out = Outcomes::of(runner, &cells);
    let mut summary = new_table("benchmark|huge pages|mean utilization (of 512)|utilization of hottest decile|hotness-utilization correlation|paper shape");
    for (bench, paper_shape) in benches {
        let o = out.next();
        // One dot per huge page: (utilization = touched subpages, hotness).
        let dots = &o.memtis().huge_dots;
        let mut csv = new_table("utilization|hotness");
        for &(u, h) in dots {
            csv.row(vec![u.to_string(), h.to_string()]);
        }
        emit(
            &format!("fig3_skew_scatter_{}", bench.name().to_lowercase()),
            &format!("hotness vs utilization dots, {}", bench.name()),
            &csv,
        );

        let count = dots.len().max(1) as f64;
        let mean_u: f64 = dots.iter().map(|&(u, _)| u as f64).sum::<f64>() / count;
        let mean_h: f64 = dots.iter().map(|&(_, h)| h as f64).sum::<f64>() / count;
        let cov: f64 = dots
            .iter()
            .map(|&(u, h)| (u as f64 - mean_u) * (h as f64 - mean_h))
            .sum::<f64>();
        let var_u: f64 = dots.iter().map(|&(u, _)| (u as f64 - mean_u).powi(2)).sum();
        let var_h: f64 = dots.iter().map(|&(_, h)| (h as f64 - mean_h).powi(2)).sum();
        let corr = if var_u > 0.0 && var_h > 0.0 {
            cov / (var_u.sqrt() * var_h.sqrt())
        } else {
            0.0
        };
        // Utilization of the hottest 10% of huge pages.
        let mut sorted = dots.clone();
        sorted.sort_by_key(|&(_, h)| std::cmp::Reverse(h));
        let top = sorted.len().div_ceil(10).max(1);
        let hot_util: f64 = sorted[..top].iter().map(|&(u, _)| u as f64).sum::<f64>() / top as f64;
        summary.row(vec![
            bench.name().to_string(),
            dots.len().to_string(),
            format!("{mean_u:.0}"),
            format!("{hot_util:.0}"),
            format!("{corr:.2}"),
            paper_shape.to_string(),
        ]);
    }
    emit(
        "fig3_skew_scatter",
        "hotness vs huge-page utilization (paper Fig. 3)",
        &summary,
    );
}

/// Figure 5 — the main comparison: eight benchmarks × three ratios ×
/// seven systems on NVM, normalized to all-NVM. The paper reports MEMTIS
/// best in 23/24 cells, +33.6% geomean over the second best.
fn fig5_main_comparison(runner: &mut Runner, n: u64) {
    let systems = System::FIG5;
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.push(baseline(bench, n));
        for ratio in Ratio::MAIN {
            cells.extend(systems.map(|s| Cell::new(bench, nvm(ratio), s, n)));
        }
    }
    let mut out = Outcomes::of(runner, &cells);

    let columns = system_columns(&systems);
    let mut table = new_table(&format!("benchmark|ratio|{columns}|memtis/2nd-best"));
    // Per-system normalized scores across all cells, for the geomean rows.
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    let mut memtis_vs_second = Vec::new();
    let mut memtis_best_cells = 0usize;
    for bench in Benchmark::ALL {
        let base = out.next();
        for ratio in Ratio::MAIN {
            let mut row: Vec<String> = vec![bench.name().into(), ratio.label()];
            let mut cell_scores = Vec::new();
            for score in &mut scores {
                let n = normalized(&base.report, &out.next().report);
                score.push(n);
                cell_scores.push(n);
                row.push(format!("{n:.3}"));
            }
            let (memtis, second) = memtis_and_second_best(&cell_scores);
            memtis_vs_second.push(memtis / second);
            if memtis >= second {
                memtis_best_cells += 1;
            }
            row.push(format!("{:+.1}%", (memtis / second - 1.0) * 100.0));
            table.row(row);
        }
    }
    let mut geo_row: Vec<String> = vec!["geomean".into(), "all".into()];
    for s in &scores {
        geo_row.push(format!("{:.3}", geomean(s)));
    }
    geo_row.push(format!(
        "{:+.1}%",
        (geomean(&memtis_vs_second) - 1.0) * 100.0
    ));
    table.row(geo_row);

    emit(
        "fig5_main_comparison",
        "normalized performance vs all-NVM (NVM capacity tier); paper: MEMTIS best in 23/24, +33.6% geomean over second-best",
        &table,
    );
    println!(
        "MEMTIS best in {memtis_best_cells}/{} cells; geomean vs second-best {:+.1}%",
        memtis_vs_second.len(),
        (geomean(&memtis_vs_second) - 1.0) * 100.0
    );
}

/// MEMTIS's score (the last) and the best of the others.
fn memtis_and_second_best(scores: &[f64]) -> (f64, f64) {
    let (memtis, others) = scores.split_last().expect("MEMTIS is last");
    (*memtis, others.iter().cloned().fold(f64::MIN, f64::max))
}

/// Figure 6 — Graph500 with its RSS growing from 128 GB to 690 GB (scaled
/// 1/64) over a fixed 64 GB (scaled: 1 GiB) fast tier. The paper reports
/// MEMTIS +8.1–60.5% over the second best: sampling scales where
/// page-table scanning and fault-based tracking do not.
fn fig6_scalability(runner: &mut Runner, n: u64) {
    let bench = Benchmark::Graph500;
    let systems = [
        System::AutoNuma,
        System::Tiering08,
        System::Tpp,
        System::Nimble,
        System::Hemem,
        System::Memtis,
    ];
    let rss_points_gb = [128.0, 192.0, 336.0, 690.0];
    let fast_bytes = 1u64 << 30; // 64 GB / 64.

    // Scale chosen so the workload's total footprint hits the target.
    let scale_of = |rss_gb: f64| Scale(rss_gb / bench.paper_rss_gb() / 64.0);
    let mut cells = Vec::new();
    for rss_gb in rss_points_gb {
        let scale = scale_of(rss_gb);
        let capacity = bench.spec(scale, 1).total_bytes() * 2 + 64 * HUGE_PAGE_SIZE;
        let machine = MachineSpec::Custom(
            MachineConfig::dram_nvm(fast_bytes, capacity).with_bandwidth_scale(TIME_COMPRESSION),
        );
        cells.push(Cell::baseline(bench, scale, CapacityKind::Nvm, n));
        cells.extend(systems.map(|s| Cell {
            scale,
            ..Cell::new(bench, machine.clone(), s, n)
        }));
    }
    let mut out = Outcomes::of(runner, &cells);

    let columns = system_columns(&systems);
    let mut table = new_table(&format!(
        "paper RSS (GB)|scaled RSS (GB)|{columns}|memtis/2nd"
    ));
    let mut advantage = Vec::new();
    for rss_gb in rss_points_gb {
        let rss = bench.spec(scale_of(rss_gb), 1).total_bytes();
        let base = out.next();
        let mut row = vec![
            format!("{rss_gb:.0}"),
            format!("{:.2}", rss as f64 / (1u64 << 30) as f64),
        ];
        let mut scores = Vec::new();
        for _ in systems {
            let n = normalized(&base.report, &out.next().report);
            scores.push(n);
            row.push(format!("{n:.3}"));
        }
        let (memtis, second) = memtis_and_second_best(&scores);
        advantage.push(memtis / second);
        row.push(format!("{:+.1}%", (memtis / second - 1.0) * 100.0));
        table.row(row);
    }
    emit(
        "fig6_scalability",
        "Graph500 with growing RSS, fixed fast tier (paper Fig. 6: MEMTIS +8.1%..+60.5%)",
        &table,
    );
    println!(
        "geomean MEMTIS advantage over second-best: {:+.1}%",
        (geomean(&advantage) - 1.0) * 100.0
    );
}

/// Figure 7 — the 2:1 configuration (Meta's production target, §6.2.8),
/// which TPP was designed for: MEMTIS near all-DRAM except on the SPEC
/// benchmarks, and +6.1–33.3% over TPP when the sampled footprint exceeds
/// the fast tier.
fn fig7_ratio_2to1(runner: &mut Runner, n: u64) {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        let dram = Cell::new(bench, MachineSpec::AllFast, System::AllDram, n);
        let no_thp = DriverConfig {
            thp_enabled: false,
            ..dram.driver.clone()
        };
        cells.extend([
            baseline(bench, n),
            dram.clone(),
            Cell {
                driver: no_thp,
                ..dram
            },
            Cell::new(bench, nvm(Ratio::TWO_TO_ONE), System::Tpp, n),
            Cell::new(bench, nvm(Ratio::TWO_TO_ONE), System::Memtis, n),
        ]);
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut table =
        new_table("benchmark|All-DRAM w/ THP|All-DRAM w/o THP|TPP|MEMTIS|memtis vs tpp");
    for bench in Benchmark::ALL {
        let base = out.next();
        let mut norm = || normalized(&base.report, &out.next().report);
        let (nd, ndn, nt, nm) = (norm(), norm(), norm(), norm());
        table.row(vec![
            bench.name().to_string(),
            format!("{nd:.3}"),
            format!("{ndn:.3}"),
            format!("{nt:.3}"),
            format!("{nm:.3}"),
            format!("{:+.1}%", (nm / nt - 1.0) * 100.0),
        ]);
    }
    emit(
        "fig7_ratio_2to1",
        "2:1 fast:capacity configuration vs TPP and all-DRAM (paper Fig. 7)",
        &table,
    );
}

/// Figure 8 — MEMTIS vs HeMem under HeMem-favorable settings: 16
/// application threads (spare cores for HeMem's busy sampler) at 1:2.
/// HeMem's fast tier shrinks by its measured over-allocation (a 200k-access
/// probe run, so this figure runs in two rounds); HeMem+ keeps MEMTIS's
/// full fast tier. The paper still finds MEMTIS ahead.
fn fig8_hemem_detail(runner: &mut Runner, n: u64) {
    let sixteen_threads = |cell: Cell| {
        let mut m = cell.machine_config();
        m.app_threads = 16;
        Cell {
            machine: MachineSpec::Custom(m),
            ..cell
        }
    };
    let at = |bench, policy: System, accesses| {
        sixteen_threads(Cell::new(bench, nvm(ONE_TO_TWO), policy, accesses))
    };
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend([
            sixteen_threads(baseline(bench, n)),
            at(bench, System::Hemem, 200_000),
            at(bench, System::Hemem, n),
            at(bench, System::Memtis, n),
        ]);
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut rows = Vec::new();
    let mut shrunk = Vec::new();
    for (bench, round) in Benchmark::ALL.into_iter().zip(cells.chunks(4)) {
        let [base, probe, hemem_plus, memtis] = [(); 4].map(|_| out.next());
        let overalloc = probe.hemem().overallocated_bytes;
        rows.push((bench, base, hemem_plus, memtis));
        let mut m = round[1].machine_config();
        m.tiers[0].capacity = m.tiers[0].capacity.saturating_sub(overalloc).max(2 << 21);
        shrunk.push(Cell::new(bench, MachineSpec::Custom(m), System::Hemem, n));
    }
    let mut hemem = Outcomes::of(runner, &shrunk);

    let mut table = new_table("benchmark|HeMem|HeMem+|MEMTIS|memtis vs hemem+");
    for (bench, base, hemem_plus, memtis) in rows {
        let norm = |r: &RunReport| normalized(&base.report, r);
        let (nh, nhp, nm) = (
            norm(&hemem.next().report),
            norm(&hemem_plus.report),
            norm(&memtis.report),
        );
        table.row(vec![
            bench.name().to_string(),
            format!("{nh:.3}"),
            format!("{nhp:.3}"),
            format!("{nm:.3}"),
            format!("{:+.1}%", (nm / nhp - 1.0) * 100.0),
        ]);
    }
    emit(
        "fig8_hemem_detail",
        "MEMTIS vs HeMem/HeMem+ with 16 threads, 1:2 (paper Fig. 8)",
        &table,
    );
}

/// Figure 9 — hot/warm/cold data MEMTIS identifies over time, from the
/// telemetry windows' `hot_bytes`/`warm_bytes`/`cold_bytes` gauges: the hot
/// set should approach the fast tier from below, the warm band filling the
/// rest.
fn fig9_hotset_series(runner: &mut Runner, n: u64) {
    let benches = [
        Benchmark::PageRank,
        Benchmark::XsBench,
        Benchmark::Liblinear,
        Benchmark::Bwaves,
    ];
    let grid: Vec<(Benchmark, Ratio)> = benches
        .iter()
        .flat_map(|&b| [(b, ONE_TO_TWO), (b, Ratio::DEFAULT)])
        .collect();
    let cells: Vec<Cell> = grid
        .iter()
        .map(|&(b, r)| Cell::new(b, nvm(r), System::Memtis, n))
        .collect();
    let mut out = Outcomes::of(runner, &cells);
    let mut summary = new_table("benchmark|ratio|fast (MB)|median hot (MB)|median warm (MB)|hot/fast median|snapshots hot<=fast");
    for ((bench, ratio), cell) in grid.iter().zip(&cells) {
        let fast = cell.machine_config().tiers[0].capacity as f64;
        let o = out.next();
        let series: Vec<(f64, f64, f64, f64)> = o
            .report
            .windows
            .iter()
            .map(|w| {
                let get = |k: &str| w.gauge(k).unwrap_or(0.0);
                (
                    w.wall_ns,
                    get("hot_bytes"),
                    get("warm_bytes"),
                    get("cold_bytes"),
                )
            })
            .collect();
        let mut csv = new_table("time_ns|hot_mb|warm_mb|cold_mb|fast_mb");
        for &(t, h, w, c) in &series {
            csv.row(vec![
                format!("{t:.0}"),
                format!("{:.1}", mb(h)),
                format!("{:.1}", mb(w)),
                format!("{:.1}", mb(c)),
                format!("{:.1}", mb(fast)),
            ]);
        }
        emit(
            &format!(
                "fig9_hotset_{}_{}to{}",
                bench.name().to_lowercase().replace('.', "_"),
                ratio.fast,
                ratio.capacity
            ),
            &format!(
                "MEMTIS classification series, {} {}",
                bench.name(),
                ratio.label()
            ),
            &csv,
        );

        let mut hot: Vec<f64> = series.iter().map(|s| s.1).collect();
        let mut warm: Vec<f64> = series.iter().map(|s| s.2).collect();
        hot.sort_by(f64::total_cmp);
        warm.sort_by(f64::total_cmp);
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { v[v.len() / 2] };
        let within = series.iter().filter(|s| s.1 <= fast * 1.1).count();
        summary.row(vec![
            bench.name().to_string(),
            ratio.label(),
            format!("{:.0}", mb(fast)),
            format!("{:.0}", mb(med(&hot))),
            format!("{:.0}", mb(med(&warm))),
            format!("{:.2}", med(&hot) / fast),
            format!("{:.0}%", within as f64 / series.len().max(1) as f64 * 100.0),
        ]);
    }
    emit(
        "fig9_hotset_series",
        "MEMTIS hot/warm/cold classification vs fast-tier size (paper Fig. 9)",
        &summary,
    );
}

/// Figure 10 — the warm set and the huge-page split, ablated at 1:8:
/// vanilla (neither), +split, and +split+T_warm (full MEMTIS). The paper
/// reports the warm set cutting migration traffic by 2.7–64.8%, and the
/// split helping the skewed workloads (with a known 603.bwaves
/// regression).
fn fig10_ablation(runner: &mut Runner, n: u64) {
    // "w/ Split": split enabled, warm set still disabled.
    let split_only = MemtisConfig {
        warm_set: false,
        ..MemtisConfig::sim_scaled()
    };
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend([
            baseline(bench, n),
            Cell::new(bench, nvm(Ratio::DEFAULT), System::MemtisVanilla, n),
            Cell::new(bench, nvm(Ratio::DEFAULT), split_only.clone(), n),
            Cell::new(bench, nvm(Ratio::DEFAULT), System::Memtis, n),
        ]);
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut table = new_table("benchmark|vanilla perf|w/ split perf|w/ split+Twarm perf|vanilla traffic (4K pages)|w/ split traffic|w/ split+Twarm traffic|traffic vs vanilla");
    for bench in Benchmark::ALL {
        let [base, vanilla, split_only, full] = [(); 4].map(|_| out.next());
        let t0 = vanilla.report.stats.migration.traffic_4k().max(1);
        let t1 = split_only.report.stats.migration.traffic_4k();
        let t2 = full.report.stats.migration.traffic_4k();
        table.row(vec![
            bench.name().to_string(),
            format!("{:.3}", normalized(&base.report, &vanilla.report)),
            format!("{:.3}", normalized(&base.report, &split_only.report)),
            format!("{:.3}", normalized(&base.report, &full.report)),
            t0.to_string(),
            t1.to_string(),
            t2.to_string(),
            format!("{:+.1}%", (t2 as f64 / t0 as f64 - 1.0) * 100.0),
        ]);
    }
    emit(
        "fig10_ablation",
        "warm set + huge-page split ablation at 1:8 (paper Fig. 10)",
        &table,
    );
}

/// Figure 11 — Silo and Btree throughput over time at 1:8, with and
/// without the skewness-aware split: after a short dip the split run
/// overtakes MEMTIS-NS and the best fault-based system; on Btree the split
/// also reclaims THP bloat.
fn fig11_split_timeline(runner: &mut Runner, n: u64) {
    let benches = [Benchmark::Silo, Benchmark::Btree];
    let mut cells = Vec::new();
    for bench in benches {
        cells.extend(
            [System::Memtis, System::MemtisNs, System::Tiering08]
                .map(|s| Cell::new(bench, nvm(Ratio::DEFAULT), s, n)),
        );
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut summary = new_table("benchmark|MEMTIS thpt (M/s)|MEMTIS-NS thpt (M/s)|Tiering-0.8 thpt (M/s)|split gain|splits|RSS MEMTIS (MB)|RSS MEMTIS-NS (MB)");
    for bench in benches {
        let (memtis, ns, t08) = (out.next(), out.next(), out.next());
        let (memtis_r, ns_r, t08_r) = (&memtis.report, &ns.report, &t08.report);

        // Throughput-over-time CSV (the paper's line chart), from the
        // shared telemetry window collector.
        let mut csv = new_table("time_ns|memtis_mps|memtis_ns_mps|tiering08_mps|memtis_splits");
        let series = |r: &RunReport, i: usize| r.windows.get(i).map(|w| w.window_throughput / 1e6);
        let splits_at = |i: usize| memtis_r.windows.get(i).and_then(|w| w.gauge("splits"));
        let len = memtis_r
            .windows
            .len()
            .max(ns_r.windows.len())
            .max(t08_r.windows.len());
        for i in 0..len {
            csv.row(vec![
                memtis_r
                    .windows
                    .get(i)
                    .map(|w| format!("{:.0}", w.wall_ns))
                    .unwrap_or_default(),
                series(memtis_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                series(ns_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                series(t08_r, i)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                splits_at(i).map(|v| format!("{v:.0}")).unwrap_or_default(),
            ]);
        }
        emit(
            &format!("fig11_timeline_{}", bench.name().to_lowercase()),
            &format!("throughput over time, {} 1:8", bench.name()),
            &csv,
        );

        summary.row(vec![
            bench.name().to_string(),
            format!("{:.1}", memtis_r.throughput() / 1e6),
            format!("{:.1}", ns_r.throughput() / 1e6),
            format!("{:.1}", t08_r.throughput() / 1e6),
            format!(
                "{:+.1}%",
                (memtis_r.throughput() / ns_r.throughput() - 1.0) * 100.0
            ),
            memtis.memtis().stats.splits.to_string(),
            format!("{:.0}", mb(memtis_r.rss_final_bytes as f64)),
            format!("{:.0}", mb(ns_r.rss_final_bytes as f64)),
        ]);
    }
    emit(
        "fig11_split_timeline",
        "Silo/Btree over time: MEMTIS vs MEMTIS-NS vs Tiering-0.8 (paper Fig. 11: +10.6%/+10.4%)",
        &summary,
    );
}

/// Figure 12 — fast-tier hit ratios at 1:8: the estimated base-page-only
/// hit ratio (eHR), the real one with splits (rHR) and without (rHR-NS).
/// Silo and Btree show a large eHR − rHR-NS gap the split mostly closes;
/// dense workloads show eHR ≈ rHR, no reason to split.
fn fig12_hit_ratios(runner: &mut Runner, n: u64) {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend([
            Cell::new(bench, nvm(Ratio::DEFAULT), MemtisConfig::sim_scaled(), n),
            Cell::new(
                bench,
                nvm(Ratio::DEFAULT),
                MemtisConfig::sim_scaled().without_split(),
                n,
            ),
        ]);
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut table =
        new_table("benchmark|eHR|rHR (with split)|rHR-NS (no split)|split closes gap|splits");
    // Steady-state values: average over the second half of the run's
    // estimation windows.
    let avg_tail = |series: &[(f64, f64, f64)], idx: usize| -> f64 {
        let tail = &series[series.len() / 2..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter()
            .map(|t| if idx == 0 { t.1 } else { t.2 })
            .sum::<f64>()
            / tail.len() as f64
    };
    for bench in Benchmark::ALL {
        let (with, without) = (out.next(), out.next());
        let (with, without) = (&with.memtis().stats, &without.memtis().stats);
        let rhr = avg_tail(&with.hr_series, 0);
        let ehr = avg_tail(&without.hr_series, 1);
        let rhr_ns = avg_tail(&without.hr_series, 0);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.1}%", ehr * 100.0),
            format!("{:.1}%", rhr * 100.0),
            format!("{:.1}%", rhr_ns * 100.0),
            format!("{:+.1}pp", (rhr - rhr_ns) * 100.0),
            with.splits.to_string(),
        ]);
    }
    emit(
        "fig12_hit_ratios",
        "eHR / rHR / rHR-NS at 1:8 (paper Fig. 12)",
        &table,
    );
}

/// Figure 13 — sensitivity to the threshold-adaptation and cooling
/// intervals at 2:1, each swept from a tenth to ten times its default and
/// normalized to the default. The paper finds MEMTIS insensitive except at
/// the largest adaptation interval.
fn fig13_sensitivity(runner: &mut Runner, n: u64) {
    let factors: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];
    let default = MemtisConfig::sim_scaled();
    // The 1x column is the default run itself.
    let is_default = |f: f64| (f - 1.0).abs() < 1e-9;
    for (axis, label) in [(0, "adaptation interval"), (1, "cooling interval")] {
        let scaled = |f: f64| {
            let mut cfg = default.clone();
            if axis == 0 {
                cfg.adapt_interval = ((cfg.adapt_interval as f64 * f) as u64).max(100);
            } else {
                cfg.cooling_interval = ((cfg.cooling_interval as f64 * f) as u64).max(1_000);
            }
            cfg
        };
        let mut cells = Vec::new();
        for bench in Benchmark::ALL {
            cells.push(Cell::new(bench, nvm(Ratio::TWO_TO_ONE), default.clone(), n));
            let varied = factors.into_iter().filter(|&f| !is_default(f));
            cells.extend(varied.map(|f| Cell::new(bench, nvm(Ratio::TWO_TO_ONE), scaled(f), n)));
        }
        let mut out = Outcomes::of(runner, &cells);

        let columns: Vec<String> = factors.iter().map(|f| format!("{f}x")).collect();
        let mut table = new_table(&format!("benchmark|{}", columns.join("|")));
        let mut per_factor: Vec<Vec<f64>> = vec![Vec::new(); factors.len()];
        for bench in Benchmark::ALL {
            let base_wall = out.next().report.wall_ns;
            let mut row = vec![bench.name().to_string()];
            for (v, f) in per_factor.iter_mut().zip(factors) {
                let wall = if is_default(f) {
                    base_wall
                } else {
                    out.next().report.wall_ns
                };
                let norm = base_wall / wall;
                v.push(norm);
                row.push(format!("{norm:.3}"));
            }
            table.row(row);
        }
        let mut geo = vec!["geomean".to_string()];
        for v in &per_factor {
            geo.push(format!("{:.3}", geomean(v)));
        }
        table.row(geo);
        emit(
            &format!(
                "fig13_sensitivity_{}",
                if axis == 0 { "adapt" } else { "cooling" }
            ),
            &format!(
                "sensitivity to the {label}, 2:1 config, normalized to default (paper Fig. 13)"
            ),
            &table,
        );
    }
}

/// Figure 14 — emulated CXL as the capacity tier, MEMTIS vs TPP: margins
/// shrink with the smaller latency gap, but the paper still finds MEMTIS
/// ahead everywhere (up to +102.9% on PageRank).
fn fig14_cxl(runner: &mut Runner, n: u64) {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.push(Cell::baseline(bench, Scale::DEFAULT, CapacityKind::Cxl, n));
        for ratio in Ratio::MAIN {
            let cxl = MachineSpec::Tiered(ratio, CapacityKind::Cxl);
            cells.push(Cell::new(bench, cxl.clone(), System::Tpp, n));
            cells.push(Cell::new(bench, cxl, System::Memtis, n));
        }
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut table = new_table("benchmark|ratio|TPP|MEMTIS|memtis vs tpp");
    let mut worst: f64 = f64::MAX;
    let mut best: f64 = f64::MIN;
    for bench in Benchmark::ALL {
        let base = out.next();
        for ratio in Ratio::MAIN {
            let nt = normalized(&base.report, &out.next().report);
            let nm = normalized(&base.report, &out.next().report);
            let adv = nm / nt - 1.0;
            worst = worst.min(adv);
            best = best.max(adv);
            table.row(vec![
                bench.name().to_string(),
                ratio.label(),
                format!("{nt:.3}"),
                format!("{nm:.3}"),
                format!("{:+.1}%", adv * 100.0),
            ]);
        }
    }
    emit(
        "fig14_cxl",
        "CXL capacity tier: MEMTIS vs TPP across ratios (paper Fig. 14)",
        &table,
    );
    println!(
        "MEMTIS vs TPP advantage range: {:+.1}% .. {:+.1}%",
        worst * 100.0,
        best * 100.0
    );
}

/// §6.3.5 — the overhead of PEBS-based tracking: `ksampled` adjusts its
/// period against a 3%-of-one-core budget (climbing on 654.roms, flat on
/// 603.bwaves). The paper reports 2.016% average CPU and 0.922% average
/// performance impact; the reference run samples for free.
fn overhead_tracking(runner: &mut Runner, n: u64) {
    let free_cfg = MemtisConfig {
        sample_cost_ns: 0.0,
        ..MemtisConfig::sim_scaled()
    };
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend([
            Cell::new(bench, nvm(Ratio::DEFAULT), MemtisConfig::sim_scaled(), n),
            Cell::new(bench, nvm(Ratio::DEFAULT), free_cfg.clone(), n),
        ]);
    }
    // Sanity anchor: MEMTIS stays near all-NVM even with a tiny fast tier.
    let roms = Benchmark::Roms;
    cells.push(baseline(roms, n));
    cells.push(Cell::new(roms, nvm(Ratio::MAIN[2]), System::Memtis, n));
    let mut out = Outcomes::of(runner, &cells);
    let mut table = new_table("benchmark|initial period|final period|ksampled cpu (EMA)|samples|perf vs no-sampling MEMTIS");
    for bench in Benchmark::ALL {
        let (run, free) = (out.next(), out.next());
        let p = run.memtis();
        table.row(vec![
            bench.name().to_string(),
            MemtisConfig::sim_scaled().load_period.to_string(),
            p.load_period.to_string(),
            format!("{:.2}%", p.stats.cpu_usage_ema * 100.0),
            p.stats.samples.to_string(),
            format!(
                "{:+.2}%",
                (free.report.wall_ns / run.report.wall_ns - 1.0) * -100.0
            ),
        ]);
    }
    emit(
        "overhead_tracking",
        "ksampled dynamic period + CPU budget (paper §6.3.5: avg 2.016% CPU, 0.922% overhead)",
        &table,
    );
    let (base, r) = (out.next(), out.next());
    println!(
        "654.roms 1:16 normalized (placement+overhead combined): {:.3}",
        normalized(&base.report, &r.report)
    );
}

/// §8 extension — hybrid page-table scanning + PEBS sampling, which the
/// paper proposes for telling rarely accessed pages from never-accessed
/// ones: MEMTIS with and without it at 1:8, the pages the scan supplements
/// and the extra daemon cost.
fn ext_hybrid_scan(runner: &mut Runner, n: u64) {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        cells.extend([
            Cell::new(bench, nvm(Ratio::DEFAULT), MemtisConfig::sim_scaled(), n),
            Cell::new(
                bench,
                nvm(Ratio::DEFAULT),
                MemtisConfig::sim_scaled().with_hybrid_scan(16),
                n,
            ),
        ]);
    }
    let mut out = Outcomes::of(runner, &cells);
    let mut table = new_table("benchmark|base wall (ms)|hybrid wall (ms)|perf delta|scan-supplemented pages|extra daemon (ms)");
    for bench in Benchmark::ALL {
        let (base, hybrid) = (out.next(), out.next());
        let (b, h) = (&base.report, &hybrid.report);
        table.row(vec![
            bench.name().to_string(),
            format!("{:.2}", b.wall_ns / 1e6),
            format!("{:.2}", h.wall_ns / 1e6),
            format!("{:+.2}%", (b.wall_ns / h.wall_ns - 1.0) * 100.0),
            hybrid.memtis().stats.scan_supplements.to_string(),
            format!("{:.2}", (h.daemon_ns - b.daemon_ns) / 1e6),
        ]);
    }
    emit(
        "ext_hybrid_scan",
        "§8 extension: PT scanning supplementing PEBS (future work, off by default)",
        &table,
    );
}

/// Migration interference — demand accesses vs the asynchronous engine.
/// First, Btree under a tightening per-link bandwidth cap: promotions
/// arrive late and demand accesses keep paying capacity-tier latency.
/// Second, MEMTIS's in-flight cancellation ablated under a tight cap on a
/// drifting hot set: a promotion for the old Zipf head cools mid-flight,
/// and letting it finish wastes a copy that must later be demoted again.
fn migration_interference(runner: &mut Runner, n: u64) {
    const BW_CAPS: [Option<f64>; 5] = [None, Some(64.0), Some(16.0), Some(4.0), Some(1.0)];
    /// Ablation cap: a huge-page pass takes ~262 us — long enough to span
    /// many `kmigrated` wakeups (so cooling can catch a transfer
    /// mid-flight), short enough that transfers still complete.
    const TIGHT_BW: f64 = 8.0;
    let bench = Benchmark::Btree;
    let capped = |cell: Cell, cap| {
        let driver = DriverConfig {
            migration_bw: cap,
            ..cell.driver.clone()
        };
        Cell { driver, ..cell }
    };
    // A drifting hot set is what makes cancellation matter. Loads only:
    // stores would dirty-abort the in-flight copies before the drift has a
    // chance to cool them, hiding the cancellation effect.
    let drifting = Workload::Synth(
        SynthBuilder::new("drifting-zipf")
            .footprint(64 << 20)
            .zipf(1.2)
            .phases(16)
            .drift(0.5)
            .stores(0.0),
    );
    let variants = [
        ("cancel in-flight", MemtisConfig::sim_scaled()),
        (
            "no-cancel ablation",
            MemtisConfig::sim_scaled().without_inflight_cancel(),
        ),
    ];
    let mut cells: Vec<Cell> = BW_CAPS
        .iter()
        .map(|&cap| {
            let cell = Cell::new(bench, nvm(Ratio::DEFAULT), MemtisConfig::sim_scaled(), n);
            capped(cell, cap)
        })
        .collect();
    cells.extend(variants.iter().map(|(_, cfg)| {
        let cell = Cell::new(drifting.clone(), nvm(Ratio::DEFAULT), cfg.clone(), n);
        capped(cell, Some(TIGHT_BW))
    }));
    let mut out = Outcomes::of(runner, &cells);

    let mut sweep =
        new_table("bw (B/ns)|avg demand lat (ns)|fast-hit %|promo 4K|aborted|inflight pk");
    for cap in BW_CAPS {
        let o = out.next();
        let r = &o.report;
        sweep.row(vec![
            cap.map_or("instant".to_string(), |b| format!("{b}")),
            format!("{:.1}", r.app_access_ns / r.accesses as f64),
            format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
            r.stats.migration.promoted_4k.to_string(),
            r.stats.migration.aborted.to_string(),
            r.stats.migration.in_flight_peak.to_string(),
        ]);
    }
    emit(
        "migration_interference",
        &format!(
            "{}: demand latency vs migration-link bandwidth cap",
            bench.name()
        ),
        &sweep,
    );

    let mut ablation = new_table(
        "variant|avg demand lat (ns)|fast-hit %|cancels|aborted copy (KB)|promo 4K|demo 4K",
    );
    for (label, _) in variants {
        let o = out.next();
        let r = &o.report;
        ablation.row(vec![
            label.to_string(),
            format!("{:.1}", r.app_access_ns / r.accesses as f64),
            format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
            o.memtis().stats.inflight_cancels.to_string(),
            (r.stats.migration.aborted_bytes >> 10).to_string(),
            r.stats.migration.promoted_4k.to_string(),
            r.stats.migration.demoted_4k.to_string(),
        ]);
    }
    emit(
        "migration_cancel_ablation",
        &format!("drifting-zipf: in-flight cancellation vs no-cancel at {TIGHT_BW} B/ns"),
        &ablation,
    );
}
