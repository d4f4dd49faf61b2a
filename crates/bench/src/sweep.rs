//! Parallel experiment sweep runner.
//!
//! Fans a (policy × workload × ratio × seed) matrix across
//! `std::thread::scope` workers. Each cell owns its `Machine`, policy, and
//! workload stream, so there is no shared mutable state between cells —
//! parallel execution is bit-identical to serial execution:
//!
//! - every cell derives its workload seed deterministically from the cell
//!   *coordinates* (FNV-1a over policy/benchmark/ratio/kind/seed-index
//!   mixed with the global [`SEED`]), never from scheduling order;
//! - workers pull cell indices from an atomic counter and write results
//!   into per-cell slots, so the merged report is ordered by matrix index
//!   regardless of which worker finished first.
//!
//! The merged output is a [`Table`] (text + CSV via [`emit`]) plus a
//! `BENCH_<name>.json` perf record (aggregate simulator events/sec, per-job
//! scaling efficiency) via [`emit_bench_json`].

use crate::harness::{machine_for, run_cell, CapacityKind, Ratio, SnapshotOpts, System, SEED};
use crate::report::{emit, emit_bench_json, Table};
use memtis_sim::prelude::{DriverConfig, Fnv1a, NopObserver, RunReport};
use memtis_workloads::{Benchmark, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One cell of the sweep matrix.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// Tiering system under test.
    pub system: System,
    /// Workload.
    pub bench: Benchmark,
    /// Fast:capacity tiering ratio.
    pub ratio: Ratio,
    /// Capacity-tier memory kind.
    pub kind: CapacityKind,
    /// Seed replica index (0-based) for multi-seed sweeps.
    pub seed_index: u32,
}

impl SweepCell {
    /// Deterministic per-cell workload seed, derived from the cell
    /// coordinates so it is independent of matrix order and scheduling.
    /// The mix order is frozen (seeds are part of the recorded results):
    /// global seed, system, benchmark, ratio, kind, replica index.
    pub fn seed(&self) -> u64 {
        Fnv1a::new()
            .mix_u64(SEED)
            .mix_str(self.system.name())
            .mix_str(self.bench.name())
            .mix_u32(self.ratio.fast)
            .mix_u32(self.ratio.capacity)
            .mix_bytes(&[matches!(self.kind, CapacityKind::Cxl) as u8])
            .mix_u32(self.seed_index)
            .finish()
    }

    /// Short display label like `MEMTIS/roms@1:8#0`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}@{}#{}",
            self.system.name(),
            self.bench.name(),
            self.ratio.label(),
            self.seed_index
        )
    }
}

/// Builds the full cross-product matrix.
pub fn matrix(
    systems: &[System],
    benches: &[Benchmark],
    ratios: &[Ratio],
    kind: CapacityKind,
    seeds: u32,
) -> Vec<SweepCell> {
    let mut cells =
        Vec::with_capacity(systems.len() * benches.len() * ratios.len() * seeds as usize);
    for &system in systems {
        for &bench in benches {
            for &ratio in ratios {
                for seed_index in 0..seeds {
                    cells.push(SweepCell {
                        system,
                        bench,
                        ratio,
                        kind,
                        seed_index,
                    });
                }
            }
        }
    }
    cells
}

/// Sweep execution parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads (clamped to at least 1 and at most the cell count).
    pub jobs: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Access budget per cell.
    pub accesses: u64,
    /// Driver config every cell runs with. With `shards` set, each cell
    /// runs up to that many threads, so the host runs up to
    /// `jobs x shards`; results are byte-identical for every value.
    pub driver: DriverConfig,
}

/// One finished cell.
#[derive(Debug)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: SweepCell,
    /// The run report.
    pub report: RunReport,
}

/// A finished sweep: per-cell results in matrix order plus wall-clock
/// accounting for the scaling measurement.
#[derive(Debug)]
pub struct SweepResult {
    /// Results, ordered by matrix index (scheduling-independent).
    pub cells: Vec<CellResult>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Host wall-clock for the whole sweep (ns).
    pub host_elapsed_ns: u64,
}

impl SweepResult {
    /// Sum of per-cell host run times (ns) — the serial-equivalent work.
    pub fn cell_host_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.report.host_elapsed_ns).sum()
    }

    /// Observed speedup over serial execution of the same cells.
    pub fn speedup(&self) -> f64 {
        if self.host_elapsed_ns == 0 {
            0.0
        } else {
            self.cell_host_ns() as f64 / self.host_elapsed_ns as f64
        }
    }

    /// Scaling efficiency: speedup divided by worker count.
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.jobs.max(1) as f64
    }

    /// Aggregate simulator self-throughput (events/sec of sweep wall time).
    pub fn events_per_sec(&self) -> f64 {
        if self.host_elapsed_ns == 0 {
            return 0.0;
        }
        let events: u64 = self.cells.iter().map(|c| c.report.sim_events).sum();
        events as f64 / (self.host_elapsed_ns as f64 * 1e-9)
    }
}

/// Runs one cell (helper shared by the parallel runner and tests).
pub fn run_sweep_cell(cell: SweepCell, cfg: &SweepConfig) -> RunReport {
    let machine = machine_for(cell.bench, cfg.scale, cell.ratio, cell.kind);
    run_cell(
        cell.bench,
        cfg.scale,
        machine,
        cell.system.build(),
        NopObserver,
        cfg.driver.clone(),
        cfg.accesses,
        cell.seed(),
        &SnapshotOpts::default(),
    )
    .expect("experiment run failed")
    .0
}

/// Runs the matrix across `cfg.jobs` scoped worker threads.
pub fn run_sweep(cells: &[SweepCell], cfg: &SweepConfig) -> SweepResult {
    let jobs = cfg.jobs.max(1).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> =
        (0..cells.len()).map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&cell) = cells.get(i) else { break };
                let report = run_sweep_cell(cell, cfg);
                *slots[i].lock().expect("result slot poisoned") = Some(CellResult { cell, report });
            });
        }
    });
    let host_elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let results = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker loop covers every index")
        })
        .collect();
    SweepResult {
        cells: results,
        jobs,
        host_elapsed_ns,
    }
}

/// Renders the merged per-cell table.
pub fn sweep_table(result: &SweepResult) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "workload",
        "ratio",
        "kind",
        "seed",
        "wall_ms",
        "Macc/s",
        "fast-hit %",
        "aborted",
        "recopies",
        "wasted_MB",
        "backoffs",
        "shdw_free",
        "inflight_pk",
        "host events/s",
    ]);
    for c in &result.cells {
        let r = &c.report;
        let mig = &r.stats.migration;
        t.row(vec![
            c.cell.system.name().to_string(),
            c.cell.bench.name().to_string(),
            c.cell.ratio.label(),
            match c.cell.kind {
                CapacityKind::Nvm => "NVM".to_string(),
                CapacityKind::Cxl => "CXL".to_string(),
            },
            format!("{:#x}", c.cell.seed()),
            format!("{:.2}", r.wall_ns / 1e6),
            format!("{:.2}", r.throughput() / 1e6),
            format!("{:.1}", r.stats.fast_tier_hit_ratio() * 100.0),
            mig.aborted.to_string(),
            mig.recopies.to_string(),
            format!("{:.2}", mig.aborted_bytes as f64 / (1u64 << 20) as f64),
            mig.promotion_backoffs.to_string(),
            mig.shadow_free_demotions_4k.to_string(),
            mig.in_flight_peak.to_string(),
            format!("{:.0}", r.self_events_per_sec()),
        ]);
    }
    t
}

/// Renders the per-cell telemetry window series: one row per (cell,
/// window), carrying the shared collector's rHR/eHR, throughput, and
/// migration-bandwidth samples into the merged report.
pub fn windows_table(result: &SweepResult) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "workload",
        "ratio",
        "seed",
        "window",
        "wall_ms",
        "Macc/s",
        "fast-hit %",
        "rhr",
        "ehr",
        "mig MB/s",
    ]);
    for c in &result.cells {
        for w in &c.report.windows {
            t.row(vec![
                c.cell.system.name().to_string(),
                c.cell.bench.name().to_string(),
                c.cell.ratio.label(),
                c.cell.seed_index.to_string(),
                w.index.to_string(),
                format!("{:.2}", w.wall_ns / 1e6),
                format!("{:.2}", w.window_throughput / 1e6),
                format!("{:.1}", w.fast_hit_ratio * 100.0),
                format!("{:.4}", w.rhr),
                format!("{:.4}", w.ehr),
                format!("{:.2}", w.migration_bw / 1e6),
            ]);
        }
    }
    t
}

/// Emits the merged table (text + CSV) and the `BENCH_<name>.json` perf
/// record, and prints the scaling summary.
pub fn emit_sweep(name: &str, result: &SweepResult) {
    let table = sweep_table(result);
    emit(name, "parallel experiment sweep", &table);
    let windows = windows_table(result);
    if !windows.is_empty() {
        emit(
            &format!("{name}_windows"),
            "per-cell telemetry window series",
            &windows,
        );
    }
    let elapsed_s = result.host_elapsed_ns as f64 * 1e-9;
    println!(
        "sweep: {} cells, {} jobs, {:.2}s wall, speedup {:.2}x, efficiency {:.2}, {:.0} events/s",
        result.cells.len(),
        result.jobs,
        elapsed_s,
        result.speedup(),
        result.efficiency(),
        result.events_per_sec(),
    );
    emit_bench_json(
        name,
        &[
            ("cells".to_string(), result.cells.len() as f64),
            ("jobs".to_string(), result.jobs as f64),
            ("host_elapsed_s".to_string(), elapsed_s),
            (
                "cell_host_s_total".to_string(),
                result.cell_host_ns() as f64 * 1e-9,
            ),
            ("speedup".to_string(), result.speedup()),
            ("efficiency".to_string(), result.efficiency()),
            ("events_per_sec".to_string(), result.events_per_sec()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::driver_config_with_window;

    fn tiny_cfg(jobs: usize) -> SweepConfig {
        SweepConfig {
            jobs,
            scale: Scale::TEST,
            accesses: 4_000,
            driver: driver_config_with_window(1_000),
        }
    }

    fn tiny_matrix() -> Vec<SweepCell> {
        matrix(
            &[System::Memtis, System::Tpp],
            &[Benchmark::Roms, Benchmark::Btree],
            &[Ratio::DEFAULT],
            CapacityKind::Nvm,
            1,
        )
    }

    #[test]
    fn matrix_is_full_cross_product() {
        let cells = matrix(
            &[System::Memtis, System::Tpp],
            &[Benchmark::Roms],
            &Ratio::MAIN,
            CapacityKind::Nvm,
            2,
        );
        // 2 systems x 1 benchmark x 3 ratios x 2 seeds.
        assert_eq!(cells.len(), 12);
    }

    #[test]
    fn cell_seeds_are_distinct_and_coordinate_stable() {
        let cells = tiny_matrix();
        let seeds: Vec<u64> = cells.iter().map(SweepCell::seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision: {seeds:?}");
        // The seed depends only on coordinates, not matrix position.
        let reordered: Vec<SweepCell> = cells.iter().rev().copied().collect();
        let rev_seeds: Vec<u64> = reordered.iter().map(SweepCell::seed).collect();
        assert_eq!(seeds.iter().rev().copied().collect::<Vec<_>>(), rev_seeds);
    }

    #[test]
    fn cell_seed_matches_frozen_inline_fnv() {
        // The seed derivation moved onto `Fnv1a`; recorded sweep results
        // depend on these values, so pin them against the original inline
        // byte-wise implementation.
        let legacy = |cell: &SweepCell| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            mix(&SEED.to_le_bytes());
            mix(cell.system.name().as_bytes());
            mix(cell.bench.name().as_bytes());
            mix(&cell.ratio.fast.to_le_bytes());
            mix(&cell.ratio.capacity.to_le_bytes());
            mix(&[matches!(cell.kind, CapacityKind::Cxl) as u8]);
            mix(&cell.seed_index.to_le_bytes());
            h
        };
        for kind in [CapacityKind::Nvm, CapacityKind::Cxl] {
            for cell in matrix(
                &[System::Memtis, System::Hemem],
                &[Benchmark::Roms, Benchmark::Btree],
                &Ratio::MAIN,
                kind,
                2,
            ) {
                assert_eq!(cell.seed(), legacy(&cell), "seed drifted: {}", cell.label());
            }
        }
    }

    #[test]
    fn sharded_cells_are_shard_count_invariant() {
        // `shards: Some(1)` is the sharded pipeline's serial oracle (the
        // sharded path hoists tick boundaries to burst granularity, so it is
        // compared against itself across thread counts, not against `None`).
        let cells = tiny_matrix()[..1].to_vec();
        let mut cfg = tiny_cfg(1);
        cfg.driver.shards = Some(1);
        let base = run_sweep(&cells, &cfg);
        for shards in [2usize, 4] {
            cfg.driver.shards = Some(shards);
            let sharded = run_sweep(&cells, &cfg);
            let (a, b) = (&base.cells[0].report, &sharded.cells[0].report);
            assert_eq!(a.wall_ns.to_bits(), b.wall_ns.to_bits());
            assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(a.windows, b.windows);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_exactly() {
        let cells = tiny_matrix();
        let serial = run_sweep(&cells, &tiny_cfg(1));
        let parallel = run_sweep(&cells, &tiny_cfg(2));
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.cell.label(), b.cell.label());
            assert_eq!(a.report.wall_ns.to_bits(), b.report.wall_ns.to_bits());
            assert_eq!(a.report.accesses, b.report.accesses);
            assert_eq!(
                format!("{:?}", a.report.stats),
                format!("{:?}", b.report.stats)
            );
            // The telemetry window series must also be scheduling-independent.
            assert_eq!(a.report.windows, b.report.windows);
            assert!(!a.report.windows.is_empty());
        }
    }

    #[test]
    fn windows_table_has_a_row_per_window() {
        let cells = tiny_matrix()[..1].to_vec();
        let r = run_sweep(&cells, &tiny_cfg(1));
        let expected: usize = r.cells.iter().map(|c| c.report.windows.len()).sum();
        assert!(expected > 0);
        let t = windows_table(&r);
        assert_eq!(t.len(), expected);
    }

    #[test]
    fn jobs_clamped_to_cell_count() {
        let cells = tiny_matrix()[..1].to_vec();
        let r = run_sweep(&cells, &tiny_cfg(16));
        assert_eq!(r.jobs, 1);
        assert_eq!(r.cells.len(), 1);
        assert!(r.cells[0].report.sim_events > 0);
        let t = sweep_table(&r);
        assert_eq!(t.len(), 1);
    }
}
