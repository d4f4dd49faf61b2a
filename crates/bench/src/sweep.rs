//! Parallel experiment sweep runner.
//!
//! Fans a list of [`Cell`]s — the `sweep` binary's (policy × workload ×
//! ratio × seed) matrix, or the cells a paper figure requests — across
//! `std::thread::scope` workers, running each distinct cell once. Each run
//! owns its `Machine`, policy, and workload stream, so there is no shared
//! mutable state between runs — parallel execution is bit-identical to
//! serial execution:
//!
//! - every matrix cell derives its workload seed deterministically from its
//!   *coordinates* ([`coordinate_seed`]: FNV-1a over
//!   policy/benchmark/ratio/kind/replica mixed with the global [`SEED`]),
//!   never from scheduling order;
//! - workers pull run indices from an atomic counter and write outcomes
//!   into per-run slots, so the merged report is ordered by request index
//!   regardless of which worker finished first.
//!
//! The merged output is a [`Table`] (text + CSV via [`emit`]) plus a
//! `BENCH_<name>.json` perf record (aggregate simulator events/sec, per-job
//! scaling efficiency) via [`emit_bench_json`].

use crate::harness::{CapacityKind, Ratio, System, SEED};
use crate::paper::{Cell, MachineSpec, Outcome};
use crate::report::{emit, emit_bench_json, Table};
use memtis_sim::prelude::{DriverConfig, Fnv1a};
use memtis_workloads::{Benchmark, Scale};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deterministic workload seed of a matrix cell, derived from its
/// coordinates so it is independent of matrix order and scheduling. The mix
/// order is frozen (seeds are part of the recorded results): global seed,
/// system, benchmark, ratio, kind, replica index.
pub fn coordinate_seed(
    system: System,
    bench: Benchmark,
    ratio: Ratio,
    kind: CapacityKind,
    replica: u32,
) -> u64 {
    Fnv1a::new()
        .mix_u64(SEED)
        .mix_str(system.name())
        .mix_str(bench.name())
        .mix_u32(ratio.fast)
        .mix_u32(ratio.capacity)
        .mix_bytes(&[matches!(kind, CapacityKind::Cxl) as u8])
        .mix_u32(replica)
        .finish()
}

/// What every matrix cell runs with.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload scale.
    pub scale: Scale,
    /// Access budget per cell.
    pub accesses: u64,
    /// Driver config every cell runs with. Each cell runs on one thread
    /// whatever its `shards`, so the host runs up to `jobs` threads;
    /// results are byte-identical for every value.
    pub driver: DriverConfig,
}

/// Builds the full (system x benchmark x ratio x seed replica) cross
/// product, each cell seeded by [`coordinate_seed`].
pub fn matrix(
    systems: &[System],
    benches: &[Benchmark],
    ratios: &[Ratio],
    kind: CapacityKind,
    seeds: u32,
    cfg: &SweepConfig,
) -> Vec<Cell> {
    let mut cells =
        Vec::with_capacity(systems.len() * benches.len() * ratios.len() * seeds as usize);
    for &system in systems {
        for &bench in benches {
            for &ratio in ratios {
                for replica in 0..seeds {
                    cells.push(Cell {
                        scale: cfg.scale,
                        driver: cfg.driver.clone(),
                        seed: coordinate_seed(system, bench, ratio, kind, replica),
                        replica,
                        ..Cell::new(
                            bench,
                            MachineSpec::Tiered(ratio, kind),
                            system,
                            cfg.accesses,
                        )
                    });
                }
            }
        }
    }
    cells
}

/// One requested cell and its outcome.
#[derive(Debug)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Its outcome, shared with every other request of the same run.
    pub outcome: Arc<Outcome>,
}

/// A finished sweep: per-cell results in request order plus wall-clock
/// accounting for the scaling measurement.
#[derive(Debug)]
pub struct SweepResult {
    /// Results, ordered by request index (scheduling-independent).
    pub cells: Vec<CellResult>,
    /// One outcome per distinct cell, each executed once.
    pub runs: Vec<Arc<Outcome>>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Host wall-clock for the whole sweep (ns).
    pub host_elapsed_ns: u64,
}

impl SweepResult {
    /// Sum of per-run host times (ns) — the serial-equivalent work.
    pub fn cell_host_ns(&self) -> u64 {
        self.runs.iter().map(|o| o.report.host_elapsed_ns).sum()
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
        let events: u64 = self.runs.iter().map(|o| o.report.sim_events).sum();
        events as f64 / (self.host_elapsed_ns as f64 * 1e-9)
    }
}

/// Runs each distinct cell once across `jobs` scoped worker threads (at
/// most one per distinct cell); repeated cells share the first request's
/// outcome.
pub fn run_sweep(cells: &[Cell], jobs: usize) -> SweepResult {
    let mut first: HashMap<String, usize> = HashMap::new();
    let mut distinct: Vec<&Cell> = Vec::new();
    let slot_of: Vec<usize> = cells
        .iter()
        .map(|c| {
            *first.entry(c.key()).or_insert_with(|| {
                distinct.push(c);
                distinct.len() - 1
            })
        })
        .collect();
    let jobs = jobs.max(1).min(distinct.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> =
        (0..distinct.len()).map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = distinct.get(i) else { break };
                let outcome = cell.run().expect("experiment run failed");
                *slots[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    let host_elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let runs: Vec<Arc<Outcome>> = slots
        .into_iter()
        .map(|s| {
            Arc::new(
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker loop covers every index"),
            )
        })
        .collect();
    let results = cells
        .iter()
        .zip(slot_of)
        .map(|(cell, slot)| CellResult {
            cell: cell.clone(),
            outcome: Arc::clone(&runs[slot]),
        })
        .collect();
    SweepResult {
        cells: results,
        runs,
        jobs,
        host_elapsed_ns,
    }
}

/// `(ratio, kind)` labels of a tiered cell; `-` for other machines.
fn tier_labels(cell: &Cell) -> (String, &'static str) {
    match cell.machine {
        MachineSpec::Tiered(ratio, CapacityKind::Nvm) => (ratio.label(), "NVM"),
        MachineSpec::Tiered(ratio, CapacityKind::Cxl) => (ratio.label(), "CXL"),
        _ => ("-".to_string(), "-"),
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
        let r = &c.outcome.report;
        let mig = &r.stats.migration;
        let (ratio, kind) = tier_labels(&c.cell);
        t.row(vec![
            c.cell.policy.name().to_string(),
            c.cell.workload.name(),
            ratio,
            kind.to_string(),
            format!("{:#x}", c.cell.seed),
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
        for w in &c.outcome.report.windows {
            t.row(vec![
                c.cell.policy.name().to_string(),
                c.cell.workload.name(),
                tier_labels(&c.cell).0,
                c.cell.replica.to_string(),
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
    use memtis_core::MemtisConfig;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scale: Scale::TEST,
            accesses: 4_000,
            driver: driver_config_with_window(1_000),
        }
    }

    fn tiny_matrix() -> Vec<Cell> {
        matrix(
            &[System::Memtis, System::Tpp],
            &[Benchmark::Roms, Benchmark::Btree],
            &[Ratio::DEFAULT],
            CapacityKind::Nvm,
            1,
            &tiny_cfg(),
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
            &tiny_cfg(),
        );
        // 2 systems x 1 benchmark x 3 ratios x 2 seeds.
        assert_eq!(cells.len(), 12);
    }

    #[test]
    fn cell_seeds_are_distinct_and_coordinate_stable() {
        let cells = tiny_matrix();
        let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision: {seeds:?}");
        // The seed depends only on coordinates, not matrix position.
        let reordered = matrix(
            &[System::Tpp, System::Memtis],
            &[Benchmark::Btree, Benchmark::Roms],
            &[Ratio::DEFAULT],
            CapacityKind::Nvm,
            1,
            &tiny_cfg(),
        );
        let rev_seeds: Vec<u64> = reordered.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.iter().rev().copied().collect::<Vec<_>>(), rev_seeds);
    }

    #[test]
    fn cell_seed_matches_frozen_inline_fnv() {
        // The seed derivation moved onto `Fnv1a`; recorded sweep results
        // depend on these values, so pin them against the original inline
        // byte-wise implementation.
        let legacy = |system: System, bench: Benchmark, ratio: Ratio, kind, replica: u32| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            mix(&SEED.to_le_bytes());
            mix(system.name().as_bytes());
            mix(bench.name().as_bytes());
            mix(&ratio.fast.to_le_bytes());
            mix(&ratio.capacity.to_le_bytes());
            mix(&[matches!(kind, CapacityKind::Cxl) as u8]);
            mix(&replica.to_le_bytes());
            h
        };
        for kind in [CapacityKind::Nvm, CapacityKind::Cxl] {
            for system in [System::Memtis, System::Hemem] {
                for bench in [Benchmark::Roms, Benchmark::Btree] {
                    for ratio in Ratio::MAIN {
                        for replica in 0..2 {
                            assert_eq!(
                                coordinate_seed(system, bench, ratio, kind, replica),
                                legacy(system, bench, ratio, kind, replica),
                                "seed drifted: {}/{}@{}#{replica}",
                                system.name(),
                                bench.name(),
                                ratio.label(),
                            );
                        }
                    }
                }
            }
        }
        let cells = matrix(
            &[System::Hemem],
            &[Benchmark::Btree],
            &[Ratio::DEFAULT],
            CapacityKind::Cxl,
            2,
            &tiny_cfg(),
        );
        let want = |replica| {
            legacy(
                System::Hemem,
                Benchmark::Btree,
                Ratio::DEFAULT,
                CapacityKind::Cxl,
                replica,
            )
        };
        assert_eq!((cells[0].seed, cells[1].seed), (want(0), want(1)));
    }

    #[test]
    fn sharded_cells_are_shard_count_invariant() {
        // `shards: Some(1)` is the sharded pipeline's serial oracle (the
        // sharded path hoists tick boundaries to burst granularity, so it is
        // compared against itself across thread counts, not against `None`).
        let mut cell = tiny_matrix()[0].clone();
        cell.driver.shards = Some(1);
        let base = run_sweep(&[cell.clone()], 1);
        for shards in [2usize, 4] {
            cell.driver.shards = Some(shards);
            let sharded = run_sweep(&[cell.clone()], 1);
            let (a, b) = (&base.runs[0].report, &sharded.runs[0].report);
            assert_eq!(a.wall_ns.to_bits(), b.wall_ns.to_bits());
            assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(a.windows, b.windows);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_exactly() {
        // Besides the matrix: a repeat of its first cell, which must run
        // once, and a policy-config variant of it, which must not fold
        // into it.
        let mut cells = tiny_matrix();
        let variant = Cell {
            policy: MemtisConfig::sim_scaled().without_split().into(),
            ..cells[0].clone()
        };
        cells.extend([cells[0].clone(), variant]);
        let serial = run_sweep(&cells, 1);
        let parallel = run_sweep(&cells, 2);
        for r in [&serial, &parallel] {
            assert_eq!(r.cells.len(), cells.len());
            assert_eq!(r.runs.len(), cells.len() - 1, "the repeat runs once");
            assert!(Arc::ptr_eq(&r.cells[0].outcome, &r.cells[4].outcome));
            assert!(!Arc::ptr_eq(&r.cells[0].outcome, &r.cells[5].outcome));
        }
        for (a, b) in serial.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.cell.key(), b.cell.key());
            let (a, b) = (&a.outcome.report, &b.outcome.report);
            assert_eq!(a.wall_ns.to_bits(), b.wall_ns.to_bits());
            assert_eq!(a.accesses, b.accesses);
            assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
            // The telemetry window series must also be scheduling-independent.
            assert_eq!(a.windows, b.windows);
            assert!(!a.windows.is_empty());
        }
        for (a, b) in serial.runs.iter().zip(parallel.runs.iter()) {
            assert_eq!(format!("{:?}", a.readout), format!("{:?}", b.readout));
        }
    }

    #[test]
    fn windows_table_has_a_row_per_window() {
        let cells = tiny_matrix()[..1].to_vec();
        let r = run_sweep(&cells, 1);
        let expected: usize = r.runs.iter().map(|o| o.report.windows.len()).sum();
        assert!(expected > 0);
        let t = windows_table(&r);
        assert_eq!(t.len(), expected);
    }

    #[test]
    fn jobs_clamped_to_cell_count() {
        let cells = tiny_matrix()[..1].to_vec();
        let r = run_sweep(&cells, 16);
        assert_eq!(r.jobs, 1);
        assert_eq!(r.cells.len(), 1);
        assert!(r.runs[0].report.sim_events > 0);
        let t = sweep_table(&r);
        assert_eq!(t.len(), 1);
    }
}
