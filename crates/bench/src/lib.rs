//! # memtis-bench — experiment harness for every paper table and figure
//!
//! Shared infrastructure for the binaries and the `paper` bench, which
//! regenerates every table and figure of the MEMTIS paper (see DESIGN.md §3
//! for the full index): `cargo bench -p memtis-bench --bench paper` for all
//! of them, `... --bench paper -- fig5 fig12` for a selection. The access
//! budget per run is controlled by the `MEMTIS_ACCESSES` environment
//! variable.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod paper;
pub mod plot;
pub mod report;
pub mod rundiff;
pub mod sweep;

pub use cli::RunFlags;
pub use harness::{
    access_budget, benchmark_from_name, driver_config, driver_config_with_window, geomean,
    machine_for, normalized, run_cell, run_snapshotted, write_snapshot, write_trace, CapacityKind,
    Ratio, SnapshotOpts, System, DEFAULT_WINDOW_EVENTS, SEED, TIME_COMPRESSION,
};
pub use paper::{Cell, MachineSpec, Outcome, PolicySpec, Runner, Workload};
pub use plot::{bar, sparkline};
pub use report::{emit, emit_bench_json, experiments_dir, Table};
pub use rundiff::{
    diff_reports, flatten, glob_match, parse_diff_args, render_diff, report_to_json, DiffOptions,
    DiffReport, DiffRow, REPORT_SCHEMA,
};
pub use sweep::{emit_sweep, matrix, run_sweep, windows_table, SweepConfig, SweepResult};
