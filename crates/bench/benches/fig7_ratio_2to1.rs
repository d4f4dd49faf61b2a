//! Figure 7 — the 2:1 configuration (Meta's production target, §6.2.8).
//!
//! TPP was designed for this regime. The paper shows MEMTIS comparable to
//! all-DRAM except on the SPEC benchmarks, and ahead of TPP by 6.1–33.3%
//! when the sampled-page footprint exceeds the fast tier.

use memtis_bench::{
    access_budget, driver_config, machine_all_fast, normalized, run_baseline, run_cell,
    run_default, run_system, CapacityKind, Ratio, SnapshotOpts, System, Table, SEED,
};
use memtis_sim::prelude::{DriverConfig, NopObserver};
use memtis_workloads::{Benchmark, Scale};

fn main() {
    let scale = Scale::DEFAULT;
    let ratio = Ratio::TWO_TO_ONE;
    let mut table = Table::new(vec![
        "benchmark",
        "All-DRAM w/ THP",
        "All-DRAM w/o THP",
        "TPP",
        "MEMTIS",
        "memtis vs tpp",
    ]);
    for bench in Benchmark::ALL {
        let base = run_baseline(bench, scale, CapacityKind::Nvm, access_budget());
        let dram_thp = run_default(
            bench,
            scale,
            machine_all_fast(bench, scale),
            System::AllDram.build(),
            memtis_bench::access_budget(),
        )
        .0;
        let dram_nothp = run_cell(
            bench,
            scale,
            machine_all_fast(bench, scale),
            System::AllDram.build(),
            NopObserver,
            DriverConfig {
                thp_enabled: false,
                ..driver_config()
            },
            memtis_bench::access_budget(),
            SEED,
            &SnapshotOpts::default(),
        )
        .expect("experiment run failed")
        .0;
        let tpp = run_system(bench, scale, ratio, CapacityKind::Nvm, System::Tpp);
        let memtis = run_system(bench, scale, ratio, CapacityKind::Nvm, System::Memtis);
        let (nd, ndn, nt, nm) = (
            normalized(&base, &dram_thp),
            normalized(&base, &dram_nothp),
            normalized(&base, &tpp),
            normalized(&base, &memtis),
        );
        table.row(vec![
            bench.name().to_string(),
            format!("{nd:.3}"),
            format!("{ndn:.3}"),
            format!("{nt:.3}"),
            format!("{nm:.3}"),
            format!("{:+.1}%", (nm / nt - 1.0) * 100.0),
        ]);
    }
    memtis_bench::emit(
        "fig7_ratio_2to1",
        "2:1 fast:capacity configuration vs TPP and all-DRAM (paper Fig. 7)",
        &table,
    );
}
