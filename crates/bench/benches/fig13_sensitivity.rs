//! Figure 13 — sensitivity to the threshold-adaptation and cooling
//! intervals (2:1 configuration).
//!
//! Each interval is swept from one tenth of its default to ten times it;
//! performance is normalized to the default setting. The paper finds
//! MEMTIS robustly insensitive except at the largest adaptation interval,
//! where the hot set identified over the over-long window can exceed small
//! fast tiers.

use memtis_bench::{geomean, machine_for, run_default, CapacityKind, Ratio, Table};
use memtis_core::{MemtisConfig, MemtisPolicy};
use memtis_workloads::{Benchmark, Scale};

fn run_with(bench: Benchmark, cfg: MemtisConfig) -> f64 {
    let scale = Scale::DEFAULT;
    let machine = machine_for(bench, scale, Ratio::TWO_TO_ONE, CapacityKind::Nvm);
    let r = run_default(
        bench,
        scale,
        machine,
        MemtisPolicy::new(cfg),
        memtis_bench::access_budget(),
    )
    .0;
    r.wall_ns
}

fn main() {
    let factors: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 10.0];
    let default = MemtisConfig::sim_scaled();

    for (axis, label) in [(0, "adaptation interval"), (1, "cooling interval")] {
        let mut header: Vec<String> = vec!["benchmark".into()];
        header.extend(factors.iter().map(|f| format!("{f}x")));
        let mut table = Table::new(header);
        let mut per_factor: Vec<Vec<f64>> = vec![Vec::new(); factors.len()];

        for bench in Benchmark::ALL {
            let base_wall = run_with(bench, default.clone());
            let mut row = vec![bench.name().to_string()];
            for (fi, &f) in factors.iter().enumerate() {
                let wall = if (f - 1.0).abs() < 1e-9 {
                    base_wall
                } else {
                    let mut cfg = default.clone();
                    if axis == 0 {
                        cfg.adapt_interval = ((cfg.adapt_interval as f64 * f) as u64).max(100);
                    } else {
                        cfg.cooling_interval =
                            ((cfg.cooling_interval as f64 * f) as u64).max(1_000);
                    }
                    run_with(bench, cfg)
                };
                let norm = base_wall / wall;
                per_factor[fi].push(norm);
                row.push(format!("{norm:.3}"));
            }
            table.row(row);
        }
        let mut geo = vec!["geomean".to_string()];
        for v in &per_factor {
            geo.push(format!("{:.3}", geomean(v)));
        }
        table.row(geo);
        memtis_bench::emit(
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
