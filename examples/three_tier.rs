//! Three-tier machine: DRAM + CXL + NVM.
//!
//! The simulated machine supports any number of tiers; this example builds
//! a DRAM → CXL → NVM cascade and runs a small frequency-based cascade
//! policy over it, demonstrating that the substrate generalizes beyond the
//! paper's two-tier setting (its §6.4 only swaps the capacity tier).
//!
//! ```sh
//! cargo run --release --example three_tier
//! ```

use memtis_repro::sim::obs::{self, SnapFields};
use memtis_repro::sim::prelude::*;
use memtis_repro::tracking::pebs::PebsSampler;
use memtis_repro::workloads::{Benchmark, Scale, SpecStream};

/// A simple three-tier cascade: sampled hotness counts decide the target
/// tier; pages migrate one tier at a time in the background.
struct CascadePolicy {
    sampler: PebsSampler,
    counts: DetHashMap<VirtPage, (PageSize, u32)>,
    ticks: u32,
}

impl CascadePolicy {
    fn new() -> Self {
        CascadePolicy {
            sampler: PebsSampler::new(8, 1_000),
            counts: DetHashMap::default(),
            ticks: 0,
        }
    }

    fn target_tier(count: u32) -> TierId {
        match count {
            0..=1 => TierId(2), // NVM
            2..=7 => TierId(1), // CXL
            _ => TierId(0),     // DRAM
        }
    }
}

impl TieringPolicy for CascadePolicy {
    fn descriptor(&self) -> PolicyDescriptor {
        PolicyDescriptor {
            name: "Cascade-3T",
            mechanism: "HW-based sampling",
            subpage_tracking: false,
            promotion_metric: "Frequency",
            demotion_metric: "Frequency",
            thresholding: "Static bands",
            critical_path_migration: "None",
            page_size_handling: "None",
        }
    }

    fn alloc_tier(&mut self, ops: &mut PolicyOps<'_>, _vpage: VirtPage, size: PageSize) -> TierId {
        for t in 0..3u8 {
            if ops.free_bytes(TierId(t)) >= size.bytes() {
                return TierId(t);
            }
        }
        TierId(2)
    }

    fn on_alloc(
        &mut self,
        _ops: &mut PolicyOps<'_>,
        vpage: VirtPage,
        size: PageSize,
        _tier: TierId,
    ) {
        self.counts.insert(vpage, (size, 0));
    }

    fn on_free(&mut self, _ops: &mut PolicyOps<'_>, vpage: VirtPage, _size: PageSize) {
        self.counts.remove(&vpage);
    }

    fn on_access(&mut self, _ops: &mut PolicyOps<'_>, access: &Access, outcome: &AccessOutcome) {
        if let Some(sample) = self.sampler.observe(access, outcome) {
            let key = match outcome.page_size {
                PageSize::Huge => sample.vaddr.base_page().huge_aligned(),
                PageSize::Base => sample.vaddr.base_page(),
            };
            if let Some((_, c)) = self.counts.get_mut(&key) {
                *c += 1;
            }
        }
    }

    fn tick(&mut self, ops: &mut PolicyOps<'_>) {
        self.ticks += 1;
        // Every few wakeups: move each page one step toward its band and
        // decay counts (a crude EMA).
        if !self.ticks.is_multiple_of(8) {
            return;
        }
        // Page order, not hash order: a restored map has a different
        // layout, and the budget makes the visiting order observable.
        let mut entries: Vec<(VirtPage, PageSize, u32)> =
            self.counts.iter().map(|(&v, &(s, c))| (v, s, c)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        let mut budget: u64 = 8 << 20;
        for (vpage, size, count) in entries {
            if budget < size.bytes() {
                break;
            }
            let Some((cur, s)) = ops.locate(vpage) else {
                continue;
            };
            if s != size {
                continue;
            }
            let want = Self::target_tier(count);
            if want == cur {
                continue;
            }
            // One tier-step toward the target.
            let step = if want.0 < cur.0 { cur.0 - 1 } else { cur.0 + 1 };
            if ops.migrate(vpage, TierId(step)).is_ok() {
                budget -= size.bytes();
            }
        }
        for (_, c) in self.counts.values_mut() {
            *c /= 2;
        }
    }

    fn save_state(&self, w: &mut obs::SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(&mut self, r: &mut obs::SnapReader<'_>) -> Result<(), obs::SnapError> {
        self.load_fields(r)
    }
}

obs::snap_struct!(in CascadePolicy { sampler, counts, ticks });

fn main() {
    let bench = Benchmark::Silo;
    let rss = bench.spec(Scale::DEFAULT, 1).total_bytes();
    // DRAM : CXL : NVM = 1 : 2 : plenty.
    let cfg = MachineConfig {
        tiers: vec![
            TierSpec::dram(rss / 8),
            TierSpec::cxl(rss / 4),
            TierSpec::nvm(rss * 2),
        ],
        ..MachineConfig::dram_nvm(1 << 30, 1 << 30)
    }
    .with_bandwidth_scale(64.0);

    let driver = DriverConfig {
        tick_interval_ns: 20_000.0,
        timeline_interval_ns: 500_000.0,
        ..Default::default()
    };
    let mut wl = SpecStream::new(bench.spec(Scale::DEFAULT, 1_000_000), 3);
    let mut sim = Simulation::new(cfg, CascadePolicy::new(), driver);
    let r = sim.run(&mut wl).expect("run");

    println!("three-tier cascade on {}:", bench.name());
    println!("  wall time      : {:.2} ms", r.wall_ns / 1e6);
    println!("  throughput     : {:.1} M acc/s", r.throughput() / 1e6);
    let total: u64 = r.stats.tier_hits.iter().sum();
    for (i, label) in ["DRAM", "CXL", "NVM"].iter().enumerate() {
        let hits = r.stats.tier_hits.get(i).copied().unwrap_or(0);
        println!(
            "  {label:<5} share   : {:5.1}%  ({hits} LLC-missing accesses)",
            hits as f64 / total.max(1) as f64 * 100.0
        );
    }
    println!(
        "  migrations     : {} 4K pages across three tiers",
        r.stats.migration.traffic_4k()
    );
}
