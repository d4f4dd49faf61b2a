//! # memtis-sim — simulated tiered-memory machine
//!
//! User-space substrate standing in for the kernel/hardware stack the MEMTIS
//! paper (SOSP '23) was built on: per-tier physical frame allocators, a
//! page table with 2 MiB huge mappings, TLB and LLC models, a
//! migration engine, and a simulation driver that executes workload access
//! streams under a pluggable [`policy::TieringPolicy`].
//!
//! The cost model charges each access its address-translation cost (TLB hit,
//! or a 3-/4-level walk) plus its memory cost (LLC hit, or the owning tier's
//! load/store latency), and attributes policy work to either the application
//! critical path or background-daemon CPU — the distinction at the center of
//! the paper's analysis of prior tiering systems.
//!
//! ## Quick example
//!
//! ```
//! use memtis_sim::prelude::*;
//!
//! let cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 16 * HUGE_PAGE_SIZE);
//! let mut machine = Machine::new(cfg);
//! machine
//!     .alloc_and_map(VirtPage(0), PageSize::Huge, TierId::CAPACITY)
//!     .unwrap();
//! let out = machine.access(Access::load(0)).unwrap();
//! assert_eq!(out.tier, TierId::CAPACITY);
//! ```

#![forbid(unsafe_code)]

pub use memtis_obs as obs;

pub mod access;
pub mod addr;
pub mod cache;
pub mod config;
pub mod driver;
pub mod engine;
pub mod error;
pub mod faults;
pub mod machine;
pub mod modes;
pub mod page_table;
pub mod policy;
pub mod region_map;
pub mod shard;
pub mod stats;
pub mod tier;
pub mod tlb;
pub mod util;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::access::{
        Access, AccessKind, AccessOutcome, AccessRecord, RecordFilter, ACCESS_CLASSES,
    };
    pub use crate::addr::{
        Frame, PageSize, PhysAddr, TierId, VirtAddr, VirtPage, BASE_PAGE_SIZE, HUGE_PAGE_SIZE,
        NR_SUBPAGES,
    };
    pub use crate::config::{
        CostModel, HysteresisConfig, MachineConfig, MemoryKind, MigrationConfig, TierSpec, TlbSpec,
    };
    pub use crate::driver::{
        AccessStream, DriverConfig, RunReport, ShardMetrics, Simulation, WorkloadEvent,
        DEFAULT_CHUNK,
    };
    pub use crate::engine::{AbortCause, EngineEvent, MigrationHandle, TransferEnd, TransferId};
    pub use crate::error::{SimError, SimResult};
    pub use crate::faults::{
        FaultCounters, FaultInjector, FaultPlan, FaultRecord, FaultRng, OutageSpec, PressureSpec,
        SampleFate, TickFate,
    };
    pub use crate::machine::{BatchClock, BatchStop, Machine, MigrateOutcome, SplitOutcome};
    pub use crate::policy::{
        CostAccounting, CostSink, NoopPolicy, PolicyDescriptor, PolicyOps, TieringPolicy,
    };
    pub use crate::shard::{lane_of, LaneState, NUM_LANES};
    pub use crate::stats::{MachineStats, MigrationStats};
    pub use crate::util::{DetHashMap, DetHashSet, Fnv1a, FNV1A_BASIS, FNV1A_PRIME};
    pub use memtis_obs::{
        Event, EventKind, FaultKind, MigrationFailure, NopObserver, Observer, ShootdownCause,
        ThresholdCause, TracingObserver, WindowCollector, WindowCut, WindowSample,
    };
}
