//! Property-based invariants over the core data structures, checked with
//! proptest.

use memtis_repro::memtis::{adapt, bin_of, AccessHistogram, MAX_BIN, NUM_BINS};
use memtis_repro::sim::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Histogram invariants.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HistOp {
    Add(usize, u64),
    MoveSome(usize, usize),
    Cool,
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        (0..NUM_BINS, 1u64..512).prop_map(|(b, n)| HistOp::Add(b, n)),
        (0..NUM_BINS, 0..NUM_BINS).prop_map(|(a, b)| HistOp::MoveSome(a, b)),
        Just(HistOp::Cool),
    ]
}

proptest! {
    /// Whatever sequence of adds/moves/coolings happens, the histogram's
    /// total equals the pages logically inserted: nothing is lost.
    #[test]
    fn histogram_conserves_pages(ops in prop::collection::vec(hist_op(), 1..200)) {
        let mut h = AccessHistogram::new();
        let mut inserted: u64 = 0;
        for op in ops {
            match op {
                HistOp::Add(b, n) => { h.add(b, n); inserted += n; }
                HistOp::MoveSome(a, b) => {
                    let n = h.pages_in(a).min(7);
                    if n > 0 { h.move_pages(a, b, n); }
                }
                HistOp::Cool => h.cool(),
            }
            prop_assert_eq!(h.total_pages(), inserted);
        }
    }

    /// `bin_of` is monotone and consistent with cooling's one-bin shift.
    #[test]
    fn bin_of_monotone_and_cooling_consistent(h in 2u64..u64::MAX / 2) {
        prop_assert!(bin_of(h) >= bin_of(h - 1));
        let b = bin_of(h);
        let expected = if b == MAX_BIN { // Top bin may stay put.
            prop_assert!(bin_of(h / 2) == MAX_BIN || bin_of(h / 2) == MAX_BIN - 1);
            return Ok(());
        } else {
            b.saturating_sub(1)
        };
        prop_assert_eq!(bin_of(h / 2), expected);
    }

    /// Algorithm 1: the identified hot set never exceeds the fast tier, and
    /// adding the next bin down would overflow it (maximality), unless the
    /// walk hit bin 0.
    #[test]
    fn algorithm1_hot_set_tight(
        bins in prop::collection::vec(0u64..5000, NUM_BINS),
        fast_pages in 1u64..100_000,
    ) {
        let mut h = AccessHistogram::new();
        for (b, &n) in bins.iter().enumerate() {
            h.add(b, n);
        }
        let fast = fast_pages * 4096;
        let t = adapt(&h, fast, 0.9, true);
        prop_assert!(t.hot_set_bytes <= fast);
        if t.hot >= 2 {
            // Bin t.hot - 1 did not fit.
            let would_be = t.hot_set_bytes + h.bytes_in(t.hot - 1);
            prop_assert!(would_be > fast || t.hot - 1 == 0);
        }
        prop_assert!(t.warm == t.hot || t.warm + 1 == t.hot);
        prop_assert_eq!(t.cold, t.warm.saturating_sub(1));
    }

    /// Classification is a partition: whatever `adapt` produces — including
    /// sparse and empty histograms where the warm band opens below `T_hot`
    /// (threshold.rs lines 80–84), and `hot == MAX_BIN + 1` when even the
    /// top bin overflows — every bin is exactly one of hot/warm/cold.
    #[test]
    fn thresholds_partition_every_bin(
        bins in prop::collection::vec(0u64..5000, NUM_BINS),
        fast_pages in 1u64..100_000,
        alpha in 0.0f64..1.0,
        warm_set in prop::bool::ANY,
    ) {
        let mut h = AccessHistogram::new();
        for (b, &n) in bins.iter().enumerate() {
            h.add(b, n);
        }
        let t = adapt(&h, fast_pages * 4096, alpha, warm_set);
        for b in 0..NUM_BINS {
            let classes =
                t.is_hot(b) as u8 + t.is_warm(b) as u8 + t.is_cold(b) as u8;
            prop_assert_eq!(
                classes, 1,
                "bin {} classified {} ways under {:?}", b, classes, t
            );
        }
        // `hot` can exceed MAX_BIN by exactly one (nothing classifies hot);
        // classification helpers must stay consistent there too.
        prop_assert!(t.hot <= MAX_BIN + 1);
        if t.hot == MAX_BIN + 1 {
            prop_assert!(!t.is_hot(MAX_BIN));
            prop_assert!(t.is_warm(MAX_BIN) || t.is_cold(MAX_BIN));
        }
    }

    /// `adapt` over a histogram mutated mid-cooling (cool + partial
    /// move-back, the exact state kmigrated can observe between the shift
    /// and the page-list correction walk) still yields a sound partition
    /// and a hot set that fits.
    #[test]
    fn adapt_is_sound_on_mid_cooling_histograms(
        bins in prop::collection::vec(0u64..5000, NUM_BINS),
        fast_pages in 1u64..100_000,
        corrections in prop::collection::vec((0usize..NUM_BINS, 0usize..NUM_BINS, 1u64..64), 0..10),
    ) {
        let mut h = AccessHistogram::new();
        for (b, &n) in bins.iter().enumerate() {
            h.add(b, n);
        }
        h.cool();
        // Partial correction walk: some pages get moved while others still
        // sit in their post-shift bins.
        for (from, to, n) in corrections {
            let avail = h.pages_in(from).min(n);
            if avail > 0 {
                h.move_pages(from, to, avail);
            }
        }
        let fast = fast_pages * 4096;
        let t = adapt(&h, fast, 0.9, true);
        prop_assert!(t.hot_set_bytes <= fast);
        prop_assert!(t.warm == t.hot || t.warm + 1 == t.hot);
        prop_assert_eq!(t.cold, t.warm.saturating_sub(1));
        for b in 0..NUM_BINS {
            let classes =
                t.is_hot(b) as u8 + t.is_warm(b) as u8 + t.is_cold(b) as u8;
            prop_assert_eq!(classes, 1);
        }
        prop_assert_eq!(h.underflows(), 0, "bounded moves never underflow");
    }
}

/// Empty histogram: the warm band opens (`warm = hot - 1 = 0`) even though
/// there is nothing to shield — the `s < α·fast` branch at
/// threshold.rs:80-84 fires with `s == 0`. Harmless, but pinned: `cold`
/// must not underflow past 0 and the partition must hold.
#[test]
fn empty_histogram_opens_warm_band_without_underflow() {
    let h = AccessHistogram::new();
    for fast_pages in [1u64, 100, 100_000] {
        let t = adapt(&h, fast_pages * 4096, 0.9, true);
        assert_eq!((t.hot, t.warm, t.cold), (1, 0, 0));
        assert_eq!(t.hot_set_bytes, 0);
        // Bin 0 is cold (not warm), bins >= 1 are hot.
        assert!(t.is_cold(0) && !t.is_warm(0) && !t.is_hot(0));
        assert!(t.is_hot(1));
    }
}

/// `hot == MAX_BIN + 1` (top bin alone overflows the fast tier): no bin is
/// hot, the top bin lands in the warm band, and `is_warm`/`is_cold` stay
/// complementary all the way down.
#[test]
fn no_hot_pages_keeps_warm_cold_complementary() {
    let mut h = AccessHistogram::new();
    h.add(MAX_BIN, 500);
    let t = adapt(&h, 100 * 4096, 0.9, true);
    assert_eq!(t.hot, MAX_BIN + 1);
    assert_eq!((t.warm, t.cold), (MAX_BIN, MAX_BIN - 1));
    for b in 0..NUM_BINS {
        assert!(!t.is_hot(b), "bin {b} must not be hot");
        assert!(
            t.is_warm(b) ^ t.is_cold(b),
            "bin {b} must be exactly warm or cold"
        );
    }
    assert!(t.is_warm(MAX_BIN));
    assert!(t.is_cold(0));
}

// ---------------------------------------------------------------------------
// Tier allocator invariants.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    AllocBase,
    AllocHuge,
    FreeNth(usize),
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        3 => Just(AllocOp::AllocBase),
        2 => Just(AllocOp::AllocHuge),
        3 => (0usize..64).prop_map(AllocOp::FreeNth),
    ]
}

proptest! {
    /// The allocator never double-hands-out a frame, never exceeds its
    /// capacity, and its free-byte accounting is exact.
    #[test]
    fn tier_allocator_accounting(ops in prop::collection::vec(alloc_op(), 1..300)) {
        use memtis_repro::sim::tier::TierAllocator;
        let capacity = 8 * HUGE_PAGE_SIZE;
        let mut t = TierAllocator::new(TierId::FAST, 0, capacity);
        let mut live: Vec<(Frame, PageSize)> = Vec::new();
        let mut live_set = std::collections::HashSet::new();
        for op in ops {
            match op {
                AllocOp::AllocBase => {
                    if let Ok(f) = t.alloc(PageSize::Base) {
                        prop_assert!(live_set.insert(f.0), "frame handed out twice");
                        live.push((f, PageSize::Base));
                    }
                }
                AllocOp::AllocHuge => {
                    if let Ok(f) = t.alloc(PageSize::Huge) {
                        prop_assert_eq!(f.0 % 512, 0);
                        for i in 0..512 {
                            prop_assert!(live_set.insert(f.0 + i), "huge overlaps live frame");
                        }
                        live.push((f, PageSize::Huge));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (f, s) = live.swap_remove(n % live.len());
                        let frames = if s == PageSize::Huge { 512 } else { 1 };
                        for i in 0..frames {
                            live_set.remove(&(f.0 + i));
                        }
                        t.free(f, s);
                    }
                }
            }
            let used: u64 = live
                .iter()
                .map(|(_, s)| s.bytes())
                .sum();
            prop_assert_eq!(t.free_bytes(), capacity - used);
        }
    }
}

// ---------------------------------------------------------------------------
// Page table invariants.
// ---------------------------------------------------------------------------

proptest! {
    /// Map/translate/unmap round-trips at arbitrary addresses; RSS
    /// accounting matches the live mapping set.
    #[test]
    fn page_table_roundtrip(pages in prop::collection::btree_set(0u64..(1 << 27), 1..60)) {
        use memtis_repro::sim::page_table::PageTable;
        let mut pt = PageTable::new();
        for (i, &vpn) in pages.iter().enumerate() {
            pt.map_base(VirtPage(vpn), Frame(i as u64)).unwrap();
        }
        prop_assert_eq!(pt.rss_bytes(), pages.len() as u64 * 4096);
        for (i, &vpn) in pages.iter().enumerate() {
            let tr = pt.translate(VirtPage(vpn)).expect("mapped");
            prop_assert_eq!(tr.frame, Frame(i as u64));
        }
        for &vpn in &pages {
            pt.unmap_base(VirtPage(vpn)).unwrap();
            prop_assert!(pt.translate(VirtPage(vpn)).is_none());
        }
        prop_assert_eq!(pt.rss_bytes(), 0);
    }

    /// Splitting a huge page preserves the translation of every subpage and
    /// the sticky written bits; RSS is unchanged (no free of zero pages at
    /// the page-table level).
    #[test]
    fn split_preserves_translations(written in prop::collection::btree_set(0usize..512, 0..40)) {
        use memtis_repro::sim::page_table::{EntryMut, PageTable};
        let mut pt = PageTable::new();
        pt.map_huge(VirtPage(512), Frame(1024)).unwrap();
        if let Some(EntryMut::Huge(h)) = pt.entry_mut(VirtPage(512)) {
            for &w in &written {
                h.mark_subpage_written(w);
            }
        }
        let before_rss = pt.rss_bytes();
        pt.split_huge(VirtPage(512)).unwrap();
        prop_assert_eq!(pt.rss_bytes(), before_rss);
        for i in 0..512u64 {
            let tr = pt.translate(VirtPage(512 + i)).expect("subpage mapped");
            prop_assert_eq!(tr.frame, Frame(1024 + i));
            prop_assert_eq!(tr.size, PageSize::Base);
            if let Some(EntryMut::Base(p)) = pt.entry_mut(VirtPage(512 + i)) {
                prop_assert_eq!(p.ever_written, written.contains(&(i as usize)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Machine-level invariants.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AsyncOp {
    /// Enqueue a migration of page N toward FAST (true) or CAPACITY.
    Enqueue(u64, bool),
    /// Advance the simulated clock and pump the engine.
    Pump(u64),
    /// Abort page N's transfer if one is in flight.
    Abort(u64),
    /// Store into page N, dirtying any in-flight copy of it.
    Store(u64),
}

proptest! {
    /// Migrations conserve pages: whatever sequence of migrations runs,
    /// every page stays mapped, tier usage sums to RSS, and no tier
    /// overflows.
    #[test]
    fn migration_conserves_pages(moves in prop::collection::vec((0u64..6, prop::bool::ANY), 1..60)) {
        let mut m = Machine::new(MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        for i in 0..6u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY).unwrap();
        }
        let rss = m.rss_bytes();
        for (page, to_fast) in moves {
            let vp = VirtPage(page * 512);
            let dst = if to_fast { TierId::FAST } else { TierId::CAPACITY };
            let _ = m.migrate(vp, dst); // May legitimately fail (full/same tier).
            prop_assert_eq!(m.rss_bytes(), rss);
            let used: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();
            prop_assert_eq!(used, rss);
            prop_assert!(m.used_bytes(TierId::FAST) <= m.capacity_bytes(TierId::FAST));
            // Every page still translates.
            for i in 0..6u64 {
                prop_assert!(m.locate(VirtPage(i * 512)).is_some());
            }
        }
    }

    /// Asynchronous migration engine: under arbitrary interleavings of
    /// enqueues, pumps, aborts, and dirtying stores, no page is ever lost,
    /// duplicated, or double-mapped; tier accounting equals RSS plus the
    /// destination reservations of in-flight transfers; and draining the
    /// engine returns accounting to exactly RSS.
    #[test]
    fn async_migrations_conserve_pages(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..6, prop::bool::ANY).prop_map(|(p, f)| AsyncOp::Enqueue(p, f)),
                (1_000u64..3_000_000).prop_map(AsyncOp::Pump),
                (0u64..6).prop_map(AsyncOp::Abort),
                (0u64..6).prop_map(AsyncOp::Store),
            ],
            1..80,
        )
    ) {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        let mut m = Machine::new(cfg);
        for i in 0..6u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY).unwrap();
        }
        let rss = m.rss_bytes();
        let mut now = 0.0f64;
        let check = |m: &Machine| -> Result<(), TestCaseError> {
            prop_assert_eq!(m.rss_bytes(), rss);
            let used: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();
            let reserved = m.transfers_in_flight() as u64 * HUGE_PAGE_SIZE;
            prop_assert_eq!(used, rss + reserved);
            prop_assert!(m.used_bytes(TierId::FAST) <= m.capacity_bytes(TierId::FAST));
            let mut frames = std::collections::HashSet::new();
            for i in 0..6u64 {
                let vp = VirtPage(i * 512);
                prop_assert!(m.locate(vp).is_some(), "page lost");
                let tr = m.translate(vp).expect("mapped");
                prop_assert!(frames.insert(tr.frame), "frame double-mapped");
            }
            Ok(())
        };
        for op in ops {
            match op {
                AsyncOp::Enqueue(p, to_fast) => {
                    let dst = if to_fast { TierId::FAST } else { TierId::CAPACITY };
                    let _ = m.enqueue_migration(VirtPage(p * 512), dst, 0, now);
                }
                AsyncOp::Pump(dt) => {
                    now += dt as f64;
                    let _ = m.pump_transfers(now);
                }
                AsyncOp::Abort(p) => {
                    if let Some(id) = m.transfer_for(VirtPage(p * 512)) {
                        let end = m.abort_transfer(id, now).expect("listed transfer aborts");
                        prop_assert!(end.aborted.is_some());
                    }
                }
                AsyncOp::Store(p) => {
                    let _ = m.access(Access::store(p * HUGE_PAGE_SIZE + 64)).unwrap();
                }
            }
            check(&m)?;
        }
        // Drain: stop issuing work and pump the clock forward; everything
        // still in flight must complete or dirty-abort, after which tier
        // usage is exactly RSS again.
        for _ in 0..64 {
            if m.transfers_idle() {
                break;
            }
            now += 10_000_000.0;
            let _ = m.pump_transfers(now);
        }
        prop_assert!(m.transfers_idle(), "engine failed to drain");
        check(&m)?;
        let used: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();
        prop_assert_eq!(used, rss);
    }

    /// Shadow-copy (non-exclusive) migration extends the conservation law:
    /// tier usage equals RSS plus in-flight destination reservations plus
    /// the bytes pinned by retained shadow frames, under arbitrary
    /// interleavings of enqueues, pumps, aborts, and dirtying stores (which
    /// invalidate shadows). Draining the engine returns accounting to
    /// exactly RSS + shadow bytes — shadows persist until displaced.
    #[test]
    fn async_migrations_conserve_pages_with_shadow(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..6, prop::bool::ANY).prop_map(|(p, f)| AsyncOp::Enqueue(p, f)),
                (1_000u64..3_000_000).prop_map(AsyncOp::Pump),
                (0u64..6).prop_map(AsyncOp::Abort),
                (0u64..6).prop_map(AsyncOp::Store),
            ],
            1..80,
        )
    ) {
        let mut cfg = MachineConfig::dram_nvm(4 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE);
        cfg.migration.bandwidth_limit = Some(1.0);
        cfg.migration.shadow = true;
        let mut m = Machine::new(cfg);
        for i in 0..6u64 {
            m.alloc_and_map(VirtPage(i * 512), PageSize::Huge, TierId::CAPACITY).unwrap();
        }
        let rss = m.rss_bytes();
        let mut now = 0.0f64;
        let check = |m: &Machine| -> Result<(), TestCaseError> {
            prop_assert_eq!(m.rss_bytes(), rss);
            prop_assert_eq!(m.check_page_accounting(), Ok(()));
            prop_assert!(m.used_bytes(TierId::FAST) <= m.capacity_bytes(TierId::FAST));
            let mut frames = std::collections::HashSet::new();
            for i in 0..6u64 {
                let vp = VirtPage(i * 512);
                prop_assert!(m.locate(vp).is_some(), "page lost");
                let tr = m.translate(vp).expect("mapped");
                prop_assert!(frames.insert(tr.frame), "frame double-mapped");
            }
            Ok(())
        };
        for op in ops {
            match op {
                AsyncOp::Enqueue(p, to_fast) => {
                    let dst = if to_fast { TierId::FAST } else { TierId::CAPACITY };
                    let _ = m.enqueue_migration(VirtPage(p * 512), dst, 0, now);
                }
                AsyncOp::Pump(dt) => {
                    now += dt as f64;
                    let _ = m.pump_transfers(now);
                }
                AsyncOp::Abort(p) => {
                    if let Some(id) = m.transfer_for(VirtPage(p * 512)) {
                        let end = m.abort_transfer(id, now).expect("listed transfer aborts");
                        prop_assert!(end.aborted.is_some());
                    }
                }
                AsyncOp::Store(p) => {
                    let _ = m.access(Access::store(p * HUGE_PAGE_SIZE + 64)).unwrap();
                }
            }
            check(&m)?;
        }
        for _ in 0..64 {
            if m.transfers_idle() {
                break;
            }
            now += 10_000_000.0;
            let _ = m.pump_transfers(now);
        }
        prop_assert!(m.transfers_idle(), "engine failed to drain");
        check(&m)?;
        prop_assert_eq!(m.inflight_reserved_bytes(), 0);
    }

    /// Accesses never corrupt placement: executing an arbitrary access
    /// stream leaves RSS and mappings untouched.
    #[test]
    fn accesses_do_not_move_pages(addrs in prop::collection::vec(0u64..(2 << 21), 1..300)) {
        let mut m = Machine::new(MachineConfig::dram_nvm(2 * HUGE_PAGE_SIZE, 8 * HUGE_PAGE_SIZE));
        m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST).unwrap();
        m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY).unwrap();
        for a in addrs {
            let acc = if a % 3 == 0 { Access::store(a) } else { Access::load(a) };
            let out = m.access(acc).unwrap();
            prop_assert!(out.latency_ns > 0.0);
        }
        prop_assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Huge)));
        prop_assert_eq!(m.locate(VirtPage(512)), Some((TierId::CAPACITY, PageSize::Huge)));
    }
}

// ---------------------------------------------------------------------------
// Named regressions promoted from tests/invariants.proptest-regressions.
// The seed file only replays on the machines that have it checked out *and*
// only inside its proptest; these run everywhere, always, with an
// explanation attached.
// ---------------------------------------------------------------------------

/// Driver-level shadow conservation: a full MEMTIS run with the shadow
/// (non-exclusive) engine mode on ends with tier usage equal to RSS plus
/// in-flight reservations plus retained shadow bytes — serially and with
/// `--shards 2`. Shadow mode forces per-event execution, so the sharded
/// run must also reproduce the serial-chunked oracle bit for bit.
#[test]
fn driver_shadow_mode_conserves_and_is_shard_invariant() {
    use memtis_repro::memtis::{MemtisConfig, MemtisPolicy};
    use memtis_repro::workloads::{Benchmark, Scale, SpecStream};
    let run = |shards: Option<usize>| {
        let mut wl = SpecStream::new(Benchmark::XsBench.spec(Scale::TEST, 200_000), 1234);
        let rss = (Benchmark::XsBench.paper_rss_gb() / 1024.0 * (1u64 << 30) as f64) as u64;
        let fast = (rss / 9).max(2 * HUGE_PAGE_SIZE);
        let mut mcfg = MachineConfig::dram_nvm(fast, rss * 2 + 64 * HUGE_PAGE_SIZE);
        mcfg.migration.shadow = true;
        mcfg.migration.bandwidth_limit = Some(4.0);
        let dcfg = DriverConfig {
            tick_interval_ns: 20_000.0,
            window_events: 25_000,
            shards,
            ..Default::default()
        };
        let mut sim = Simulation::new(
            mcfg,
            MemtisPolicy::new(MemtisConfig {
                load_period: 4,
                store_period: 64,
                adapt_interval: 500,
                cooling_interval: 10_000,
                min_estimate_samples: 2_000,
                control_interval: 1_000,
                sample_cost_ns: 2.0,
                ..MemtisConfig::sim_scaled()
            }),
            dcfg,
        );
        let report = sim.run(&mut wl).expect("simulation should complete");
        let m = sim.machine();
        if let Err(e) = m.check_page_accounting() {
            panic!("shards={shards:?}: {e}");
        }
        assert!(m.used_bytes(TierId::FAST) <= m.capacity_bytes(TierId::FAST));
        report
    };
    let serial = run(None);
    assert!(
        serial.stats.migration.shadow_retained_4k > 0,
        "run must actually exercise shadow retention"
    );
    let oracle = run(Some(1));
    let sharded = run(Some(2));
    assert_eq!(oracle.wall_ns.to_bits(), sharded.wall_ns.to_bits());
    assert_eq!(
        format!("{:?}", oracle.stats),
        format!("{:?}", sharded.stats),
        "shards=2 must reproduce the shards=1 oracle exactly under shadow mode"
    );
    assert_eq!(oracle.windows, sharded.windows);
}

/// Regression for seed `cc 5dd7688d…` (shrinks to `addrs = [4194304]`):
/// address 4 MiB is the first byte past the two mapped huge pages (vpages
/// 0..1024). `accesses_do_not_move_pages` once generated it with an
/// inclusive bound and tripped an unwrap on the unmapped access. Pin the
/// exact behavior: a clean `NotMapped(VirtPage(1024))` error — no panic —
/// with placement, RSS, and tier accounting untouched.
#[test]
fn regression_access_one_past_mapped_region_fails_cleanly() {
    let mut m = Machine::new(MachineConfig::dram_nvm(
        2 * HUGE_PAGE_SIZE,
        8 * HUGE_PAGE_SIZE,
    ));
    m.alloc_and_map(VirtPage(0), PageSize::Huge, TierId::FAST)
        .unwrap();
    m.alloc_and_map(VirtPage(512), PageSize::Huge, TierId::CAPACITY)
        .unwrap();
    let rss = m.rss_bytes();
    let used_before: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();

    // The shrunk counterexample: a store at exactly 2 × 2 MiB.
    let err = m.access(Access::store(4_194_304)).unwrap_err();
    assert_eq!(err, SimError::NotMapped(VirtPage(1024)));
    // Loads fail identically.
    let err = m.access(Access::load(4_194_304)).unwrap_err();
    assert_eq!(err, SimError::NotMapped(VirtPage(1024)));

    // Nothing moved, nothing leaked.
    assert_eq!(m.rss_bytes(), rss);
    let used_after: u64 = (0..2).map(|t| m.used_bytes(TierId(t))).sum();
    assert_eq!(used_after, used_before);
    assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Huge)));
    assert_eq!(
        m.locate(VirtPage(512)),
        Some((TierId::CAPACITY, PageSize::Huge))
    );
}
