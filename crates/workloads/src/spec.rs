//! Declarative workload specifications and the stream generator over them.
//!
//! Each paper benchmark is described as a [`WorkloadSpec`]: a set of virtual
//! regions plus a sequence of phases. A region is a pool of 4 KiB *slots*
//! (the subpages holding live data); the slot→subpage placement is either
//! dense (hot data clusters, so hot huge pages have high utilization, as in
//! Liblinear — Fig. 3a) or scattered (hot records spread thin across huge
//! pages, so a hot huge page contains only a few hot subpages, as in Silo —
//! Fig. 3b). Placing fewer slots than subpages models THP memory bloat
//! (Btree). Phases allocate/free regions and issue accesses drawn from
//! per-phase distributions over slot ranks.
//!
//! [`SpecStream`] turns a spec into the deterministic event stream consumed
//! by the simulation driver.

use crate::ahead::{spare_core, Ahead, Reader};
use crate::dist::ZipfTable;
use memtis_sim::prelude::{
    Access, AccessStream, VirtAddr, WorkloadEvent, BASE_PAGE_SIZE, HUGE_PAGE_SIZE, NR_SUBPAGES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// How slots map onto a region's subpages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Consecutive slot ranks fill huge pages densely (hot huge pages have
    /// high utilization), but the huge pages themselves are scattered over
    /// the region's address space — hotness does not correlate with
    /// allocation order, as in real heaps.
    Dense,
    /// Individual slots are spread over all subpages by a fixed coprime
    /// stride: hot ranks scatter, giving hot huge pages low utilization
    /// (high skew).
    Scattered,
}

/// One virtual memory region.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (reports only).
    pub name: &'static str,
    /// Start address (2 MiB-aligned; see [`assign_addresses`]).
    pub addr: VirtAddr,
    /// Region length in bytes (multiple of 2 MiB).
    pub bytes: u64,
    /// THP-eligible.
    pub thp: bool,
    /// Number of live 4 KiB data slots (`<= bytes / 4096`).
    pub slots: u64,
    /// Slot placement strategy.
    pub placement: Placement,
}

impl RegionSpec {
    /// A fully-populated dense region (`slots == subpages`).
    pub fn dense(name: &'static str, bytes: u64, thp: bool) -> Self {
        RegionSpec {
            name,
            addr: VirtAddr(0),
            bytes,
            thp,
            slots: bytes / BASE_PAGE_SIZE,
            placement: Placement::Dense,
        }
    }

    /// A scattered region with `touched` fraction of subpages holding data.
    pub fn scattered(name: &'static str, bytes: u64, thp: bool, touched: f64) -> Self {
        let subpages = bytes / BASE_PAGE_SIZE;
        RegionSpec {
            name,
            addr: VirtAddr(0),
            bytes,
            thp,
            slots: ((subpages as f64 * touched) as u64).clamp(1, subpages),
            placement: Placement::Scattered,
        }
    }

    /// Total 4 KiB subpages in the region.
    pub fn subpages(&self) -> u64 {
        self.bytes / BASE_PAGE_SIZE
    }

    /// Maps a slot rank to its subpage index within the region.
    #[inline]
    pub fn subpage_of_slot(&self, slot: u64) -> u64 {
        SlotMap::new(self).subpage(slot)
    }

    /// Virtual address of a slot's subpage start.
    #[inline]
    pub fn slot_addr(&self, slot: u64) -> u64 {
        SlotMap::new(self).addr(slot)
    }
}

/// A region's slot→subpage placement with its stride resolved, so mapping a
/// slot costs a multiply and a remainder. [`SpecStream`] builds one per
/// region up front; [`RegionSpec`]'s own methods build one per call, since
/// its fields are public and may change between calls.
#[derive(Debug, Clone, Copy)]
struct SlotMap {
    base: u64,
    subpages: u64,
    n_hp: u64,
    stride: u64,
    placement: Placement,
}

impl SlotMap {
    fn new(r: &RegionSpec) -> Self {
        let subpages = r.subpages();
        let n_hp = subpages / NR_SUBPAGES;
        let stride = match r.placement {
            Placement::Dense => scatter_stride(n_hp),
            Placement::Scattered => scatter_stride(subpages),
        };
        SlotMap {
            base: r.addr.0,
            subpages,
            n_hp,
            stride,
            placement: r.placement,
        }
    }

    #[inline]
    fn subpage(&self, slot: u64) -> u64 {
        match self.placement {
            Placement::Dense => {
                // Dense within a huge page, scattered across huge pages.
                if self.n_hp <= 1 {
                    return slot % self.subpages;
                }
                let hp = slot / NR_SUBPAGES;
                let sub = slot % NR_SUBPAGES;
                ((hp * self.stride) % self.n_hp) * NR_SUBPAGES + sub
            }
            Placement::Scattered => (slot.wrapping_mul(self.stride)) % self.subpages,
        }
    }

    #[inline]
    fn addr(&self, slot: u64) -> u64 {
        self.base + self.subpage(slot) * BASE_PAGE_SIZE
    }
}

/// A stride coprime with `n`, near the golden ratio for good scattering.
fn scatter_stride(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut s = ((n as f64 * 0.618_033_988_75) as u64) | 1;
    while gcd(s, n) != 1 {
        s += 2;
    }
    s
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Access pattern over a region's slot ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniform over all slots.
    Uniform,
    /// Zipf with the given exponent (rank 0 hottest).
    Zipf(f64),
    /// Sequential sweep with wraparound (streaming / stencil).
    Sequential,
}

/// One weighted component of a phase's access mix.
#[derive(Debug, Clone)]
pub struct OpMix {
    /// Target region index.
    pub region: usize,
    /// Relative weight within the phase.
    pub weight: f64,
    /// Slot-rank distribution.
    pub pattern: Pattern,
    /// Fraction of accesses that are stores.
    pub store_fraction: f64,
    /// Rotation applied to slot ranks: the sampled rank `r` addresses slot
    /// `(r + rank_offset) % slots`. Phases with different offsets model
    /// hot-set drift (different BFS keys, new training epochs, ...), which
    /// static placement cannot follow.
    pub rank_offset: u64,
}

/// One workload phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseSpec {
    /// Phase name (reports only).
    pub name: &'static str,
    /// Accesses issued in this phase.
    pub accesses: u64,
    /// Regions freed at phase start (before allocs).
    pub free: Vec<usize>,
    /// Regions allocated at phase start.
    pub alloc: Vec<usize>,
    /// The access mix.
    pub ops: Vec<OpMix>,
}

/// A complete workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Regions (indexed by phases).
    pub regions: Vec<RegionSpec>,
    /// Phase sequence.
    pub phases: Vec<PhaseSpec>,
}

impl WorkloadSpec {
    /// Sum of all region sizes (upper bound on RSS with THP).
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Total accesses across all phases.
    pub fn total_accesses(&self) -> u64 {
        self.phases.iter().map(|p| p.accesses).sum()
    }

    /// Checks internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.regions.iter().enumerate() {
            if r.bytes == 0 || r.bytes % HUGE_PAGE_SIZE != 0 {
                return Err(format!("region {i} ({}) size not a 2MiB multiple", r.name));
            }
            if r.addr.0 % HUGE_PAGE_SIZE != 0 {
                return Err(format!("region {i} ({}) not 2MiB-aligned", r.name));
            }
            if r.slots == 0 || r.slots > r.subpages() {
                return Err(format!("region {i} ({}) has invalid slot count", r.name));
            }
        }
        // Regions must not overlap.
        let mut spans: Vec<(u64, u64)> = self
            .regions
            .iter()
            .map(|r| (r.addr.0, r.addr.0 + r.bytes))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err("regions overlap".to_string());
            }
        }
        for (pi, p) in self.phases.iter().enumerate() {
            if p.accesses > 0 && p.ops.is_empty() {
                return Err(format!("phase {pi} ({}) has accesses but no ops", p.name));
            }
            for op in &p.ops {
                if op.region >= self.regions.len() {
                    return Err(format!("phase {pi} ({}) references bad region", p.name));
                }
                if op.weight <= 0.0 {
                    return Err(format!("phase {pi} ({}) has non-positive weight", p.name));
                }
                if !(0.0..=1.0).contains(&op.store_fraction) {
                    return Err(format!("phase {pi} ({}) has bad store fraction", p.name));
                }
            }
            for &r in p.alloc.iter().chain(&p.free) {
                if r >= self.regions.len() {
                    return Err(format!("phase {pi} ({}) alloc/free bad region", p.name));
                }
            }
        }
        Ok(())
    }
}

/// Assigns non-overlapping 2 MiB-aligned addresses to all regions, with a
/// 4 MiB guard gap between them, starting at 256 GiB.
pub fn assign_addresses(regions: &mut [RegionSpec]) {
    let mut cur: u64 = 1 << 38;
    for r in regions {
        r.addr = VirtAddr(cur);
        cur += r.bytes + 2 * HUGE_PAGE_SIZE;
    }
}

struct OpState {
    cum_weight: f64,
    zipf: Option<Arc<ZipfTable>>,
    cursor: u64,
}

/// The stream's state machine: a pure function of `(spec, seed)` that
/// reads nothing else, so it can run on any thread.
struct Generator {
    spec: Arc<WorkloadSpec>,
    rng: StdRng,
    phase: usize,
    phase_ready: bool,
    emitted: u64,
    pending: VecDeque<WorkloadEvent>,
    ops: Vec<OpState>,
    /// Resolved placement of each region, indexed like `spec.regions`.
    maps: Vec<SlotMap>,
    /// Zipf tables by region and exact exponent bits, every phase's built
    /// up front on the thread that creates the stream.
    zipf_cache: HashMap<(usize, u64), Arc<ZipfTable>>,
    line_salt: u64,
}

impl Generator {
    fn new(spec: Arc<WorkloadSpec>, seed: u64) -> Self {
        let mut zipf_cache = HashMap::new();
        for op in spec.phases.iter().flat_map(|p| &p.ops) {
            if let Pattern::Zipf(s) = op.pattern {
                let slots = spec.regions[op.region].slots;
                zipf_cache
                    .entry((op.region, s.to_bits()))
                    .or_insert_with(|| Arc::new(ZipfTable::new(slots, s)));
            }
        }
        Generator {
            maps: spec.regions.iter().map(SlotMap::new).collect(),
            spec,
            rng: StdRng::seed_from_u64(seed),
            phase: 0,
            phase_ready: false,
            emitted: 0,
            pending: VecDeque::new(),
            ops: Vec::new(),
            zipf_cache,
            line_salt: 0,
        }
    }

    fn enter_phase(&mut self) {
        let p = &self.spec.phases[self.phase];
        for &ri in &p.free {
            let r = &self.spec.regions[ri];
            self.pending.push_back(WorkloadEvent::Free {
                addr: r.addr,
                bytes: r.bytes,
            });
        }
        for &ri in &p.alloc {
            let r = &self.spec.regions[ri];
            self.pending.push_back(WorkloadEvent::Alloc {
                addr: r.addr,
                bytes: r.bytes,
                thp: r.thp,
            });
        }
        // Build per-op state with cumulative weights for O(ops) choice.
        self.ops.clear();
        let mut acc = 0.0;
        for op in &p.ops {
            acc += op.weight;
            let zipf = match op.pattern {
                Pattern::Zipf(s) => Some(Arc::clone(&self.zipf_cache[&(op.region, s.to_bits())])),
                _ => None,
            };
            self.ops.push(OpState {
                cum_weight: acc,
                zipf,
                cursor: 0,
            });
        }
        self.emitted = 0;
        self.phase_ready = true;
    }

    #[inline]
    fn gen_access(&mut self) -> Access {
        let p = &self.spec.phases[self.phase];
        let op_idx = if self.ops.len() == 1 {
            0
        } else {
            let total = self.ops.last().map(|o| o.cum_weight).unwrap_or(1.0);
            let u: f64 = self.rng.gen::<f64>() * total;
            self.ops
                .partition_point(|o| o.cum_weight < u)
                .min(self.ops.len() - 1)
        };
        let op = &p.ops[op_idx];
        let slots = self.spec.regions[op.region].slots;
        let rank = match op.pattern {
            Pattern::Uniform => self.rng.gen_range(0..slots),
            Pattern::Zipf(_) => self.ops[op_idx]
                .zipf
                .as_ref()
                .expect("zipf table built at phase entry")
                .sample(&mut self.rng),
            Pattern::Sequential => {
                let st = &mut self.ops[op_idx];
                let s = st.cursor % slots;
                st.cursor += 1;
                s
            }
        };
        let slot = (rank + op.rank_offset) % slots;
        // Spread accesses over the slot's cache lines deterministically.
        self.line_salt = self.line_salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let offset = (self.line_salt >> 33) & (BASE_PAGE_SIZE / 64 - 1);
        let addr = self.maps[op.region].addr(slot) + offset * 64;
        let store = op.store_fraction > 0.0
            && (op.store_fraction >= 1.0 || self.rng.gen::<f64>() < op.store_fraction);
        if store {
            Access::store(addr)
        } else {
            Access::load(addr)
        }
    }
}

impl AccessStream for Generator {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Some(ev);
            }
            if self.phase >= self.spec.phases.len() {
                return None;
            }
            if !self.phase_ready {
                self.enter_phase();
                continue;
            }
            if self.emitted >= self.spec.phases[self.phase].accesses {
                self.phase += 1;
                self.phase_ready = false;
                continue;
            }
            self.emitted += 1;
            return Some(WorkloadEvent::Access(self.gen_access()));
        }
    }

    /// Bulk generation: while mid-phase with no pending structural events,
    /// emit a tight run of accesses without the per-event state-machine
    /// checks; phase transitions and pending alloc/free events fall back to
    /// [`next_event`]. Produces exactly the per-event sequence.
    ///
    /// [`next_event`]: AccessStream::next_event
    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            if self.pending.is_empty() && self.phase_ready && self.phase < self.spec.phases.len() {
                let left = self.spec.phases[self.phase].accesses - self.emitted;
                let take = ((buf.len() - n) as u64).min(left) as usize;
                for slot in &mut buf[n..n + take] {
                    *slot = WorkloadEvent::Access(self.gen_access());
                }
                self.emitted += take as u64;
                n += take;
                if n == buf.len() {
                    break;
                }
            }
            match self.next_event() {
                Some(ev) => {
                    buf[n] = ev;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

/// Deterministic event stream over a [`WorkloadSpec`].
///
/// The events come from a private generator that reads only the spec and
/// the seed. When the process has a spare core (one of
/// `available_parallelism()` that no live stream or producer holds), the
/// first pull moves the generator to a producer thread that runs one
/// [`DEFAULT_CHUNK`](memtis_sim::prelude::DEFAULT_CHUNK) ahead of the
/// reader; otherwise the generator fills the reader's buffers itself.
/// Either way the stream is the same event for event. Dropping the stream
/// joins its producer.
pub struct SpecStream {
    spec: Arc<WorkloadSpec>,
    source: Source,
    _reader: Reader,
}

enum Source {
    /// Not pulled yet: the first pull picks one of the other two.
    Unstarted(Option<Generator>),
    Inline(Generator),
    Ahead(Ahead),
}

impl SpecStream {
    /// Creates a stream with the given RNG seed, building its Zipf tables.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec `{}`: {e}", spec.name);
        }
        let spec = Arc::new(spec);
        SpecStream {
            source: Source::Unstarted(Some(Generator::new(Arc::clone(&spec), seed))),
            spec,
            _reader: Reader::register(),
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Picks the source at the first pull. Deciding then rather than at
    /// creation lets streams created together all count before any picks.
    #[cold]
    fn start(&mut self) {
        if let Source::Unstarted(gen) = &mut self.source {
            let gen = gen.take().expect("an unstarted stream holds its generator");
            self.source = if spare_core() {
                Ahead::spawn(gen).map_or_else(Source::Inline, Source::Ahead)
            } else {
                Source::Inline(gen)
            };
        }
    }
}

impl AccessStream for SpecStream {
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        match &mut self.source {
            Source::Inline(gen) => gen.next_event(),
            Source::Ahead(ahead) => ahead.next_event(),
            Source::Unstarted(_) => {
                self.start();
                self.next_event()
            }
        }
    }

    fn fill(&mut self, buf: &mut [WorkloadEvent]) -> usize {
        match &mut self.source {
            Source::Inline(gen) => gen.fill(buf),
            Source::Ahead(ahead) => ahead.fill(buf),
            Source::Unstarted(_) => {
                self.start();
                self.fill(buf)
            }
        }
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_sim::prelude::AccessKind;

    fn tiny_spec() -> WorkloadSpec {
        let mut regions = vec![
            RegionSpec::dense("a", 2 * HUGE_PAGE_SIZE, true),
            RegionSpec::scattered("b", 4 * HUGE_PAGE_SIZE, true, 0.5),
        ];
        assign_addresses(&mut regions);
        WorkloadSpec {
            name: "tiny".into(),
            regions,
            phases: vec![
                PhaseSpec {
                    name: "init",
                    accesses: 100,
                    alloc: vec![0, 1],
                    free: vec![],
                    ops: vec![OpMix {
                        region: 0,
                        weight: 1.0,
                        pattern: Pattern::Sequential,
                        store_fraction: 1.0,
                        rank_offset: 0,
                    }],
                },
                PhaseSpec {
                    name: "run",
                    accesses: 1000,
                    alloc: vec![],
                    free: vec![],
                    ops: vec![
                        OpMix {
                            region: 0,
                            weight: 1.0,
                            pattern: Pattern::Zipf(0.9),
                            store_fraction: 0.1,
                            rank_offset: 0,
                        },
                        OpMix {
                            region: 1,
                            weight: 1.0,
                            pattern: Pattern::Uniform,
                            store_fraction: 0.0,
                            rank_offset: 0,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn fill_matches_next_event_sequence() {
        // Odd chunk sizes land mid-phase, on phase boundaries, and on the
        // stream end; the bulk path must reproduce the per-event sequence
        // exactly (same RNG consumption order).
        for chunk in [1usize, 3, 64, 1024, 4096] {
            let mut single = SpecStream::new(tiny_spec(), 7);
            let mut bulk = SpecStream::new(tiny_spec(), 7);
            let mut buf = vec![WorkloadEvent::Access(Access::load(0)); chunk];
            loop {
                let n = bulk.fill(&mut buf);
                if n == 0 {
                    assert!(single.next_event().is_none(), "chunk {chunk} too short");
                    break;
                }
                for ev in &buf[..n] {
                    let expect = single.next_event().expect("chunk overran");
                    assert_eq!(format!("{ev:?}"), format!("{expect:?}"));
                }
            }
        }
    }

    #[test]
    fn producer_and_inline_paths_give_identical_events() {
        // Long enough to cycle the producer's buffers several times.
        let mut spec = tiny_spec();
        spec.phases[1].accesses = 10_000;
        let spec = Arc::new(spec);
        let mut inline = Generator::new(Arc::clone(&spec), 7);
        let mut ahead = Ahead::spawn(Generator::new(spec, 7))
            .unwrap_or_else(|_| panic!("producer thread starts"));
        let mut buf = vec![WorkloadEvent::Access(Access::load(0)); 333];
        let mut events = 0;
        loop {
            // Bulk reads of an odd size, then one single read, so chunk
            // boundaries fall everywhere.
            let n = ahead.fill(&mut buf);
            for ev in &buf[..n] {
                let expect = inline.next_event().expect("the producer overran");
                assert_eq!(format!("{ev:?}"), format!("{expect:?}"));
            }
            events += n;
            match (ahead.next_event(), inline.next_event()) {
                (Some(a), Some(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                (None, None) => break,
                (a, b) => panic!("streams diverge in length: {a:?} vs {b:?}"),
            }
            events += 1;
        }
        assert_eq!(events, 10_102);
    }

    #[test]
    fn validation_catches_problems() {
        let mut s = tiny_spec();
        assert!(s.validate().is_ok());
        s.phases[1].ops[0].region = 99;
        assert!(s.validate().is_err());
        let mut s2 = tiny_spec();
        s2.regions[0].slots = 0;
        assert!(s2.validate().is_err());
        let mut s3 = tiny_spec();
        s3.regions[1].addr = s3.regions[0].addr;
        assert!(s3.validate().is_err());
    }

    #[test]
    fn stream_emits_allocs_then_accesses() {
        let mut st = SpecStream::new(tiny_spec(), 1);
        let e1 = st.next_event().unwrap();
        let e2 = st.next_event().unwrap();
        assert!(matches!(e1, WorkloadEvent::Alloc { .. }));
        assert!(matches!(e2, WorkloadEvent::Alloc { .. }));
        let mut accesses = 0;
        while let Some(ev) = st.next_event() {
            if let WorkloadEvent::Access(_) = ev {
                accesses += 1;
            }
        }
        assert_eq!(accesses, 1100);
    }

    #[test]
    fn init_phase_is_all_stores_sequential() {
        let mut st = SpecStream::new(tiny_spec(), 1);
        let mut seen = Vec::new();
        for ev in std::iter::from_fn(|| st.next_event()).take(30) {
            if let WorkloadEvent::Access(a) = ev {
                assert_eq!(a.kind, AccessKind::Store);
                seen.push(a.vaddr.0 / BASE_PAGE_SIZE);
            }
        }
        // Sequential slots visit distinct consecutive pages.
        for w in seen.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn zipf_concentrates_on_low_slots_dense() {
        let mut st = SpecStream::new(tiny_spec(), 2);
        let region0 = st.spec().regions[0].clone();
        let mut hist = std::collections::HashMap::new();
        while let Some(ev) = st.next_event() {
            if let WorkloadEvent::Access(a) = ev {
                if a.vaddr.0 >= region0.addr.0 && a.vaddr.0 < region0.addr.0 + region0.bytes {
                    *hist
                        .entry((a.vaddr.0 - region0.addr.0) / BASE_PAGE_SIZE)
                        .or_insert(0u64) += 1;
                }
            }
        }
        // Dense + Zipf: page 0 strictly hotter than page 100.
        let p0 = hist.get(&0).copied().unwrap_or(0);
        let p100 = hist.get(&100).copied().unwrap_or(0);
        assert!(p0 > p100);
    }

    #[test]
    fn scattered_placement_is_a_bijection() {
        let r = RegionSpec::scattered("x", 4 * HUGE_PAGE_SIZE, true, 1.0);
        let n = r.subpages();
        let mut seen = vec![false; n as usize];
        for s in 0..n {
            let p = r.subpage_of_slot(s);
            assert!(p < n);
            assert!(!seen[p as usize], "collision at slot {s}");
            seen[p as usize] = true;
        }
    }

    #[test]
    fn scattered_hot_slots_spread_across_huge_pages() {
        let r = RegionSpec::scattered("x", 8 * HUGE_PAGE_SIZE, true, 1.0);
        // The 16 hottest slots should land in many distinct huge pages.
        let mut huge_pages = std::collections::HashSet::new();
        for s in 0..16 {
            huge_pages.insert(r.subpage_of_slot(s) / 512);
        }
        assert!(
            huge_pages.len() >= 6,
            "only {} huge pages",
            huge_pages.len()
        );
        // Dense placement puts them all in one.
        let d = RegionSpec::dense("y", 8 * HUGE_PAGE_SIZE, true);
        let dense_hps: std::collections::HashSet<u64> =
            (0..16).map(|s| d.subpage_of_slot(s) / 512).collect();
        assert_eq!(dense_hps.len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SpecStream::new(tiny_spec(), 42);
        let mut b = SpecStream::new(tiny_spec(), 42);
        for _ in 0..500 {
            match (a.next_event(), b.next_event()) {
                (Some(WorkloadEvent::Access(x)), Some(WorkloadEvent::Access(y))) => {
                    assert_eq!(x, y)
                }
                (None, None) => break,
                (x, y) => assert_eq!(
                    std::mem::discriminant(&x.unwrap()),
                    std::mem::discriminant(&y.unwrap())
                ),
            }
        }
    }

    #[test]
    fn close_zipf_exponents_get_distinct_tables() {
        // Exponents agreeing to three decimals are still different
        // distributions; each must sample from its own table.
        let mut spec = tiny_spec();
        let zipf_phase = |s: f64| PhaseSpec {
            name: "zipf",
            accesses: 10,
            alloc: vec![],
            free: vec![],
            ops: vec![OpMix {
                region: 1,
                weight: 1.0,
                pattern: Pattern::Zipf(s),
                store_fraction: 0.0,
                rank_offset: 0,
            }],
        };
        spec.phases = vec![zipf_phase(0.9991), zipf_phase(0.9999)];
        let gen = Generator::new(Arc::new(spec), 1);
        let tables: Vec<_> = gen.zipf_cache.values().collect();
        assert_eq!(tables.len(), 2);
        assert_ne!(tables[0].pmf(0), tables[1].pmf(0));
    }

    #[test]
    fn free_events_emitted_at_phase_start() {
        let mut spec = tiny_spec();
        spec.phases.push(PhaseSpec {
            name: "teardown",
            accesses: 0,
            free: vec![0],
            alloc: vec![],
            ops: vec![],
        });
        let mut st = SpecStream::new(spec, 1);
        let mut frees = 0;
        while let Some(ev) = st.next_event() {
            if matches!(ev, WorkloadEvent::Free { .. }) {
                frees += 1;
            }
        }
        assert_eq!(frees, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::registry::Benchmark;
    use crate::scale::Scale;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every benchmark stream emits exactly the requested accesses, and
        /// every access lands inside a region that is currently allocated.
        #[test]
        fn streams_stay_within_allocated_regions(
            bench_idx in 0usize..8,
            budget in 2_000u64..8_000,
            seed in 0u64..1_000,
        ) {
            let bench = Benchmark::ALL[bench_idx];
            let spec = bench.spec(Scale::TEST, budget);
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut stream = SpecStream::new(spec, seed);
            let mut accesses = 0u64;
            while let Some(ev) = stream.next_event() {
                match ev {
                    WorkloadEvent::Alloc { addr, bytes, .. } => live.push((addr.0, addr.0 + bytes)),
                    WorkloadEvent::Free { addr, .. } => live.retain(|&(s, _)| s != addr.0),
                    WorkloadEvent::Access(a) => {
                        accesses += 1;
                        prop_assert!(
                            live.iter().any(|&(s, e)| a.vaddr.0 >= s && a.vaddr.0 < e),
                            "access {} outside live regions", a.vaddr
                        );
                    }
                }
            }
            prop_assert_eq!(accesses, budget);
        }

        /// Slot addressing is always inside the region, for both placements.
        #[test]
        fn slot_addresses_in_bounds(hp in 1u64..64, touched in 0.02f64..1.0, scattered: bool) {
            let bytes = hp * HUGE_PAGE_SIZE;
            let r = if scattered {
                RegionSpec::scattered("r", bytes, true, touched)
            } else {
                RegionSpec::dense("r", bytes, true)
            };
            for slot in [0, r.slots / 2, r.slots - 1] {
                let a = r.slot_addr(slot);
                prop_assert!(a >= r.addr.0 && a < r.addr.0 + bytes);
            }
        }
    }
}
