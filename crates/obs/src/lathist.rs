//! Dependency-free HDR-style log-linear latency histograms.
//!
//! [`LatHist`] buckets non-negative integer nanosecond values into a
//! log-linear grid: every power-of-two octave is cut into `2^SUB_BITS = 32`
//! equal-width sub-buckets, and values below `2 * 32 = 64` get width-1
//! (exact) buckets. Reporting the bucket midpoint bounds the relative
//! error at `1 / (2 * 32) ≈ 1.6%` (well inside the 2.5% budget), while the
//! whole grid is only [`BUCKETS`] `u64` cells — small enough to keep one
//! histogram per (tier, page-size) class on the hot path.
//!
//! Histograms are **mergeable** and **differenceable**: bucket counts,
//! the total count, and the exact running sum are all plain `u64`s, so
//! [`LatHist::merge`] of per-window (or per-shard) histograms is
//! bit-exactly the histogram of the concatenated stream, and
//! [`LatHist::diff`] against an earlier snapshot yields the window in
//! between. The flight recorder uses cumulative snapshots + `diff` to cut
//! per-window percentile series without double-recording.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// log2 of the number of sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 2*SUB exact buckets below 64, then 32 per octave
/// for octaves 6..=63.
pub const BUCKETS: usize = (2 * SUB as usize) + ((63 - SUB_BITS as usize) * SUB as usize);

/// A mergeable log-linear latency histogram over `u64` nanoseconds.
#[derive(Clone, PartialEq, Eq)]
pub struct LatHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl std::fmt::Debug for LatHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatHist")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for value `v`.
///
/// Branch-free: values under `2 * SUB` are pinned to octave `SUB_BITS` by
/// the `| (2 * SUB - 1)` pad, which makes `shift = 0` and the general
/// formula collapse (with wrapping arithmetic) to the identity `v` on the
/// exact range. The hot demand tap sees latencies that alternate between
/// the exact range (LLC hits) and higher octaves (memory accesses), so a
/// two-region branch here mispredicts constantly; see the
/// `small_values_are_exact` / `index_low_width_are_consistent` tests for
/// the equivalence sweep.
#[inline]
fn index_of(v: u64) -> usize {
    // octave = floor(log2 max(v, 2*SUB - 1)) >= SUB_BITS
    let octave = 63 - (v | (2 * SUB - 1)).leading_zeros();
    let shift = octave - SUB_BITS;
    SUB.wrapping_add((octave as u64 - SUB_BITS as u64) * SUB)
        .wrapping_add((v >> shift).wrapping_sub(SUB)) as usize
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUB {
        i
    } else {
        let octave = SUB_BITS as u64 + (i - SUB) / SUB;
        let sub = i % SUB;
        let shift = octave - SUB_BITS as u64;
        (SUB + sub) << shift
    }
}

/// Width of bucket `i` (1 for the exact range).
#[inline]
fn bucket_width(i: usize) -> u64 {
    if (i as u64) < 2 * SUB {
        1
    } else {
        let octave = SUB_BITS as u64 + (i as u64 - SUB) / SUB;
        1u64 << (octave - SUB_BITS as u64)
    }
}

/// Representative value for bucket `i`: exact for width-1 buckets,
/// midpoint otherwise.
#[inline]
fn bucket_mid(i: usize) -> u64 {
    let w = bucket_width(i);
    bucket_low(i) + w / 2
}

impl LatHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatHist {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one `u64` nanosecond value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Records an `f64` nanosecond value, rounding half-up to `u64`.
    ///
    /// All tap sites use this one conversion so shard-merged and serial
    /// histograms agree bit-exactly. Negative / NaN inputs clamp to 0.
    #[inline]
    pub fn record_ns(&mut self, v: f64) {
        self.record(ns_to_u64(v));
    }

    /// Recorded sample count.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of the recorded (rounded) values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the smallest non-empty bucket (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&b| b > 0)
            .map(bucket_low)
            .unwrap_or(0)
    }

    /// Representative value of the largest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(bucket_mid)
            .unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`: the representative of the bucket
    /// containing the sample of rank `ceil(q * count)`. Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut rank = (q * self.count as f64).ceil() as u64;
        rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// p90 shorthand.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// p99.9 shorthand.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Adds every sample of `other` into `self` (bucket-wise `u64` add,
    /// so merging is associative, commutative, and bit-exact).
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Overwrites `self` with `other`'s contents, reusing the existing
    /// bucket allocation (unlike `clone()`, steady-state snapshotting
    /// allocates nothing).
    pub fn copy_from(&mut self, other: &LatHist) {
        self.buckets.copy_from_slice(&other.buckets);
        self.count = other.count;
        self.sum = other.sum;
    }

    /// Summary statistics of the whole histogram, computed in one bucket
    /// pass. Field-for-field identical to calling `count` / `mean` /
    /// `percentile` / `max` individually.
    pub fn stats(&self) -> HistStats {
        stats_from_fn(self.count, self.sum, |i| self.buckets[i])
    }

    /// Summary statistics of the samples recorded since snapshot `prev`
    /// (an earlier snapshot of this cumulative histogram), computed in one
    /// pass without materialising the difference histogram. Bit-exactly
    /// equal to `self.diff(prev).stats()`.
    pub fn stats_since(&self, prev: &LatHist) -> HistStats {
        let count = self
            .count
            .checked_sub(prev.count)
            .expect("LatHist::stats_since: not a prefix snapshot");
        let sum = self.sum.wrapping_sub(prev.sum);
        stats_from_fn(count, sum, |i| self.buckets[i] - prev.buckets[i])
    }

    /// The histogram of samples recorded since snapshot `prev` — the
    /// bucket-wise difference `self - prev`. `prev` must be an earlier
    /// snapshot of the same cumulative histogram (every bucket of `prev`
    /// ≤ the matching bucket of `self`); panics otherwise.
    pub fn diff(&self, prev: &LatHist) -> LatHist {
        let mut out = LatHist::new();
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(prev.buckets.iter()))
        {
            *o = a
                .checked_sub(*b)
                .expect("LatHist::diff: not a prefix snapshot");
        }
        out.count = self
            .count
            .checked_sub(prev.count)
            .expect("LatHist::diff: not a prefix snapshot");
        out.sum = self.sum.wrapping_sub(prev.sum);
        out
    }
}

/// The crate-wide `f64` nanoseconds → `u64` bucket-value conversion:
/// round half-up, clamp negatives/NaN to 0.
#[inline]
pub fn ns_to_u64(v: f64) -> u64 {
    // `as` saturates: negative and NaN go to 0, huge values to u64::MAX.
    (v + 0.5) as u64
}

/// One-pass summary of a histogram (or of a window between two cumulative
/// snapshots): exactly the fields the per-window report rows need, so the
/// window-cut path never materialises a difference histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistStats {
    /// Sample count.
    pub count: u64,
    /// Mean of the recorded (rounded) values; 0.0 when empty.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Representative value of the largest non-empty bucket.
    pub max: u64,
}

/// Computes [`HistStats`] over `count` samples whose per-bucket counts are
/// given by `bucket(i)`. Rank selection matches [`LatHist::percentile`]
/// exactly (rank `ceil(q * count)` clamped to `[1, count]`, bucket
/// midpoint reported), so stats computed through a difference closure are
/// bit-identical to stats of the materialised difference histogram.
fn stats_from_fn(count: u64, sum: u64, bucket: impl Fn(usize) -> u64) -> HistStats {
    if count == 0 {
        return HistStats::default();
    }
    let rank = |q: f64| ((q * count as f64).ceil() as u64).clamp(1, count);
    let ranks = [rank(0.50), rank(0.90), rank(0.99), rank(0.999)];
    let mut out = [0u64; 4];
    let mut k = 0;
    let mut seen = 0u64;
    let mut last = 0usize;
    for i in 0..BUCKETS {
        let d = bucket(i);
        if d == 0 {
            continue;
        }
        last = i;
        seen += d;
        while k < 4 && seen >= ranks[k] {
            out[k] = bucket_mid(i);
            k += 1;
        }
    }
    // `seen == count` by construction, so every rank is satisfied; the
    // backstop mirrors `percentile`'s final-bucket fallback.
    for slot in out.iter_mut().skip(k) {
        *slot = bucket_mid(last);
    }
    HistStats {
        count,
        mean: sum as f64 / count as f64,
        p50: out[0],
        p90: out[1],
        p99: out[2],
        p999: out[3],
        max: bucket_mid(last),
    }
}

/// The flight recorder: the full set of latency histograms one run (or
/// one machine) accumulates, plus the pending-abort table that feeds the
/// abort-to-retry lag histogram.
///
/// Demand histograms are cut per `(tier, page-size)` class; the tier axis
/// grows on demand so the recorder stays topology-agnostic. All fields
/// are cumulative; window series come from `clone()` snapshots and
/// [`LatHist::diff`].
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// Per-tier `[base, huge]` demand-access latency.
    demand: Vec<[LatHist; 2]>,
    /// Copy latency (start → successful completion) of migrations.
    pub transfer: LatHist,
    /// Enqueue → copy-start wait of migrations that reached the link.
    pub queue_wait: LatHist,
    /// Abort → next enqueue lag for the same page.
    pub abort_retry: LatHist,
    /// vpage → sim-time of its most recent abort, awaiting a retry.
    pending_aborts: std::collections::BTreeMap<u64, f64>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one demand access that resolved on `tier` with the given
    /// page size.
    #[inline]
    pub fn record_demand(&mut self, tier: u8, huge: bool, latency_ns: f64) {
        let t = tier as usize;
        if t >= self.demand.len() {
            self.demand.resize_with(t + 1, Default::default);
        }
        self.demand[t][huge as usize].record_ns(latency_ns);
    }

    /// The demand histogram for `(tier, huge)`, if any sample landed
    /// in that class (or any higher-tier class forced the axis to grow).
    pub fn demand(&self, tier: u8, huge: bool) -> Option<&LatHist> {
        self.demand.get(tier as usize).map(|h| &h[huge as usize])
    }

    /// Number of tiers the demand axis has grown to.
    pub fn demand_tiers(&self) -> usize {
        self.demand.len()
    }

    /// All demand classes merged into one histogram.
    pub fn demand_all(&self) -> LatHist {
        let mut out = LatHist::new();
        for per_tier in &self.demand {
            for h in per_tier {
                out.merge(h);
            }
        }
        out
    }

    /// [`HistStats`] of all demand classes merged, computed bucket-major
    /// across the classes without materialising the merged histogram.
    pub fn demand_all_stats(&self) -> HistStats {
        let (mut count, mut sum) = (0u64, 0u64);
        for per_tier in &self.demand {
            for h in per_tier {
                count += h.count;
                sum = sum.wrapping_add(h.sum);
            }
        }
        stats_from_fn(count, sum, |i| {
            self.demand
                .iter()
                .map(|t| t[0].buckets[i] + t[1].buckets[i])
                .sum()
        })
    }

    /// [`HistStats`] of all demand samples recorded since snapshot `prev`
    /// (an earlier snapshot of this cumulative recorder; tiers missing in
    /// `prev` count as empty). Bit-exactly equal to
    /// `self.diff(prev).demand_all().stats()`.
    pub fn demand_all_stats_since(&self, prev: &FlightRecorder) -> HistStats {
        let (mut count, mut sum) = (0u64, 0u64);
        for (t, per_tier) in self.demand.iter().enumerate() {
            for (s, h) in per_tier.iter().enumerate() {
                let p = prev.demand.get(t).map(|pt| &pt[s]);
                count += h.count - p.map_or(0, |p| p.count);
                sum = sum.wrapping_add(h.sum.wrapping_sub(p.map_or(0, |p| p.sum)));
            }
        }
        stats_from_fn(count, sum, |i| {
            self.demand
                .iter()
                .enumerate()
                .map(|(t, per_tier)| {
                    let cur = per_tier[0].buckets[i] + per_tier[1].buckets[i];
                    let old = prev
                        .demand
                        .get(t)
                        .map_or(0, |pt| pt[0].buckets[i] + pt[1].buckets[i]);
                    cur - old
                })
                .sum()
        })
    }

    /// Records the queue wait of a transfer that just started copying.
    #[inline]
    pub fn record_queue_wait(&mut self, wait_ns: f64) {
        self.queue_wait.record_ns(wait_ns);
    }

    /// Records the copy latency of a successfully completed transfer.
    #[inline]
    pub fn record_transfer(&mut self, copy_ns: f64) {
        self.transfer.record_ns(copy_ns);
    }

    /// Notes that the transfer covering `vpage` aborted at `now_ns`; the
    /// next enqueue of the same page records the abort-to-retry lag.
    #[inline]
    pub fn note_abort(&mut self, vpage: u64, now_ns: f64) {
        self.pending_aborts.insert(vpage, now_ns);
    }

    /// Notes an enqueue of `vpage` at `now_ns`, completing a pending
    /// abort-to-retry measurement if one exists.
    #[inline]
    pub fn note_enqueue(&mut self, vpage: u64, now_ns: f64) {
        if let Some(aborted_at) = self.pending_aborts.remove(&vpage) {
            self.abort_retry.record_ns(now_ns - aborted_at);
        }
    }

    /// The per-class histograms recorded since snapshot `prev` (an earlier
    /// clone of this cumulative recorder; missing tiers in `prev` count as
    /// empty). Pending-abort state is not differenced.
    pub fn diff(&self, prev: &FlightRecorder) -> FlightRecorder {
        let empty = LatHist::new();
        let mut out = FlightRecorder::new();
        out.demand = self
            .demand
            .iter()
            .enumerate()
            .map(|(t, per_tier)| {
                let prev_tier = prev.demand.get(t);
                [
                    per_tier[0].diff(prev_tier.map(|p| &p[0]).unwrap_or(&empty)),
                    per_tier[1].diff(prev_tier.map(|p| &p[1]).unwrap_or(&empty)),
                ]
            })
            .collect();
        out.transfer = self.transfer.diff(&prev.transfer);
        out.queue_wait = self.queue_wait.diff(&prev.queue_wait);
        out.abort_retry = self.abort_retry.diff(&prev.abort_retry);
        out
    }

    /// Merges another recorder's histograms into this one (pending-abort
    /// state is not merged; it is coordinator-local).
    pub fn merge(&mut self, other: &FlightRecorder) {
        if other.demand.len() > self.demand.len() {
            self.demand
                .resize_with(other.demand.len(), Default::default);
        }
        for (t, per_tier) in other.demand.iter().enumerate() {
            for (s, h) in per_tier.iter().enumerate() {
                self.demand[t][s].merge(h);
            }
        }
        self.transfer.merge(&other.transfer);
        self.queue_wait.merge(&other.queue_wait);
        self.abort_retry.merge(&other.abort_retry);
    }

    /// Overwrites `self` with a snapshot of `other`'s histograms, reusing
    /// bucket allocations — the window-cut path calls this instead of
    /// `clone()`, so steady-state cuts allocate nothing once the tier axis
    /// has stabilised. The pending-abort table is not copied (snapshots
    /// only feed [`FlightRecorder::diff`]-style reads).
    pub fn snapshot_from(&mut self, other: &FlightRecorder) {
        if self.demand.len() < other.demand.len() {
            self.demand
                .resize_with(other.demand.len(), Default::default);
        }
        for (dst, src) in self.demand.iter_mut().zip(other.demand.iter()) {
            dst[0].copy_from(&src[0]);
            dst[1].copy_from(&src[1]);
        }
        self.transfer.copy_from(&other.transfer);
        self.queue_wait.copy_from(&other.queue_wait);
        self.abort_retry.copy_from(&other.abort_retry);
    }
}

/// Sparse: the non-zero `(bucket index, count)` pairs, then the sample
/// count and sum. The count must equal the bucket total.
impl Snap for LatHist {
    const MIN_BYTES: usize = 4 + 8 + 8;
    fn save(&self, w: &mut SnapWriter) {
        let nonzero: Vec<(u32, u64)> = (0u32..)
            .zip(self.buckets.iter().copied())
            .filter(|&(_, b)| b != 0)
            .collect();
        w.put(&nonzero);
        w.put(&self.count);
        w.put(&self.sum);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nonzero: Vec<(u32, u64)> = r.get()?;
        if nonzero.len() > BUCKETS {
            return Err(SnapError::Corrupt("lathist bucket count"));
        }
        let mut out = LatHist::new();
        let mut total = 0u64;
        for (i, b) in nonzero {
            let slot = out
                .buckets
                .get_mut(i as usize)
                .ok_or(SnapError::Corrupt("lathist bucket index"))?;
            *slot = b;
            total = total.wrapping_add(b);
        }
        out.count = r.get()?;
        out.sum = r.get()?;
        if total != out.count {
            return Err(SnapError::Corrupt("lathist count mismatch"));
        }
        Ok(out)
    }
}

// The pending abort-to-retry map is live simulation state: an enqueue
// after resume must still complete its measurement.
crate::snap_struct!(in FlightRecorder {
    demand,
    transfer,
    queue_wait,
    abort_retry,
    pending_aborts,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for property-style sweeps without pulling
    /// in an RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn bucket_count_matches_constant() {
        // Highest index actually reachable is for u64::MAX.
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
        assert_eq!(index_of(0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatHist::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for v in 0..64u64 {
            assert_eq!(bucket_mid(index_of(v)), v, "value {v} not exact");
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn index_low_width_are_consistent() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for _ in 0..20_000 {
            let v = rng.next() >> (rng.next() % 64);
            let i = index_of(v);
            let low = bucket_low(i);
            let w = bucket_width(i);
            assert!(low <= v, "low {low} > v {v}");
            assert!(v - low < w, "v {v} outside bucket [{low}, {low}+{w})");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_low(i + 1), low + w, "buckets not contiguous at {i}");
            }
        }
    }

    #[test]
    fn relative_error_within_budget() {
        let mut rng = Rng(42);
        for _ in 0..50_000 {
            let v = (rng.next() % (1 << 40)).max(1);
            let rep = bucket_mid(index_of(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.025, "value {v} rep {rep} err {err}");
        }
    }

    #[test]
    fn percentiles_track_uniform_stream() {
        let mut h = LatHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            assert!(
                (got - want).abs() / want <= 0.025,
                "q={q} got {got} want {want}"
            );
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.percentile(0.0), bucket_mid(index_of(1)));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatHist::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_of_windows_equals_whole_run_bit_exactly() {
        // Property sweep: random stream, random window boundaries; the
        // merge of per-window histograms must equal the whole-run
        // histogram bit-for-bit (buckets, count, and sum).
        let mut rng = Rng(0xdeadbeefcafef00d);
        for case in 0..50 {
            let n = 200 + (rng.next() % 2_000) as usize;
            let mut whole = LatHist::new();
            let mut merged = LatHist::new();
            let mut window = LatHist::new();
            for i in 0..n {
                let v = rng.next() >> (rng.next() % 50);
                whole.record(v);
                window.record(v);
                // Random window cut ~ every 64 samples on average.
                if rng.next().is_multiple_of(64) || i == n - 1 {
                    merged.merge(&window);
                    window = LatHist::new();
                }
            }
            merged.merge(&window);
            assert_eq!(whole, merged, "case {case}: window merge diverged");
        }
    }

    #[test]
    fn diff_of_cumulative_snapshots_recovers_windows() {
        let mut rng = Rng(7);
        let mut cum = LatHist::new();
        let mut prev = cum.clone();
        let mut remerged = LatHist::new();
        for _ in 0..10 {
            for _ in 0..500 {
                cum.record(rng.next() % 1_000_000);
            }
            let win = cum.diff(&prev);
            remerged.merge(&win);
            prev = cum.clone();
        }
        assert_eq!(cum, remerged);
    }

    #[test]
    fn stats_match_individual_accessors() {
        let mut rng = Rng(0xabcdef12345);
        let mut h = LatHist::new();
        for _ in 0..30_000 {
            h.record(rng.next() >> (rng.next() % 50));
        }
        let s = h.stats();
        assert_eq!(s.count, h.count());
        assert_eq!(s.mean, h.mean());
        assert_eq!(s.p50, h.p50());
        assert_eq!(s.p90, h.p90());
        assert_eq!(s.p99, h.p99());
        assert_eq!(s.p999, h.p999());
        assert_eq!(s.max, h.max());
    }

    #[test]
    fn stats_since_equals_materialised_diff() {
        let mut rng = Rng(0x5151515151);
        let mut cum = LatHist::new();
        let mut prev = cum.clone();
        for _ in 0..8 {
            for _ in 0..700 {
                cum.record(rng.next() % 5_000_000);
            }
            let lazy = cum.stats_since(&prev);
            let strict = cum.diff(&prev).stats();
            assert_eq!(lazy, strict);
            prev = cum.clone();
        }
        // Empty window.
        assert_eq!(cum.stats_since(&cum.clone()), HistStats::default());
    }

    #[test]
    fn record_demand_matches_per_class_oracle() {
        // Alternating classes and values must land bit-identically in the
        // per-class histograms a raw `record_ns` oracle builds.
        let mut rng = Rng(99);
        let mut rec = FlightRecorder::new();
        let mut oracle: Vec<[LatHist; 2]> = vec![Default::default(), Default::default()];
        let values = [100.25f64, 100.25, 380.0, 47.5, 380.0];
        for _ in 0..50_000 {
            let tier = (rng.next() % 2) as u8;
            let huge = rng.next().is_multiple_of(4);
            let v = values[(rng.next() % values.len() as u64) as usize];
            rec.record_demand(tier, huge, v);
            oracle[tier as usize][huge as usize].record_ns(v);
        }
        for t in 0..2u8 {
            for huge in [false, true] {
                assert_eq!(
                    rec.demand(t, huge).unwrap(),
                    &oracle[t as usize][huge as usize],
                    "class ({t}, {huge}) diverged"
                );
            }
        }
    }

    #[test]
    fn demand_all_stats_since_matches_diff_path() {
        let mut rng = Rng(0x777);
        let mut rec = FlightRecorder::new();
        let mut prev = rec.clone();
        for _ in 0..6 {
            for _ in 0..2_000 {
                rec.record_demand(
                    (rng.next() % 3) as u8,
                    rng.next().is_multiple_of(2),
                    (rng.next() % 100_000) as f64,
                );
            }
            let lazy = rec.demand_all_stats_since(&prev);
            let strict = rec.diff(&prev).demand_all().stats();
            assert_eq!(lazy, strict);
            assert_eq!(rec.demand_all_stats(), rec.demand_all().stats());
            prev.snapshot_from(&rec);
        }
    }

    #[test]
    fn snapshot_from_equals_clone() {
        let mut rec = FlightRecorder::new();
        for i in 0..5_000u64 {
            rec.record_demand((i % 2) as u8, i % 8 == 0, (i % 977) as f64);
            if i % 7 == 0 {
                rec.record_transfer(i as f64);
                rec.record_queue_wait((i / 2) as f64);
            }
        }
        let mut snap = FlightRecorder::new();
        snap.snapshot_from(&rec);
        // The snapshot diffs cleanly against the source: empty window.
        assert_eq!(rec.demand_all_stats_since(&snap), HistStats::default());
        assert!(rec.diff(&snap).demand_all().is_empty());
        assert_eq!(rec.diff(&snap).transfer.count(), 0);
    }

    #[test]
    fn ns_conversion_rounds_half_up_and_clamps() {
        assert_eq!(ns_to_u64(0.0), 0);
        assert_eq!(ns_to_u64(0.49), 0);
        assert_eq!(ns_to_u64(0.5), 1);
        assert_eq!(ns_to_u64(99.9), 100);
        assert_eq!(ns_to_u64(-5.0), 0);
        assert_eq!(ns_to_u64(f64::NAN), 0);
    }
}
