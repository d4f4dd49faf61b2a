//! Last-level cache model.
//!
//! A direct-mapped tag array over physical cache-line numbers. Only the LLC
//! is modeled explicitly — upper-level (L1/L2) hits are folded into the cost
//! model — because the quantities that matter to tiering are *LLC misses*:
//! they are what PEBS samples and what pays the tier latency.
//!
//! The cache is physically indexed, so migrating a page naturally invalidates
//! its old lines (their tags can never match again) and the destination
//! starts cold, as on real hardware.

use crate::addr::PhysAddr;

/// LLC statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct LlcStats {
    /// Accesses that hit in the LLC.
    pub hits: u64,
    /// Accesses that missed and were served by a memory tier.
    pub misses: u64,
}

impl LlcStats {
    /// Accumulates `other` into `self` (used to fold per-lane LLC slices
    /// into one machine-wide view).
    pub fn absorb(&mut self, other: &LlcStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Miss ratio in [0, 1]; zero when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Direct-mapped last-level cache.
#[derive(Debug)]
pub struct Llc {
    /// Tag per set; `u64::MAX` marks an empty set.
    tags: Vec<u64>,
    mask: u64,
    /// Running statistics.
    pub stats: LlcStats,
}

const EMPTY: u64 = u64::MAX;

impl Llc {
    /// Creates an LLC of approximately `bytes` capacity (rounded down to a
    /// power-of-two number of 64-byte lines, minimum one line).
    pub fn new(bytes: u64) -> Self {
        let lines = (bytes / crate::addr::CACHE_LINE_SIZE).max(1);
        let lines = if lines.is_power_of_two() {
            lines
        } else {
            (lines.next_power_of_two()) / 2
        }
        .max(1);
        Llc {
            tags: vec![EMPTY; lines as usize],
            mask: lines - 1,
            stats: LlcStats::default(),
        }
    }

    /// Number of lines in the cache.
    pub fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Performs one access; returns `true` on hit. Misses allocate the line
    /// (write-allocate for stores as well).
    #[inline]
    pub fn access(&mut self, paddr: PhysAddr) -> bool {
        let line = paddr.cache_line();
        let set = (line & self.mask) as usize;
        if self.tags[set] == line {
            self.stats.hits += 1;
            true
        } else {
            self.tags[set] = line;
            self.stats.misses += 1;
            false
        }
    }

    /// Drops all cached lines.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }
}

memtis_obs::snap_struct!(LlcStats { hits, misses });

memtis_obs::snap_struct!(in Llc { tags, stats } check |c: &mut Llc| {
    if c.tags.len() as u64 != c.mask + 1 {
        return Err(memtis_obs::SnapError::Corrupt("llc geometry"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_round_to_power_of_two_lines() {
        assert_eq!(Llc::new(64 * 100).lines(), 64);
        assert_eq!(Llc::new(64 * 128).lines(), 128);
        assert_eq!(Llc::new(1).lines(), 1);
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = Llc::new(64 * 64);
        assert!(!c.access(PhysAddr(0)));
        assert!(c.access(PhysAddr(32))); // Same line.
        assert!(!c.access(PhysAddr(64))); // Next line.
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = Llc::new(64 * 4); // 4 lines.
        assert!(!c.access(PhysAddr(0)));
        assert!(!c.access(PhysAddr(4 * 64))); // Maps to set 0, evicts line 0.
        assert!(!c.access(PhysAddr(0))); // Miss again.
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = Llc::new(64 * 256);
        // Touch 128 distinct lines twice: second round all hits.
        for round in 0..2 {
            for i in 0..128u64 {
                let hit = c.access(PhysAddr(i * 64));
                if round == 1 {
                    assert!(hit);
                }
            }
        }
        assert_eq!(c.stats.misses, 128);
        assert_eq!(c.stats.hits, 128);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Llc::new(64 * 16);
        c.access(PhysAddr(0));
        c.flush();
        assert!(!c.access(PhysAddr(0)));
    }
}
