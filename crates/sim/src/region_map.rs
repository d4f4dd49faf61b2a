//! Region-keyed map: one value per 2 MiB virtual region.
//!
//! A region is a virtual page number shifted right by 9 (`vpn >> 9`), the
//! full number with no bits dropped, so regions that differ anywhere in the
//! address never share an entry. The page table keeps one PMD slot per
//! region here, and MEMTIS keeps one 512-slot page-metadata slab per region
//! (`memtis_core::RegionTable`).
//!
//! The map has three parts:
//!
//! - an index from region to a stable slot position, hashed with one
//!   Fibonacci multiply;
//! - a direct-mapped memo from region to position in [`Cell`]s, so shared
//!   lookups refresh it too. It stores positions, not pointers, and a hit
//!   counts only when the slot at that position still carries the probed
//!   region's tag, so a position freed and handed to another region can
//!   never alias. The memo is pure host-speed machinery: it changes no
//!   result;
//! - slot storage whose freed positions are recycled.
//!
//! Iteration visits regions in ascending order, whatever the insertion and
//! removal history.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Tag of a memo way that holds nothing. No region number reaches it: a
/// region is a page number shifted right by 9.
const NO_REGION: u64 = u64::MAX;

/// Ways of the memo. A power of two so the way is a mask; 1024 regions
/// cover 2 GiB of virtual space.
const MEMO_WAYS: usize = 1024;

/// Multiplicative (Fibonacci) hash of a region number, its high half folded
/// into the low bits the index probes by: one multiply where SipHash takes
/// a dozen rounds. Unkeyed, and nothing depends on the index's own order,
/// since every iteration sorts by region first.
#[derive(Default)]
struct RegionHasher(u64);

impl Hasher for RegionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, region: u64) {
        let h = region.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A map from region number (`vpn >> 9`) to `T`; see the module docs.
#[derive(Debug)]
pub struct RegionMap<T> {
    /// Region → position in `slots`.
    index: HashMap<u64, u32, BuildHasherDefault<RegionHasher>>,
    /// `(region, value)` per position; `None` while the position is free.
    slots: Vec<Option<(u64, T)>>,
    /// Free positions, reused before `slots` grows.
    free: Vec<u32>,
    /// Way `region & (MEMO_WAYS - 1)` holds `(region, position)` of the
    /// last lookup that resolved there.
    memo: Box<[Cell<(u64, u32)>]>,
}

impl<T> Default for RegionMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RegionMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        RegionMap {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            memo: (0..MEMO_WAYS).map(|_| Cell::new((NO_REGION, 0))).collect(),
        }
    }

    /// Resolves `region` to its position: the memo way first, checked
    /// against the slot's own tag, then the index.
    #[inline]
    fn position(&self, region: u64) -> Option<usize> {
        let way = &self.memo[region as usize & (MEMO_WAYS - 1)];
        let (tag, pos) = way.get();
        if tag == region && matches!(&self.slots[pos as usize], Some((r, _)) if *r == region) {
            return Some(pos as usize);
        }
        let pos = *self.index.get(&region)?;
        way.set((region, pos));
        Some(pos as usize)
    }

    /// The value of `region`, if held.
    #[inline]
    pub fn get(&self, region: u64) -> Option<&T> {
        let pos = self.position(region)?;
        self.slots[pos].as_ref().map(|(_, v)| v)
    }

    /// The value of `region`, mutably, if held.
    #[inline]
    pub fn get_mut(&mut self, region: u64) -> Option<&mut T> {
        let pos = self.position(region)?;
        self.slots[pos].as_mut().map(|(_, v)| v)
    }

    /// The value of `region`, inserting `make()` first if it is not held.
    pub fn get_or_insert_with(&mut self, region: u64, make: impl FnOnce() -> T) -> &mut T {
        let pos = match self.position(region) {
            Some(pos) => pos,
            None => {
                let pos = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    (self.slots.len() - 1) as u32
                });
                self.index.insert(region, pos);
                pos as usize
            }
        };
        match &mut self.slots[pos] {
            Some((_, v)) => v,
            free => &mut free.insert((region, make())).1,
        }
    }

    /// Removes `region`, returning its value; its position is recycled.
    pub fn remove(&mut self, region: u64) -> Option<T> {
        let pos = self.index.remove(&region)?;
        self.free.push(pos);
        self.slots[pos as usize].take().map(|(_, v)| v)
    }

    /// `(region, position)` of every held region, in ascending region
    /// order.
    fn ordered(&self) -> Vec<(u64, u32)> {
        let mut order: Vec<(u64, u32)> = self.index.iter().map(|(&r, &p)| (r, p)).collect();
        order.sort_unstable();
        order
    }

    /// Every held region and its value, in ascending region order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.ordered().into_iter().filter_map(move |(region, pos)| {
            self.slots[pos as usize].as_ref().map(|(_, v)| (region, v))
        })
    }

    /// Calls `f` on every held region and its value, mutably, in ascending
    /// region order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u64, &mut T)) {
        for (region, pos) in self.ordered() {
            if let Some((_, v)) = &mut self.slots[pos as usize] {
                f(region, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = RegionMap::new();
        assert_eq!(m.get(3), None);
        *m.get_or_insert_with(3, || 30) += 1;
        assert_eq!(*m.get_or_insert_with(3, || 99), 31);
        m.get_or_insert_with(1 << 40, || 7);
        assert_eq!(m.iter().count(), 2);
        assert_eq!(m.get(3), Some(&31));
        assert_eq!(m.get(1 << 40), Some(&7));
        assert_eq!(m.get(4), None);
        assert_eq!(m.remove(3), Some(31));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.get(3), None);
        assert_eq!(m.iter().count(), 1);
    }

    #[test]
    fn regions_in_one_memo_way_stay_apart() {
        let mut m = RegionMap::new();
        let ways = MEMO_WAYS as u64;
        for k in 0..4 {
            m.get_or_insert_with(5 + k * ways, || k);
        }
        for _ in 0..2 {
            for k in 0..4 {
                assert_eq!(m.get(5 + k * ways), Some(&k));
            }
        }
        assert_eq!(m.get(5 + 4 * ways), None);
    }

    #[test]
    fn recycled_positions_do_not_alias() {
        let mut m = RegionMap::new();
        m.get_or_insert_with(0, || "a");
        m.get_or_insert_with(1, || "b");
        // Warm the memo on region 0, then free its position.
        assert_eq!(m.get(0), Some(&"a"));
        m.remove(0);
        assert_eq!(m.get(0), None);
        // Region 2 reuses the position region 0 held; the memo's stale
        // `(0, position)` way must miss, not answer with region 2's value.
        m.get_or_insert_with(2, || "c");
        assert_eq!(m.slots.len(), 2);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(2), Some(&"c"));
        assert_eq!(m.get(1), Some(&"b"));
        // A region in the freed region's memo way does not alias either.
        let same_way = MEMO_WAYS as u64;
        assert_eq!(m.get(same_way), None);
    }

    #[test]
    fn iteration_is_ascending_whatever_the_history() {
        let mut m = RegionMap::new();
        for r in [9u64, 1 << 43, 2, 1025, 0, 7] {
            m.get_or_insert_with(r, || r * 10);
        }
        m.remove(2);
        m.get_or_insert_with(4, || 40);
        let order: Vec<(u64, u64)> = m.iter().map(|(r, v)| (r, *v)).collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (4, 40),
                (7, 70),
                (9, 90),
                (1025, 10250),
                (1 << 43, 10 << 43)
            ]
        );
        let mut seen = Vec::new();
        m.for_each_mut(|r, v| {
            *v += 1;
            seen.push(r);
        });
        assert_eq!(seen, vec![0, 4, 7, 9, 1025, 1 << 43]);
        assert_eq!(m.get(7), Some(&71));
    }
}
