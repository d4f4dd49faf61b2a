//! Two-queue (active/inactive) LRU lists.
//!
//! The substrate beneath TPP: a page enters the inactive list on first
//! sight and is *activated* on its second access — the static "accessed
//! twice" hotness threshold the paper criticizes. Eviction (demotion)
//! candidates come from the inactive tail; aging moves stale active pages
//! back to inactive.
//!
//! Implemented as generation-tagged queues with a hash map as the source of
//! truth, giving O(1) amortized operations with lazy removal of stale queue
//! entries.

use memtis_sim::prelude::{DetHashMap, VirtPage};
use std::collections::VecDeque;

/// Which list a page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListKind {
    /// Recently activated pages (hot candidates).
    Active,
    /// Newly seen or aged pages (eviction candidates).
    Inactive,
}

/// The two-queue structure.
#[derive(Debug, Default)]
pub struct Lru2Q {
    map: DetHashMap<VirtPage, (ListKind, u64)>,
    active: VecDeque<(VirtPage, u64)>,
    inactive: VecDeque<(VirtPage, u64)>,
    next_gen: u64,
    active_len: usize,
    inactive_len: usize,
}

impl Lru2Q {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages on the active list.
    pub fn active_len(&self) -> usize {
        self.active_len
    }

    fn fresh_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    /// Starts tracking `page` on the inactive list (first sight). Re-inserts
    /// to the inactive head if already tracked.
    pub fn insert_inactive(&mut self, page: VirtPage) {
        let gen = self.fresh_gen();
        match self.map.insert(page, (ListKind::Inactive, gen)) {
            Some((ListKind::Active, _)) => {
                self.active_len -= 1;
                self.inactive_len += 1;
            }
            Some((ListKind::Inactive, _)) => {}
            None => self.inactive_len += 1,
        }
        self.inactive.push_back((page, gen));
    }

    /// Records an access: inactive pages are activated (the "second access"
    /// promotion rule), active pages are refreshed, untracked pages are
    /// ignored.
    pub fn on_access(&mut self, page: VirtPage) {
        let Some(&(kind, _)) = self.map.get(&page) else {
            return;
        };
        let gen = self.fresh_gen();
        self.map.insert(page, (ListKind::Active, gen));
        self.active.push_back((page, gen));
        if kind == ListKind::Inactive {
            self.inactive_len -= 1;
            self.active_len += 1;
        }
    }

    /// Stops tracking `page`.
    pub fn remove(&mut self, page: VirtPage) {
        if let Some((kind, _)) = self.map.remove(&page) {
            match kind {
                ListKind::Active => self.active_len -= 1,
                ListKind::Inactive => self.inactive_len -= 1,
            }
        }
    }

    /// Pops the coldest inactive page (eviction/demotion victim).
    pub fn pop_inactive(&mut self) -> Option<VirtPage> {
        while let Some((page, gen)) = self.inactive.pop_front() {
            if self.map.get(&page) == Some(&(ListKind::Inactive, gen)) {
                self.map.remove(&page);
                self.inactive_len -= 1;
                return Some(page);
            }
        }
        None
    }

    /// Ages the oldest active page back to the inactive list; returns it.
    pub fn deactivate_oldest(&mut self) -> Option<VirtPage> {
        while let Some((page, gen)) = self.active.pop_front() {
            if self.map.get(&page) == Some(&(ListKind::Active, gen)) {
                let g = self.fresh_gen();
                self.map.insert(page, (ListKind::Inactive, g));
                self.inactive.push_back((page, g));
                self.active_len -= 1;
                self.inactive_len += 1;
                return Some(page);
            }
        }
        None
    }
}

memtis_sim::obs::snap_enum!(ListKind { 0 => Active, 1 => Inactive });

// The map travels sorted by page, so the bytes do not depend on the hash
// table's layout; it is only ever accessed by key.
memtis_sim::obs::snap_struct!(Lru2Q {
    map,
    active,
    inactive,
    next_gen,
    active_len,
    inactive_len,
} check |q: &Lru2Q| {
    if q.active_len + q.inactive_len != q.map.len() {
        return Err(memtis_sim::obs::SnapError::Corrupt("lru2q list counts"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    /// The list `page` is on, if it is tracked.
    fn list_of(q: &Lru2Q, page: VirtPage) -> Option<ListKind> {
        q.map.get(&page).map(|&(kind, _)| kind)
    }

    #[test]
    fn second_access_activates() {
        let mut q = Lru2Q::new();
        q.insert_inactive(VirtPage(1));
        assert_eq!(list_of(&q, VirtPage(1)), Some(ListKind::Inactive));
        q.on_access(VirtPage(1));
        assert_eq!(list_of(&q, VirtPage(1)), Some(ListKind::Active));
        q.on_access(VirtPage(1));
        assert_eq!(list_of(&q, VirtPage(1)), Some(ListKind::Active));
        q.on_access(VirtPage(9));
        assert_eq!(list_of(&q, VirtPage(9)), None);
        assert_eq!(q.active_len(), 1);
        assert_eq!(q.inactive_len, 0);
    }

    #[test]
    fn pop_inactive_is_fifo_and_skips_activated() {
        let mut q = Lru2Q::new();
        for i in 0..4u64 {
            q.insert_inactive(VirtPage(i));
        }
        q.on_access(VirtPage(0)); // Activated: no longer an eviction victim.
        assert_eq!(q.pop_inactive(), Some(VirtPage(1)));
        assert_eq!(q.pop_inactive(), Some(VirtPage(2)));
        assert_eq!(q.pop_inactive(), Some(VirtPage(3)));
        assert_eq!(q.pop_inactive(), None);
        assert_eq!(q.map.len(), 1);
    }

    #[test]
    fn deactivate_ages_oldest_active() {
        let mut q = Lru2Q::new();
        for i in 0..3u64 {
            q.insert_inactive(VirtPage(i));
            q.on_access(VirtPage(i));
        }
        assert_eq!(q.deactivate_oldest(), Some(VirtPage(0)));
        assert_eq!(list_of(&q, VirtPage(0)), Some(ListKind::Inactive));
        // Refreshing 1 pushes it behind 2 in age order.
        q.on_access(VirtPage(1));
        assert_eq!(q.deactivate_oldest(), Some(VirtPage(2)));
        assert_eq!(q.active_len(), 1);
        assert_eq!(q.inactive_len, 2);
    }

    #[test]
    fn remove_untracks() {
        let mut q = Lru2Q::new();
        q.insert_inactive(VirtPage(5));
        q.remove(VirtPage(5));
        assert!(q.map.is_empty());
        assert_eq!(q.pop_inactive(), None);
    }

    #[test]
    fn reinsert_moves_back_to_inactive() {
        let mut q = Lru2Q::new();
        q.insert_inactive(VirtPage(7));
        q.on_access(VirtPage(7));
        assert_eq!(q.active_len(), 1);
        q.insert_inactive(VirtPage(7));
        assert_eq!(q.active_len(), 0);
        assert_eq!(q.inactive_len, 1);
        assert_eq!(q.pop_inactive(), Some(VirtPage(7)));
    }

    #[test]
    fn counts_stay_consistent_under_churn() {
        let mut q = Lru2Q::new();
        for i in 0..100u64 {
            q.insert_inactive(VirtPage(i % 10));
            if i % 3 == 0 {
                q.on_access(VirtPage(i % 10));
            }
            if i % 7 == 0 {
                q.pop_inactive();
            }
            if i % 11 == 0 {
                q.deactivate_oldest();
            }
            assert_eq!(q.active_len() + q.inactive_len, q.map.len());
        }
    }
}
