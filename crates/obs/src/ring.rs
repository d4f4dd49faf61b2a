//! Fixed-capacity, drop-oldest event ring.
//!
//! The ring is a single-writer structure with no interior locking: a push
//! is an index bump plus a slot write (no allocation once the buffer has
//! filled), so tracing cannot introduce lock contention or allocator
//! traffic into the simulation loop. On overflow the *oldest* event is
//! overwritten and the dropped count grows — recent history is always
//! retained, which is what post-mortem debugging wants.

use crate::event::Event;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Default ring capacity (events retained).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A fixed-capacity event ring with drop-oldest overflow semantics.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<Event>,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    /// Total events ever pushed (retained + dropped).
    pushed: u64,
    cap: usize,
}

impl EventRing {
    /// Creates a ring retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(cap.min(1024)),
            start: 0,
            pushed: 0,
            cap,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event was ever retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed, including dropped ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overflow (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Sequence number of the oldest retained event (equals the dropped
    /// count, since drops are strictly oldest-first).
    pub fn first_seq(&self) -> u64 {
        self.dropped()
    }

    /// Appends an event, overwriting the oldest if the ring is full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start += 1;
            if self.start == self.cap {
                self.start = 0;
            }
        }
        self.pushed += 1;
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

/// Capacity, push count, then the retained events oldest-first. Loading
/// re-lays them from slot 0 (`start = 0`), which is observably identical
/// to the saved layout.
impl Snap for EventRing {
    const MIN_BYTES: usize = 8 + 8 + 4;
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.cap);
        w.put(&self.pushed);
        w.count(self.buf.len());
        for ev in self.iter() {
            w.put(ev);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cap: usize = r.get()?;
        let pushed: u64 = r.get()?;
        let buf: Vec<Event> = r.get()?;
        if cap == 0 || buf.len() > cap || (pushed as usize) < buf.len() {
            return Err(SnapError::Corrupt("event ring shape"));
        }
        Ok(EventRing {
            buf,
            start: 0,
            pushed,
            cap,
        })
    }
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(i: u64) -> Event {
        Event::new(
            i as f64,
            EventKind::TlbShootdown {
                vpage: i,
                cause: crate::event::ShootdownCause::Unmap,
            },
        )
    }

    #[test]
    fn push_below_capacity_retains_everything() {
        let mut r = EventRing::with_capacity(4);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let ts: Vec<f64> = r.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = EventRing::with_capacity(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.first_seq(), 6);
        // Oldest-first order of the retained suffix.
        let ts: Vec<f64> = r.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn snap_round_trips_wrapped_ring() {
        let mut r = EventRing::with_capacity(4);
        for i in 0..11 {
            r.push(ev(i));
        }
        let mut w = SnapWriter::new();
        w.put(&r);
        let bytes = w.finish().unwrap();
        let mut rd = SnapReader::new(&bytes);
        let back: EventRing = rd.get().unwrap();
        rd.expect_end().unwrap();
        assert_eq!(back.capacity(), r.capacity());
        assert_eq!(back.pushed(), r.pushed());
        assert_eq!(back.dropped(), r.dropped());
        let a: Vec<Event> = r.iter().copied().collect();
        let b: Vec<Event> = back.iter().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn capacity_clamped_to_one() {
        let mut r = EventRing::with_capacity(0);
        r.push(ev(0));
        r.push(ev(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.iter().next().unwrap().t_ns, 1.0);
    }
}
