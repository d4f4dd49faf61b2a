//! Asynchronous migration engine: bandwidth-arbitrated, abortable in-flight
//! transfers.
//!
//! Real `kmigrated` threads move pages *over time*: a migration occupies the
//! copy bandwidth of the link between two tiers, can be overtaken by a
//! hotness change, and must cope with the application writing the page
//! mid-copy. This module models that as **copy-then-remap** transfers
//! (Nomad-style transactional migration):
//!
//! 1. **Enqueued** — the destination frame is reserved immediately (so tier
//!    accounting reflects the commitment), but the page keeps translating to
//!    its source frame. Admission is bounded by
//!    [`crate::config::MigrationConfig::queue_depth`].
//! 2. **Copying** — each tier pair forms one *link* whose bandwidth is the
//!    minimum of the two tiers' copy bandwidths, optionally capped by
//!    [`crate::config::MigrationConfig::bandwidth_limit`]. One transfer
//!    copies per link at a time; the next is chosen by highest priority,
//!    then FIFO. Reads keep hitting the source copy for the whole duration.
//! 3. **Completed** — when the copy pass finishes clean, the machine remaps
//!    the page to the reserved frame, frees the source frame, and performs
//!    the TLB shootdown.
//! 4. **Dirtied / aborted** — a store to an in-flight page marks the pass
//!    dirty; a dirty pass is re-copied up to
//!    [`crate::config::MigrationConfig::max_recopies`] times, then the
//!    transfer aborts and the reservation is released. Policies may also
//!    abort transfers explicitly (e.g. MEMTIS cancelling a promotion whose
//!    page cooled below the hot threshold).
//!
//! Progress advances only inside [`crate::machine::Machine::pump_transfers`],
//! which the driver calls on the simulated wall clock — never host time —
//! so transfer interleaving is deterministic: same seed, same schedule.
//! With `bandwidth_limit = None` the engine is never engaged and migrations
//! retain the legacy instantaneous semantics bit-exactly.

use crate::addr::{Frame, PageSize, TierId, VirtPage, BASE_PAGE_SIZE};
use crate::machine::MigrateOutcome;

/// Identifier of a queued or in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

impl std::fmt::Display for TransferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xfer{}", self.0)
    }
}

/// Why a transfer ended without remapping the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// The issuing policy aborted the transfer (e.g. the page cooled below
    /// the hot threshold while its promotion was still in flight).
    Cancelled,
    /// Stores kept dirtying the source page past the re-copy budget.
    Dirty,
    /// The mapping changed under the transfer (unmap, split, collapse, or
    /// re-allocation), so the copied data no longer describes the page.
    Superseded,
}

/// Result of asking the machine to migrate a page.
///
/// With an unlimited migration link the move completes synchronously and the
/// caller gets the familiar [`MigrateOutcome`]; under bandwidth arbitration
/// the move is admitted as an in-flight transfer instead and completes (or
/// aborts) during a later pump.
#[derive(Debug, Clone, Copy)]
pub enum MigrationHandle {
    /// The migration completed synchronously (unlimited-bandwidth mode).
    Done(MigrateOutcome),
    /// The migration was admitted and is pending or copying.
    InFlight {
        /// Handle for abort / tracking.
        id: TransferId,
        /// Source tier at admission time.
        from: TierId,
        /// Destination tier.
        to: TierId,
        /// Bytes the transfer will copy.
        bytes: u64,
    },
}

impl MigrationHandle {
    /// Bytes moved (or committed to move).
    pub fn bytes(&self) -> u64 {
        match self {
            MigrationHandle::Done(out) => out.bytes,
            MigrationHandle::InFlight { bytes, .. } => *bytes,
        }
    }

    /// The synchronous outcome, if the migration already completed.
    pub fn outcome(&self) -> Option<&MigrateOutcome> {
        match self {
            MigrationHandle::Done(out) => Some(out),
            MigrationHandle::InFlight { .. } => None,
        }
    }

    /// The transfer id, if the migration is in flight.
    pub fn transfer_id(&self) -> Option<TransferId> {
        match self {
            MigrationHandle::Done(_) => None,
            MigrationHandle::InFlight { id, .. } => Some(*id),
        }
    }

    /// Whether the migration completed synchronously.
    pub fn is_done(&self) -> bool {
        matches!(self, MigrationHandle::Done(_))
    }
}

/// Terminal record of a transfer, reported back to the issuing policy.
#[derive(Debug, Clone, Copy)]
pub struct TransferEnd {
    /// The transfer's id.
    pub id: TransferId,
    /// Page the transfer covered.
    pub vpage: VirtPage,
    /// Mapping size at admission.
    pub size: PageSize,
    /// Source tier.
    pub from: TierId,
    /// Destination tier.
    pub to: TierId,
    /// Bytes the transfer was to copy.
    pub bytes: u64,
    /// Copy work discarded (whole passes; an interrupted pass counts full).
    pub wasted_bytes: u64,
    /// `None` if the page was remapped; otherwise why the transfer died.
    pub aborted: Option<AbortCause>,
}

/// Engine progress notification surfaced by
/// [`crate::machine::Machine::pump_transfers`].
#[derive(Debug, Clone, Copy)]
pub enum EngineEvent {
    /// A queued transfer won its link and began copying.
    Started {
        /// The transfer's id.
        id: TransferId,
        /// Page being copied.
        vpage: VirtPage,
        /// Source tier.
        from: TierId,
        /// Destination tier.
        to: TierId,
        /// Bytes being copied.
        bytes: u64,
    },
    /// A transfer finished — remapped on success, reservation released on
    /// abort.
    Ended(TransferEnd),
    /// A retained shadow frame was invalidated and freed (shadow mode
    /// only): a store, unmap, split, collapse, re-migration, or capacity
    /// reclaim made the clean source copy stale.
    ShadowReclaimed {
        /// Base vpage of the mapping the shadow belonged to.
        vpage: VirtPage,
        /// Tier the shadow frame lived on.
        tier: TierId,
        /// Bytes returned to the tier.
        bytes: u64,
    },
}

/// One queued or copying transfer.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    pub id: TransferId,
    pub vpage: VirtPage,
    pub size: PageSize,
    pub from: TierId,
    pub to: TierId,
    pub src_frame: Frame,
    pub dst_frame: Frame,
    pub bytes: u64,
    pub priority: u8,
    pub enqueued_ns: f64,
    /// Admission order; breaks priority ties deterministically.
    seq: u64,
    /// Whether a copy pass has begun.
    pub started: bool,
    /// Time the first copy pass began (valid once started; unlike
    /// `start_ns` it survives dirty re-copies, so `end_ns -
    /// first_start_ns` is the full copy latency including restarts).
    pub first_start_ns: f64,
    /// Time the current copy pass began (valid once started).
    pub start_ns: f64,
    /// Time the current copy pass will finish (valid once started).
    pub end_ns: f64,
    /// A store dirtied the source during the current pass.
    pub dirty: bool,
    /// Copy passes restarted because the source was dirtied.
    pub recopies: u32,
    /// Copy passes whose work was discarded (restarts + aborted passes).
    pub wasted_passes: u32,
    /// The *current* pass has already been counted in `wasted_passes`.
    /// Both waste sites (`pump`'s dirty branch and `remove`'s interrupted
    /// active branch) go through [`Transfer::waste_current_pass`], so no
    /// interleaving of dirty stores, injected faults, and policy aborts can
    /// charge one copy pass twice; the flag resets when a dirty re-copy
    /// starts a fresh pass.
    pub pass_wasted: bool,
}

impl Transfer {
    fn pages(&self) -> u64 {
        self.bytes / BASE_PAGE_SIZE
    }

    /// Whether this transfer's page range overlaps `[vpage, vpage+pages)`.
    pub(crate) fn overlaps(&self, vpage: VirtPage, size: PageSize) -> bool {
        let a0 = self.vpage.0;
        let a1 = a0 + self.pages();
        let b0 = vpage.0;
        let b1 = b0 + size.bytes() / BASE_PAGE_SIZE;
        a0 < b1 && b0 < a1
    }

    pub(crate) fn wasted_bytes(&self) -> u64 {
        self.wasted_passes as u64 * self.bytes
    }

    /// Charges the current copy pass as wasted, at most once per pass.
    pub(crate) fn waste_current_pass(&mut self) {
        if !self.pass_wasted {
            self.pass_wasted = true;
            self.wasted_passes += 1;
        }
    }

    pub(crate) fn end(&self, aborted: Option<AbortCause>) -> TransferEnd {
        TransferEnd {
            id: self.id,
            vpage: self.vpage,
            size: self.size,
            from: self.from,
            to: self.to,
            bytes: self.bytes,
            wasted_bytes: self.wasted_bytes(),
            aborted,
        }
    }
}

/// Internal pump step handed to the machine for finalization.
#[derive(Debug)]
pub(crate) enum PumpOutcome {
    Started {
        id: TransferId,
        vpage: VirtPage,
        from: TierId,
        to: TierId,
        bytes: u64,
        /// Enqueue → copy-start wait (sim ns), for the flight recorder.
        wait_ns: f64,
    },
    /// A copy pass finished clean; the machine remaps (or supersedes).
    CopyDone(Transfer),
    /// The re-copy budget ran out; the machine releases the reservation.
    DirtyAborted(Transfer),
}

/// One migration link (unordered tier pair) and its current occupant.
#[derive(Debug)]
struct Link {
    key: (u8, u8),
    /// Time up to which the link's bandwidth is committed.
    free_ns: f64,
    active: Option<Transfer>,
}

fn link_key(a: TierId, b: TierId) -> (u8, u8) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Transfer table: admission queue plus per-link active copies.
#[derive(Debug)]
pub(crate) struct MigrationEngine {
    queue_depth: usize,
    max_recopies: u32,
    /// Shadow (non-exclusive) migration mode: a dirty pass aborts the
    /// transaction immediately instead of re-copying — the clean source
    /// copy was never unmapped, so rollback is free and charges no wasted
    /// pass. Config-derived (not snapshot state).
    txn_dirty_abort: bool,
    pending: Vec<Transfer>,
    links: Vec<Link>,
    next_id: u64,
    next_seq: u64,
}

impl MigrationEngine {
    pub(crate) fn new(queue_depth: usize, max_recopies: u32) -> Self {
        MigrationEngine {
            queue_depth,
            max_recopies,
            txn_dirty_abort: false,
            pending: Vec::new(),
            links: Vec::new(),
            next_id: 0,
            next_seq: 0,
        }
    }

    /// Switches dirty handling to transactional-abort (shadow mode).
    pub(crate) fn set_txn_dirty_abort(&mut self, on: bool) {
        self.txn_dirty_abort = on;
    }

    /// No transfers queued or copying.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty() && !self.has_active()
    }

    pub(crate) fn has_active(&self) -> bool {
        self.links.iter().any(|l| l.active.is_some())
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// The earliest simulated time at which [`MigrationEngine::pump`] can
    /// do anything: the soonest `end_ns` over active copy passes, or
    /// infinity when none is active. `None` while a queued transfer's link
    /// is idle — the next pump starts it whatever the clock reads.
    pub(crate) fn next_event_ns(&self) -> Option<f64> {
        let mut next = f64::INFINITY;
        for l in &self.links {
            if let Some(t) = &l.active {
                next = next.min(t.end_ns);
            }
        }
        let startable = self.pending.iter().any(|t| {
            let key = link_key(t.from, t.to);
            !self
                .links
                .iter()
                .any(|l| l.key == key && l.active.is_some())
        });
        (!startable).then_some(next)
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len() + self.links.iter().filter(|l| l.active.is_some()).count()
    }

    /// Destination bytes reserved by queued and active transfers — the
    /// `inflight` term of the conservation invariant
    /// `used == rss + inflight + shadow`.
    pub(crate) fn inflight_bytes(&self) -> u64 {
        self.iter_all().map(|t| t.size.bytes()).sum()
    }

    pub(crate) fn has_queue_capacity(&self) -> bool {
        self.pending.len() < self.queue_depth
    }

    fn iter_all(&self) -> impl Iterator<Item = &Transfer> {
        self.pending
            .iter()
            .chain(self.links.iter().filter_map(|l| l.active.as_ref()))
    }

    /// Any transfer overlapping the given page range.
    pub(crate) fn find_overlapping(&self, vpage: VirtPage, size: PageSize) -> Option<TransferId> {
        self.iter_all()
            .find(|t| t.overlaps(vpage, size))
            .map(|t| t.id)
    }

    /// The transfer covering the base page `vpage`, if any.
    pub(crate) fn transfer_for(&self, vpage: VirtPage) -> Option<TransferId> {
        self.find_overlapping(vpage, PageSize::Base)
    }

    /// Marks the active transfer covering `vpage` (if any) dirty: the copy
    /// pass in progress will be discarded and re-run or aborted.
    pub(crate) fn note_store(&mut self, vpage: VirtPage) {
        for l in &mut self.links {
            if let Some(t) = l.active.as_mut() {
                if t.overlaps(vpage, PageSize::Base) {
                    t.dirty = true;
                }
            }
        }
    }

    /// Models a transient link outage beginning at `now_ns`: every active
    /// copy pass still in progress finishes `extra_ns` later, and idle
    /// links stay unusable until the outage lifts. Passes that already
    /// finished (`end_ns <= now_ns`) are not delayed — their copy completed
    /// before the outage hit; they finalize during the following pump.
    pub(crate) fn delay_active(&mut self, now_ns: f64, extra_ns: f64) {
        for l in &mut self.links {
            match l.active.as_mut() {
                Some(t) if t.end_ns > now_ns => t.end_ns += extra_ns,
                Some(_) => {}
                None => l.free_ns = l.free_ns.max(now_ns) + extra_ns,
            }
        }
    }

    /// Ids of every queued and active transfer, in deterministic order
    /// (admission order, then link-key order).
    pub(crate) fn transfer_ids(&self) -> Vec<TransferId> {
        self.iter_all().map(|t| t.id).collect()
    }

    /// Head pages of active copy passes, in deterministic link-key order.
    pub(crate) fn active_pages(&self) -> Vec<VirtPage> {
        self.links
            .iter()
            .filter_map(|l| l.active.as_ref().map(|t| t.vpage))
            .collect()
    }

    /// Whether `tier` is an endpoint of a link with an active copy.
    pub(crate) fn link_busy_for(&self, tier: TierId) -> bool {
        self.links
            .iter()
            .any(|l| l.active.is_some() && (l.key.0 == tier.0 || l.key.1 == tier.0))
    }

    /// Admits a validated transfer into the pending queue.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &mut self,
        vpage: VirtPage,
        size: PageSize,
        from: TierId,
        to: TierId,
        src_frame: Frame,
        dst_frame: Frame,
        priority: u8,
        now_ns: f64,
    ) -> TransferId {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Transfer {
            id,
            vpage,
            size,
            from,
            to,
            src_frame,
            dst_frame,
            bytes: size.bytes(),
            priority,
            enqueued_ns: now_ns,
            seq,
            started: false,
            first_start_ns: 0.0,
            start_ns: 0.0,
            end_ns: 0.0,
            dirty: false,
            recopies: 0,
            wasted_passes: 0,
            pass_wasted: false,
        });
        id
    }

    /// Removes a transfer by id (pending or active). An interrupted copy
    /// pass counts as a wasted pass; the link is freed at `now_ns`.
    pub(crate) fn remove(&mut self, id: TransferId, now_ns: f64) -> Option<Transfer> {
        if let Some(i) = self.pending.iter().position(|t| t.id == id) {
            return Some(self.pending.remove(i));
        }
        for l in &mut self.links {
            match l.active.take() {
                Some(mut t) if t.id == id => {
                    t.waste_current_pass();
                    l.free_ns = l.free_ns.max(now_ns.min(t.end_ns));
                    return Some(t);
                }
                other => l.active = other,
            }
        }
        None
    }

    /// Ensures a link exists for every queued transfer, keeping the link
    /// list sorted by key so pump order is deterministic.
    fn ensure_links(&mut self) {
        for t in &self.pending {
            let key = link_key(t.from, t.to);
            if !self.links.iter().any(|l| l.key == key) {
                self.links.push(Link {
                    key,
                    free_ns: 0.0,
                    active: None,
                });
                self.links.sort_by_key(|l| l.key);
            }
        }
    }

    /// Index of the best pending transfer for `key`: highest priority, then
    /// admission order.
    fn best_pending_for(&self, key: (u8, u8)) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, t) in self.pending.iter().enumerate() {
            if link_key(t.from, t.to) != key {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let cur = &self.pending[b];
                    if (t.priority, std::cmp::Reverse(t.seq))
                        > (cur.priority, std::cmp::Reverse(cur.seq))
                    {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Advances all links to `now_ns`. `bw_of(from, to)` yields the link
    /// bandwidth in bytes/ns. Returns starts, clean copy completions (for
    /// the machine to remap), and dirty aborts, in deterministic order.
    pub(crate) fn pump(
        &mut self,
        now_ns: f64,
        bw_of: impl Fn(TierId, TierId) -> f64,
    ) -> Vec<PumpOutcome> {
        let mut out = Vec::new();
        self.ensure_links();
        for li in 0..self.links.len() {
            loop {
                if self.links[li].active.is_none() {
                    let Some(idx) = self.best_pending_for(self.links[li].key) else {
                        break;
                    };
                    let mut t = self.pending.remove(idx);
                    let bw = bw_of(t.from, t.to);
                    t.start_ns = self.links[li].free_ns.max(t.enqueued_ns);
                    t.first_start_ns = t.start_ns;
                    t.end_ns = t.start_ns + t.bytes as f64 / bw;
                    t.started = true;
                    out.push(PumpOutcome::Started {
                        id: t.id,
                        vpage: t.vpage,
                        from: t.from,
                        to: t.to,
                        bytes: t.bytes,
                        wait_ns: t.start_ns - t.enqueued_ns,
                    });
                    self.links[li].active = Some(t);
                }
                // Take the occupant; it is re-installed unless it terminates
                // this iteration. Taking (rather than borrowing and later
                // re-taking) keeps this free of unwrap/expect on the hot
                // pump path.
                let Some(mut t) = self.links[li].active.take() else {
                    break;
                };
                if t.end_ns > now_ns {
                    self.links[li].active = Some(t);
                    break;
                }
                // The current copy pass finished at `t.end_ns`.
                if t.dirty {
                    if self.txn_dirty_abort {
                        // Shadow mode: the source copy stayed mapped and
                        // authoritative, so a dirtied transaction rolls
                        // back for free — no re-copy, no wasted pass.
                        self.links[li].free_ns = t.end_ns;
                        out.push(PumpOutcome::DirtyAborted(t));
                        continue;
                    }
                    t.waste_current_pass();
                    if t.recopies < self.max_recopies {
                        t.recopies += 1;
                        t.dirty = false;
                        t.pass_wasted = false;
                        let bw = bw_of(t.from, t.to);
                        t.start_ns = t.end_ns;
                        t.end_ns = t.start_ns + t.bytes as f64 / bw;
                        self.links[li].active = Some(t);
                    } else {
                        self.links[li].free_ns = t.end_ns;
                        out.push(PumpOutcome::DirtyAborted(t));
                    }
                } else {
                    self.links[li].free_ns = t.end_ns;
                    out.push(PumpOutcome::CopyDone(t));
                }
            }
        }
        out
    }
}

memtis_obs::snap_struct!(TransferId(u64));

memtis_obs::snap_struct!(Transfer {
    id,
    vpage,
    size,
    from,
    to,
    src_frame,
    dst_frame,
    bytes,
    priority,
    enqueued_ns,
    seq,
    started,
    first_start_ns,
    start_ns,
    end_ns,
    dirty,
    recopies,
    wasted_passes,
    pass_wasted,
});

memtis_obs::snap_struct!(Link {
    key,
    free_ns,
    active
});

// The full transfer table: id/seq counters, queue (admission order), and
// links (sorted key order) with their occupants and bandwidth commitments.
// Queue depth and re-copy budget are configuration.
memtis_obs::snap_struct!(in MigrationEngine {
    next_id,
    next_seq,
    pending,
    links,
} check |e: &mut MigrationEngine| {
    if e.pending.len() > e.queue_depth {
        return Err(memtis_obs::SnapError::Corrupt("engine queue overflow"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_obs::SnapFields;

    fn admit(e: &mut MigrationEngine, vpage: u64, prio: u8, now: f64) -> TransferId {
        e.admit(
            VirtPage(vpage),
            PageSize::Base,
            TierId::CAPACITY,
            TierId::FAST,
            Frame(1000 + vpage),
            Frame(vpage),
            prio,
            now,
        )
    }

    #[test]
    fn one_transfer_copies_per_link_in_priority_order() {
        let mut e = MigrationEngine::new(16, 2);
        let a = admit(&mut e, 1, 0, 0.0);
        let b = admit(&mut e, 2, 5, 0.0);
        // 4096 bytes at 1 byte/ns = 4096 ns per transfer.
        let out = e.pump(4096.0, |_, _| 1.0);
        // b (higher priority) starts first and completes at t=4096; a then
        // starts but has not finished.
        let started: Vec<TransferId> = out
            .iter()
            .filter_map(|o| match o {
                PumpOutcome::Started { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![b, a]);
        let done: Vec<TransferId> = out
            .iter()
            .filter_map(|o| match o {
                PumpOutcome::CopyDone(t) => Some(t.id),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![b]);
        assert!(!e.is_idle());
        let out2 = e.pump(8192.0, |_, _| 1.0);
        assert!(matches!(&out2[..], [PumpOutcome::CopyDone(t)] if t.id == a));
        assert!(e.is_idle());
    }

    #[test]
    fn dirty_pass_recopies_then_aborts() {
        let mut e = MigrationEngine::new(16, 1);
        let id = admit(&mut e, 7, 0, 0.0);
        e.pump(10.0, |_, _| 1.0); // start copying
        e.note_store(VirtPage(7));
        let out = e.pump(4096.0, |_, _| 1.0);
        // First pass dirty -> restarted, still copying.
        assert!(out
            .iter()
            .all(|o| !matches!(o, PumpOutcome::DirtyAborted(_))));
        e.note_store(VirtPage(7));
        let out = e.pump(8192.0, |_, _| 1.0);
        assert!(
            matches!(&out[..], [PumpOutcome::DirtyAborted(t)] if t.id == id && t.wasted_passes == 2)
        );
        assert!(e.is_idle());
    }

    #[test]
    fn remove_pending_and_active() {
        let mut e = MigrationEngine::new(16, 2);
        let a = admit(&mut e, 1, 0, 0.0);
        let b = admit(&mut e, 2, 0, 0.0);
        e.pump(10.0, |_, _| 1.0); // a active, b pending
        let tb = e.remove(b, 10.0).unwrap();
        assert_eq!(tb.wasted_passes, 0, "pending removal wastes nothing");
        let ta = e.remove(a, 10.0).unwrap();
        assert_eq!(ta.wasted_passes, 1, "interrupted pass counts");
        assert!(e.is_idle());
        assert!(e.remove(a, 10.0).is_none());
    }

    #[test]
    fn overlap_detection_covers_huge_ranges() {
        let mut e = MigrationEngine::new(16, 2);
        e.admit(
            VirtPage(512),
            PageSize::Huge,
            TierId::CAPACITY,
            TierId::FAST,
            Frame(512),
            Frame(0),
            0,
            0.0,
        );
        assert!(e.find_overlapping(VirtPage(700), PageSize::Base).is_some());
        assert!(e.find_overlapping(VirtPage(512), PageSize::Huge).is_some());
        assert!(e.find_overlapping(VirtPage(0), PageSize::Huge).is_none());
        assert!(e.transfer_for(VirtPage(1024)).is_none());
    }

    #[test]
    fn snap_round_trips_mid_copy_state() {
        let mut e = MigrationEngine::new(16, 2);
        let a = admit(&mut e, 1, 0, 0.0);
        let b = admit(&mut e, 2, 5, 0.0);
        e.pump(10.0, |_, _| 1.0); // b active (higher priority), a pending
        e.note_store(VirtPage(2)); // dirty the active pass

        let mut w = memtis_obs::SnapWriter::new();
        e.save_fields(&mut w);
        let bytes = w.finish().unwrap();

        let mut f = MigrationEngine::new(16, 2);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        f.load_fields(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(f.in_flight(), e.in_flight());
        assert_eq!(f.queue_len(), e.queue_len());
        assert_eq!(f.transfer_ids(), e.transfer_ids());
        // Both engines evolve identically from here.
        for now in [4096.0, 8192.0, 12288.0] {
            let oe = e.pump(now, |_, _| 1.0);
            let of = f.pump(now, |_, _| 1.0);
            assert_eq!(format!("{oe:?}"), format!("{of:?}"));
        }
        assert!(e.is_idle() && f.is_idle());
        let _ = (a, b);
    }

    #[test]
    fn snap_restore_rejects_oversized_queue() {
        let mut e = MigrationEngine::new(4, 2);
        admit(&mut e, 1, 0, 0.0);
        admit(&mut e, 2, 0, 0.0);
        let mut w = memtis_obs::SnapWriter::new();
        e.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut small = MigrationEngine::new(1, 2);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        assert!(matches!(
            small.load_fields(&mut r),
            Err(memtis_obs::SnapError::Corrupt("engine queue overflow"))
        ));
    }

    /// Regression (wasted-pass double count): a pass that ended dirty and
    /// restarted charges one waste; interrupting the *new* pass charges a
    /// second — but the same logical pass can never be charged by both the
    /// pump's dirty branch and `remove`'s interrupted-active branch.
    #[test]
    fn dirty_restart_then_remove_counts_each_pass_once() {
        let mut e = MigrationEngine::new(16, 2);
        let id = admit(&mut e, 7, 0, 0.0);
        e.pump(10.0, |_, _| 1.0);
        e.note_store(VirtPage(7));
        // The dirty pass ends at 4096 and restarts (waste 1, flag reset).
        e.pump(4096.0, |_, _| 1.0);
        // Interrupt the fresh pass mid-copy: waste 2, not 3.
        let t = e.remove(id, 5000.0).unwrap();
        assert_eq!(t.wasted_passes, 2);
    }

    /// Regression: charging the same pass twice through the idempotence
    /// helper (as a fault-injected dirty landing on an already-counted
    /// pass would) must not double-count.
    #[test]
    fn waste_current_pass_is_idempotent_per_pass() {
        let mut e = MigrationEngine::new(16, 2);
        let id = admit(&mut e, 7, 0, 0.0);
        e.pump(10.0, |_, _| 1.0);
        // An injected dirty on an already-dirty pass is a no-op.
        e.note_store(VirtPage(7));
        e.note_store(VirtPage(7));
        e.pump(4096.0, |_, _| 1.0); // dirty end -> waste 1, restart
        let t = e.remove(id, 4096.0).unwrap();
        // The restarted pass had not progressed past its start; removal
        // still charges it (the reservation is torn down), once.
        assert_eq!(t.wasted_passes, 2);
        let mut t2 = t;
        t2.waste_current_pass();
        t2.waste_current_pass();
        assert_eq!(t2.wasted_passes, 2, "current pass charged at most once");
    }

    /// Shadow mode: a dirtied pass aborts the transaction without a
    /// re-copy and without charging a wasted pass.
    #[test]
    fn txn_dirty_abort_skips_recopy_and_waste() {
        let mut e = MigrationEngine::new(16, 2);
        e.set_txn_dirty_abort(true);
        let id = admit(&mut e, 7, 0, 0.0);
        e.pump(10.0, |_, _| 1.0);
        e.note_store(VirtPage(7));
        let out = e.pump(4096.0, |_, _| 1.0);
        assert!(matches!(
            &out[..],
            [PumpOutcome::DirtyAborted(t)]
                if t.id == id && t.wasted_passes == 0 && t.recopies == 0
        ));
        assert!(e.is_idle());
    }

    /// A queue far deeper than any real config round-trips exactly.
    #[test]
    fn snap_round_trips_deep_queue() {
        let mut e = MigrationEngine::new(8192, 2);
        for i in 0..5000 {
            admit(&mut e, i, (i % 251) as u8, i as f64);
        }
        let mut w = memtis_obs::SnapWriter::new();
        e.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut f = MigrationEngine::new(8192, 2);
        let mut r = memtis_obs::SnapReader::new(&bytes);
        f.load_fields(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(f.queue_len(), 5000);
        assert_eq!(f.transfer_ids(), e.transfer_ids());
    }

    #[test]
    fn next_event_is_the_soonest_active_end_unless_a_link_is_idle() {
        let mut e = MigrationEngine::new(16, 2);
        assert_eq!(e.next_event_ns(), Some(f64::INFINITY), "idle engine");
        admit(&mut e, 1, 0, 0.0);
        assert_eq!(e.next_event_ns(), None, "queued on a link not yet made");
        e.pump(10.0, |_, _| 1.0); // starts at t=0, ends at 4096
        assert_eq!(e.next_event_ns(), Some(4096.0));
        admit(&mut e, 2, 0, 20.0);
        assert_eq!(e.next_event_ns(), Some(4096.0), "queued behind a busy link");
        // A transfer on a second, idle link starts at the next pump.
        e.admit(
            VirtPage(3),
            PageSize::Base,
            TierId(2),
            TierId::FAST,
            Frame(3000),
            Frame(3),
            0,
            30.0,
        );
        assert_eq!(e.next_event_ns(), None);
        // That link copies at 2 B/ns from t=30: it ends first, at 2078.
        e.pump(40.0, |a, _| if a == TierId(2) { 2.0 } else { 1.0 });
        assert_eq!(e.next_event_ns(), Some(2078.0));
        e.pump(2078.0, |a, _| if a == TierId(2) { 2.0 } else { 1.0 });
        assert_eq!(e.next_event_ns(), Some(4096.0));
        // Once the first link frees, its queued transfer starts at once.
        e.pump(4096.0, |_, _| 1.0);
        assert_eq!(e.next_event_ns(), Some(8192.0));
        e.pump(8192.0, |_, _| 1.0);
        assert_eq!(e.next_event_ns(), Some(f64::INFINITY));
    }

    /// A window stretch can move the wall clock past an active pass's end
    /// with no pump in between. A burst sized by the engine's next event
    /// then stops after one access — where the per-event loop pumps next.
    #[test]
    fn burst_after_a_stretch_past_an_unpumped_end_runs_one_access() {
        use crate::access::{Access, RecordFilter};
        use crate::config::MachineConfig;
        use crate::driver::WorkloadEvent;
        use crate::machine::{BatchClock, BatchStop, Machine};

        let mut cfg = MachineConfig::dram_nvm(2 << 21, 8 << 21);
        cfg.migration.bandwidth_limit = Some(1.0);
        let mut m = Machine::new(cfg);
        for v in 0..4 {
            m.alloc_and_map(VirtPage(v), PageSize::Base, TierId::CAPACITY)
                .unwrap();
        }
        m.enqueue_migration(VirtPage(0), TierId::FAST, 0, 0.0)
            .unwrap();
        assert_eq!(m.next_transfer_event_ns(), None);
        m.pump_transfers(0.0);
        let end = m.next_transfer_event_ns().expect("copy active");
        assert_eq!(end, 4096.0);

        let events: Vec<WorkloadEvent> = (0..8)
            .map(|k| WorkloadEvent::Access(Access::load((k % 4) * 4096)))
            .collect();
        let mut clock = BatchClock {
            wall_ns: end + 1000.0,
            app_access_ns: 0.0,
            threads: 1.0,
            stop_wall_ns: end,
        };
        let mut out = Vec::new();
        let (consumed, stop) = m.access_batch(&events, &mut out, &mut clock, RecordFilter::ALL);
        assert_eq!(consumed, 1);
        assert!(matches!(stop, BatchStop::Clean));
        // The pump that follows the burst finishes the copy.
        m.pump_transfers(clock.wall_ns);
        assert_eq!(m.locate(VirtPage(0)), Some((TierId::FAST, PageSize::Base)));
        assert_eq!(m.next_transfer_event_ns(), Some(f64::INFINITY));
    }

    #[test]
    fn queue_capacity_is_bounded() {
        let mut e = MigrationEngine::new(2, 2);
        admit(&mut e, 1, 0, 0.0);
        admit(&mut e, 2, 0, 0.0);
        assert!(!e.has_queue_capacity());
        e.pump(1.0, |_, _| 1.0); // one becomes active
        assert!(e.has_queue_capacity());
    }
}
