//! Composable migration-engine modes (all default-off).
//!
//! Two policy-family refinements from the 2024–25 tiering literature,
//! layered on the async engine without touching baseline behavior:
//!
//! - **Shadow copies** (Nomad-style non-exclusive transactional
//!   migration): retain the clean source frame after a promotion so a
//!   cold-again page demotes for free (remap, zero bytes copied) and a
//!   dirty in-flight pass aborts immediately with nothing to roll back.
//! - **Hysteresis** (Jenga-style anti-thrashing): detect per-region
//!   promote→demote ping-pong and exponentially back off re-promotion.
//!
//! All state lives here, owned by the machine as `Option<Box<ModeState>>`
//! so the modes-off configuration costs a single pointer test on the paths
//! it instruments and stays byte-identical to pre-mode builds.
//!
//! Determinism: every structure mutation happens either per event in
//! stream order (the driver disables deferred batching and sharded bursts
//! while shadow mode is on) or at boundary points (policy hooks, engine
//! pumps) that land identically for every chunk/shard configuration.

use crate::addr::{Frame, PageSize, TierId, VirtPage};
use crate::config::{HysteresisConfig, MigrationConfig};
use std::collections::BTreeMap;

/// 2 MiB region index of a virtual page (the hysteresis granule).
#[inline]
fn region_of(vpage: VirtPage) -> u64 {
    vpage.0 >> 9
}

/// One retained shadow frame: the clean pre-promotion source copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShadowFrame {
    pub frame: Frame,
    pub tier: TierId,
    pub size: PageSize,
    /// Retention order; capacity reclaim evicts lowest-seq (FIFO) first.
    pub seq: u64,
}

/// Shadow-frame bookkeeping for non-exclusive transactional migration.
///
/// Keyed by the mapping's base vpage (huge-aligned for a huge mapping).
/// Presence in the map *is* the cleanliness bit: any store to the page
/// removes the entry and frees the frame immediately, so an entry always
/// describes a frame whose contents still equal the live page's.
#[derive(Debug, Default)]
pub(crate) struct ShadowState {
    map: BTreeMap<VirtPage, ShadowFrame>,
    /// Total bytes held by retained shadows (the conservation term).
    bytes: u64,
    next_seq: u64,
    /// Reclaims awaiting event emission at the next engine pump (the
    /// access paths that trigger them carry no timestamp). Frames are
    /// freed at reclaim time; only the event record is deferred.
    pending_events: Vec<(VirtPage, TierId, u64)>,
}

impl ShadowState {
    /// Retains `frame` as the shadow of `key`. Returns the displaced
    /// shadow if one existed (the caller frees it and records the
    /// reclaim).
    pub fn retain(
        &mut self,
        key: VirtPage,
        frame: Frame,
        tier: TierId,
        size: PageSize,
    ) -> Option<ShadowFrame> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.bytes += size.bytes();
        let old = self.map.insert(
            key,
            ShadowFrame {
                frame,
                tier,
                size,
                seq,
            },
        );
        if let Some(o) = old {
            self.bytes -= o.size.bytes();
        }
        old
    }

    /// The still-clean shadow of `key`, if any.
    pub fn get(&self, key: VirtPage) -> Option<ShadowFrame> {
        self.map.get(&key).copied()
    }

    /// Removes the shadow of `key` without queueing a reclaim event (the
    /// free-demotion path, where the frame becomes the live mapping).
    pub fn take(&mut self, key: VirtPage) -> Option<ShadowFrame> {
        let old = self.map.remove(&key);
        if let Some(o) = old {
            self.bytes -= o.size.bytes();
        }
        old
    }

    /// Removes the shadow of `key` and queues its reclaim event.
    pub fn invalidate(&mut self, key: VirtPage) -> Option<ShadowFrame> {
        let old = self.take(key);
        if let Some(o) = old {
            self.pending_events.push((key, o.tier, o.size.bytes()));
        }
        old
    }

    /// Oldest retained shadow on `tier` (FIFO capacity-reclaim victim).
    pub fn oldest_on(&self, tier: TierId) -> Option<VirtPage> {
        self.map
            .iter()
            .filter(|(_, s)| s.tier == tier)
            .min_by_key(|(_, s)| s.seq)
            .map(|(k, _)| *k)
    }

    /// Shadow keys within `[start, end)` (collapse invalidates a whole
    /// huge range of base shadows).
    pub fn keys_in_range(&self, start: VirtPage, end: VirtPage) -> Vec<VirtPage> {
        self.map.range(start..end).map(|(k, _)| *k).collect()
    }

    /// Total bytes held by retained shadows.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Retained shadow count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether reclaim events await emission.
    pub fn has_pending_events(&self) -> bool {
        !self.pending_events.is_empty()
    }

    /// Drains the queued reclaim-event records.
    pub fn drain_pending_events(&mut self) -> Vec<(VirtPage, TierId, u64)> {
        std::mem::take(&mut self.pending_events)
    }
}

memtis_obs::snap_struct!(ShadowFrame {
    frame,
    tier,
    size,
    seq
});

// `bytes` is derived from the map and recomputed on load.
memtis_obs::snap_struct!(in ShadowState {
    map,
    next_seq,
    pending_events,
} check |s: &mut ShadowState| {
    s.bytes = s.map.values().map(|f| f.size.bytes()).sum();
    Ok(())
});

/// Per-region ping-pong record for hysteresis.
#[derive(Debug, Clone, Copy)]
struct RegionHyst {
    /// Completion time of the region's last promotion (`-inf` until one
    /// completes, so a promotion finishing at t=0 still counts).
    last_promote_ns: f64,
    /// Consecutive promote→demote ping-pongs observed.
    strikes: u32,
    /// Re-promotion is rejected until this simulated time.
    backoff_until_ns: f64,
}

impl Default for RegionHyst {
    fn default() -> Self {
        RegionHyst {
            last_promote_ns: f64::NEG_INFINITY,
            strikes: 0,
            backoff_until_ns: 0.0,
        }
    }
}

/// Anti-thrashing hysteresis: ping-pong detection and re-promotion
/// backoff, keyed by 2 MiB region.
#[derive(Debug)]
pub(crate) struct HysteresisState {
    pub cfg: HysteresisConfig,
    regions: BTreeMap<u64, RegionHyst>,
    /// Backoff deadline of the most recent rejection, for event emission.
    pub last_backoff_until_ns: f64,
}

impl HysteresisState {
    fn new(cfg: HysteresisConfig) -> Self {
        HysteresisState {
            cfg,
            regions: BTreeMap::new(),
            last_backoff_until_ns: 0.0,
        }
    }

    /// The time until which `vpage`'s region is backed off (0 if never
    /// struck).
    pub fn backoff_until(&self, vpage: VirtPage) -> f64 {
        self.regions
            .get(&region_of(vpage))
            .map_or(0.0, |r| r.backoff_until_ns)
    }

    /// Records a completed migration of `vpage`'s region. A demotion
    /// landing within the cooling window of the region's last promotion is
    /// a ping-pong: it strikes the region and doubles the re-promotion
    /// backoff; a demotion outside the window cools the region back to
    /// zero strikes.
    pub fn note_move(&mut self, vpage: VirtPage, promoted: bool, now_ns: f64) {
        let rec = self.regions.entry(region_of(vpage)).or_default();
        if promoted {
            rec.last_promote_ns = now_ns;
            return;
        }
        if now_ns - rec.last_promote_ns <= self.cfg.window_ns {
            rec.strikes += 1;
            let exp = (rec.strikes - 1).min(32);
            let backoff =
                (self.cfg.base_backoff_ns * (1u64 << exp) as f64).min(self.cfg.max_backoff_ns);
            rec.backoff_until_ns = now_ns + backoff;
        } else {
            rec.strikes = 0;
        }
    }
}

memtis_obs::snap_struct!(RegionHyst {
    last_promote_ns,
    strikes,
    backoff_until_ns,
});

memtis_obs::snap_struct!(in HysteresisState {
    regions,
    last_backoff_until_ns,
});

/// The machine's engine-mode state: present iff at least one mode is
/// configured on.
#[derive(Debug)]
pub(crate) struct ModeState {
    pub shadow: Option<ShadowState>,
    pub hysteresis: Option<HysteresisState>,
}

impl ModeState {
    /// Builds mode state from the migration configuration; `None` when
    /// every mode is off (the zero-cost default).
    pub fn from_config(cfg: &MigrationConfig) -> Option<Box<ModeState>> {
        if !cfg.shadow && cfg.hysteresis.is_none() {
            return None;
        }
        Some(Box::new(ModeState {
            shadow: cfg.shadow.then(ShadowState::default),
            hysteresis: cfg.hysteresis.clone().map(HysteresisState::new),
        }))
    }
}

// Every enabled mode's state, each behind a presence byte, so a restore
// into a differently-configured machine is rejected.
memtis_obs::snap_struct!(in ModeState {
    @in shadow,
    @in hysteresis,
});

#[cfg(test)]
mod tests {
    use super::*;
    use memtis_obs::{SnapFields, SnapReader, SnapWriter};

    #[test]
    fn shadow_retain_take_invalidate_track_bytes() {
        let mut s = ShadowState::default();
        s.retain(VirtPage(0), Frame(10), TierId(1), PageSize::Huge);
        s.retain(VirtPage(512), Frame(700), TierId(1), PageSize::Base);
        assert_eq!(s.bytes(), PageSize::Huge.bytes() + PageSize::Base.bytes());
        assert_eq!(s.len(), 2);
        assert_eq!(s.oldest_on(TierId(1)), Some(VirtPage(0)));
        assert!(s.take(VirtPage(0)).is_some());
        assert!(!s.has_pending_events());
        assert!(s.invalidate(VirtPage(512)).is_some());
        assert!(s.has_pending_events());
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.drain_pending_events().len(), 1);
    }

    #[test]
    fn hysteresis_strikes_and_backs_off_exponentially() {
        let cfg = HysteresisConfig {
            window_ns: 1000.0,
            base_backoff_ns: 100.0,
            max_backoff_ns: 350.0,
        };
        let mut h = HysteresisState::new(cfg);
        let p = VirtPage(7);
        // promote then demote inside the window: strike 1 => 100 ns backoff.
        h.note_move(p, true, 0.0);
        h.note_move(p, false, 500.0);
        assert_eq!(h.backoff_until(p), 600.0);
        // second ping-pong: strike 2 => 200 ns.
        h.note_move(p, true, 700.0);
        h.note_move(p, false, 900.0);
        assert_eq!(h.backoff_until(p), 1100.0);
        // third: capped at max_backoff_ns.
        h.note_move(p, true, 1200.0);
        h.note_move(p, false, 1300.0);
        assert_eq!(h.backoff_until(p), 1650.0);
        // a demotion long after the promotion cools the region.
        h.note_move(p, true, 10_000.0);
        h.note_move(p, false, 20_000.0);
        h.note_move(p, true, 20_100.0);
        h.note_move(p, false, 20_200.0);
        // strikes restarted at 1 => base backoff again.
        assert_eq!(h.backoff_until(p), 20_300.0);
    }

    #[test]
    fn mode_state_snapshot_round_trips() {
        let cfg = MigrationConfig {
            shadow: true,
            hysteresis: Some(HysteresisConfig::default()),
            ..MigrationConfig::default()
        };
        let mut m = ModeState::from_config(&cfg).unwrap();
        let sh = m.shadow.as_mut().unwrap();
        sh.retain(VirtPage(0), Frame(99), TierId(1), PageSize::Huge);
        sh.invalidate(VirtPage(0));
        sh.retain(VirtPage(512), Frame(5), TierId(1), PageSize::Base);
        m.hysteresis
            .as_mut()
            .unwrap()
            .note_move(VirtPage(3), true, 1.0);
        m.hysteresis
            .as_mut()
            .unwrap()
            .note_move(VirtPage(3), false, 2.0);

        let mut w = SnapWriter::new();
        m.save_fields(&mut w);
        let bytes = w.finish().unwrap();
        let mut back = ModeState::from_config(&cfg).unwrap();
        let mut r = SnapReader::new(&bytes);
        back.load_fields(&mut r).unwrap();
        r.expect_end().unwrap();

        let mut w2 = SnapWriter::new();
        back.save_fields(&mut w2);
        assert_eq!(w2.finish().unwrap(), bytes);
        assert_eq!(
            back.shadow.as_ref().unwrap().bytes(),
            PageSize::Base.bytes()
        );
        assert!(back.shadow.as_ref().unwrap().has_pending_events());
        assert_eq!(
            back.hysteresis.as_ref().unwrap().backoff_until(VirtPage(3)),
            2.0 + 2e6
        );
    }

    #[test]
    fn modes_off_builds_nothing() {
        assert!(ModeState::from_config(&MigrationConfig::default()).is_none());
    }
}
