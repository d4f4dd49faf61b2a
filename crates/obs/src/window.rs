//! Windowed time-series collector.
//!
//! The driver closes a window every N simulation events (accesses, allocs,
//! frees) by handing the collector a [`WindowCut`] of *cumulative*
//! machine/policy state; the collector differences consecutive cuts into
//! per-window rates ([`WindowSample`]) — throughput, per-tier hit ratios,
//! migration bandwidth — and carries the policy's point-in-time gauges and
//! histogram bin state along verbatim.
//!
//! rHR/eHR come from the policy's `rhr`/`ehr` timeline gauges when the
//! policy estimates them (MEMTIS); for policies that don't, rHR falls back
//! to the machine-measured within-window fast-tier hit ratio and eHR
//! mirrors it.

/// Cumulative run state at a window boundary, captured by the driver.
#[derive(Debug)]
pub struct WindowCut<'a> {
    /// Simulation events processed so far.
    pub events: u64,
    /// Simulated wall-clock time (ns).
    pub wall_ns: f64,
    /// Accesses executed so far.
    pub accesses: u64,
    /// Cumulative LLC-missing accesses served per tier.
    pub tier_hits: &'a [u64],
    /// Cumulative bytes copied by migrations.
    pub migrated_bytes: u64,
    /// Policy timeline gauges (name, value) at the boundary.
    pub gauges: Vec<(&'static str, f64)>,
    /// Policy histogram bin occupancy (4 KiB pages per bin); empty for
    /// policies without a classification histogram.
    pub hist_bins: Vec<u64>,
}

/// One closed telemetry window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Zero-based window index.
    pub index: u64,
    /// Cumulative simulation events at the window close.
    pub end_event: u64,
    /// Simulated wall-clock time at the window close (ns).
    pub wall_ns: f64,
    /// Cumulative accesses at the window close.
    pub accesses: u64,
    /// Accesses executed within the window.
    pub window_accesses: u64,
    /// Accesses per second of simulated time within the window.
    pub window_throughput: f64,
    /// Within-window fast-tier hit ratio (machine-measured).
    pub fast_hit_ratio: f64,
    /// Within-window hit ratio per tier (machine-measured).
    pub tier_hit_ratios: Vec<f64>,
    /// Real fast-tier hit ratio (policy-estimated when available).
    pub rhr: f64,
    /// Estimated base-page-only hit ratio (policy-estimated when available).
    pub ehr: f64,
    /// Bytes migrated within the window.
    pub migrated_bytes: u64,
    /// Migration bandwidth within the window (bytes per simulated second).
    pub migration_bw: f64,
    /// Histogram bin occupancy at the window close.
    pub hist_bins: Vec<u64>,
    /// Policy timeline gauges at the window close.
    pub gauges: Vec<(&'static str, f64)>,
}

impl WindowSample {
    /// Looks up a policy gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Differencing collector: turns cumulative [`WindowCut`]s into
/// [`WindowSample`]s every `every` simulation events.
#[derive(Debug)]
pub struct WindowCollector {
    every: u64,
    samples: Vec<WindowSample>,
    last_events: u64,
    last_wall: f64,
    last_accesses: u64,
    last_tier_hits: Vec<u64>,
    last_migrated_bytes: u64,
}

impl WindowCollector {
    /// Creates a collector closing a window every `every` events (min 1).
    pub fn new(every: u64) -> Self {
        WindowCollector {
            every: every.max(1),
            samples: Vec::new(),
            last_events: 0,
            last_wall: 0.0,
            last_accesses: 0,
            last_tier_hits: Vec::new(),
            last_migrated_bytes: 0,
        }
    }

    /// Window length in simulation events.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether the current window is complete at `events` total events.
    #[inline]
    pub fn due(&self, events: u64) -> bool {
        events - self.last_events >= self.every
    }

    /// Events remaining at `events` total events before [`due`] becomes
    /// true. Batched drivers cap a burst at this length so a window cut can
    /// never fall in the middle of one.
    ///
    /// [`due`]: WindowCollector::due
    #[inline]
    pub fn events_until_due(&self, events: u64) -> u64 {
        (self.last_events + self.every).saturating_sub(events)
    }

    /// Whether any events accumulated since the last boundary (a final
    /// partial window should be closed).
    pub fn has_partial(&self, events: u64) -> bool {
        events > self.last_events
    }

    /// Closed windows so far.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Closes the current window at `cut` and returns the new sample.
    pub fn close(&mut self, cut: WindowCut<'_>) -> &WindowSample {
        let wdur_ns = cut.wall_ns - self.last_wall;
        let window_accesses = cut.accesses - self.last_accesses;
        let window_throughput = if wdur_ns > 0.0 {
            window_accesses as f64 / (wdur_ns * 1e-9)
        } else {
            0.0
        };
        let mut whits: Vec<u64> = Vec::with_capacity(cut.tier_hits.len());
        for (i, &h) in cut.tier_hits.iter().enumerate() {
            let prev = self.last_tier_hits.get(i).copied().unwrap_or(0);
            whits.push(h - prev);
        }
        let wtotal: u64 = whits.iter().sum();
        let tier_hit_ratios: Vec<f64> = whits
            .iter()
            .map(|&h| {
                if wtotal == 0 {
                    0.0
                } else {
                    h as f64 / wtotal as f64
                }
            })
            .collect();
        let fast_hit_ratio = tier_hit_ratios.first().copied().unwrap_or(0.0);
        let migrated_bytes = cut.migrated_bytes - self.last_migrated_bytes;
        let migration_bw = if wdur_ns > 0.0 {
            migrated_bytes as f64 / (wdur_ns * 1e-9)
        } else {
            0.0
        };
        let find = |name: &str| cut.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        let rhr = find("rhr").unwrap_or(fast_hit_ratio);
        let ehr = find("ehr").unwrap_or(rhr);

        self.last_events = cut.events;
        self.last_wall = cut.wall_ns;
        self.last_accesses = cut.accesses;
        self.last_tier_hits = cut.tier_hits.to_vec();
        self.last_migrated_bytes = cut.migrated_bytes;

        self.samples.push(WindowSample {
            index: self.samples.len() as u64,
            end_event: cut.events,
            wall_ns: cut.wall_ns,
            accesses: cut.accesses,
            window_accesses,
            window_throughput,
            fast_hit_ratio,
            tier_hit_ratios,
            rhr,
            ehr,
            migrated_bytes,
            migration_bw,
            hist_bins: cut.hist_bins,
            gauges: cut.gauges,
        });
        self.samples.last().expect("just pushed")
    }
}

crate::snap_struct!(WindowSample {
    index,
    end_event,
    wall_ns,
    accesses,
    window_accesses,
    window_throughput,
    fast_hit_ratio,
    tier_hit_ratios,
    rhr,
    ehr,
    migrated_bytes,
    migration_bw,
    hist_bins,
    gauges,
});

crate::snap_struct!(WindowCollector {
    every,
    samples,
    last_events,
    last_wall,
    last_accesses,
    last_tier_hits,
    last_migrated_bytes,
} check |c: &WindowCollector| if c.every == 0 {
    Err(crate::snap::SnapError::Corrupt("window length zero"))
} else {
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(events: u64, wall: f64, acc: u64, hits: &[u64], mig: u64) -> WindowCut<'_> {
        WindowCut {
            events,
            wall_ns: wall,
            accesses: acc,
            tier_hits: hits,
            migrated_bytes: mig,
            gauges: Vec::new(),
            hist_bins: Vec::new(),
        }
    }

    #[test]
    fn windows_difference_cumulative_state() {
        let mut c = WindowCollector::new(100);
        assert!(!c.due(99));
        assert!(c.due(100));
        let hits1 = [80u64, 20];
        c.close(cut(100, 1e6, 90, &hits1, 4096));
        let hits2 = [120u64, 80];
        let s = c.close(cut(200, 3e6, 190, &hits2, 12_288)).clone();
        assert_eq!(s.index, 1);
        assert_eq!(s.window_accesses, 100);
        // 100 accesses over 2 ms = 50k/s.
        assert!((s.window_throughput - 50_000.0).abs() < 1e-6);
        // Window hits: fast 40, capacity 60.
        assert!((s.fast_hit_ratio - 0.4).abs() < 1e-12);
        assert!((s.tier_hit_ratios[1] - 0.6).abs() < 1e-12);
        assert_eq!(s.migrated_bytes, 8192);
        assert!((s.migration_bw - 8192.0 / 2e-3).abs() < 1e-6);
        assert_eq!(c.samples().len(), 2);
    }

    #[test]
    fn rhr_ehr_prefer_policy_gauges() {
        let mut c = WindowCollector::new(10);
        let hits = [5u64, 5];
        let mut k = cut(10, 1e6, 10, &hits, 0);
        k.gauges = vec![("rhr", 0.9), ("ehr", 0.95)];
        let s = c.close(k);
        assert_eq!(s.rhr, 0.9);
        assert_eq!(s.ehr, 0.95);
        assert_eq!(s.gauge("ehr"), Some(0.95));
        // Without gauges, fall back to the machine-measured ratio.
        let hits2 = [15u64, 5];
        let s = c.close(cut(20, 2e6, 20, &hits2, 0));
        assert!((s.rhr - 1.0).abs() < 1e-12);
        assert_eq!(s.rhr, s.ehr);
    }

    #[test]
    fn snap_round_trips_collector_mid_run() {
        let mut c = WindowCollector::new(100);
        let hits1 = [80u64, 20];
        let mut k = cut(100, 1e6, 90, &hits1, 4096);
        k.gauges = vec![("rhr", 0.9)];
        k.hist_bins = vec![1, 2, 3];
        c.close(k);
        let mut w = crate::snap::SnapWriter::new();
        w.put(&c);
        let bytes = w.finish().unwrap();
        let mut r = crate::snap::SnapReader::new(&bytes);
        let mut back: WindowCollector = r.get().unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.every(), c.every());
        assert_eq!(back.samples(), c.samples());
        // Closing the next window from restored last-cut state matches.
        let hits2 = [120u64, 80];
        let a = c.close(cut(200, 3e6, 190, &hits2, 12_288)).clone();
        let b = back.close(cut(200, 3e6, 190, &hits2, 12_288)).clone();
        assert_eq!(a, b);
    }

    #[test]
    fn inflated_sample_count_is_corrupt_not_an_abort() {
        // `every = 1`, then a sample count of u32::MAX with no samples.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 12);
        let mut r = crate::snap::SnapReader::new(&bytes);
        assert!(matches!(
            r.get::<WindowCollector>(),
            Err(crate::snap::SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_duration_windows_are_safe() {
        let mut c = WindowCollector::new(1);
        let hits: [u64; 0] = [];
        let s = c.close(cut(1, 0.0, 0, &hits, 0));
        assert_eq!(s.window_throughput, 0.0);
        assert_eq!(s.fast_hit_ratio, 0.0);
        assert_eq!(s.migration_bw, 0.0);
    }
}
