//! Trace exporters and validators.
//!
//! Two formats are produced from the same [`TracingObserver`] + window
//! series:
//!
//! - **JSONL** — one JSON object per line: a header (schema id, event and
//!   drop counts, final counter values), an explicit truncation record when
//!   the ring dropped events, then every retained event in sequence order,
//!   then every closed window. Deterministic: the same run produces
//!   byte-identical output. Truncation is also warned about on stderr so a
//!   lossy trace never passes silently.
//! - **Chrome/Perfetto `trace_event` JSON** — loadable in `ui.perfetto.dev`
//!   or `chrome://tracing`. Events become instants on three synthetic
//!   threads named after MEMTIS's kernel daemons (ksampled, kmigrated,
//!   khugepaged); windows become counter tracks (hit ratios, migration
//!   bandwidth, throughput).
//!
//! The validators re-parse exported text with the dependency-free parser
//! in [`crate::json`] so CI can smoke-check traces without external tools.

use crate::event::{Daemon, EventKind};
use crate::json::{escape, fmt_f64, Json};
use crate::observer::TracingObserver;
use crate::window::WindowSample;

/// Schema identifier written into the JSONL header line.
pub const JSONL_SCHEMA: &str = "memtis-trace-v1";

/// Warns on stderr that the event ring dropped events, so a lossy trace
/// never passes silently.
fn warn_truncated(obs: &TracingObserver) {
    eprintln!(
        "warning: trace truncated — event ring dropped {} of {} events \
         (first retained seq {}); raise the ring capacity to keep them",
        obs.ring.dropped(),
        obs.ring.pushed(),
        obs.ring.first_seq(),
    );
}

fn window_json(s: &WindowSample) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        r#"{{"window":{},"end_event":{},"wall_ns":{},"accesses":{},"window_accesses":{},"window_throughput":{},"fast_hit_ratio":{},"rhr":{},"ehr":{},"migrated_bytes":{},"migration_bw":{}"#,
        s.index,
        s.end_event,
        fmt_f64(s.wall_ns),
        s.accesses,
        s.window_accesses,
        fmt_f64(s.window_throughput),
        fmt_f64(s.fast_hit_ratio),
        fmt_f64(s.rhr),
        fmt_f64(s.ehr),
        s.migrated_bytes,
        fmt_f64(s.migration_bw),
    );
    out.push_str(",\"tier_hit_ratios\":[");
    for (i, v) in s.tier_hit_ratios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*v));
    }
    out.push_str("],\"hist_bins\":[");
    for (i, v) in s.hist_bins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("],\"gauges\":{");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{}":{}"#, escape(name), fmt_f64(*v));
    }
    out.push_str("}}");
    out
}

/// Serializes a trace as JSONL: header line, event lines, window lines.
pub fn export_jsonl(obs: &TracingObserver, windows: &[WindowSample]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"schema":"{}","events":{},"retained":{},"dropped":{},"counters":{{"#,
        JSONL_SCHEMA,
        obs.ring.pushed(),
        obs.ring.len(),
        obs.ring.dropped(),
    );
    for (i, (name, v)) in obs.registry.counters_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{}":{}"#, escape(name), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in obs.registry.gauges_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{}":{}"#, escape(name), fmt_f64(*v));
    }
    out.push_str("}}\n");
    if obs.ring.dropped() > 0 {
        warn_truncated(obs);
        let _ = write!(
            out,
            "{{\"truncated\":true,\"dropped\":{},\"first_seq\":{}}}",
            obs.ring.dropped(),
            obs.ring.first_seq(),
        );
        out.push('\n');
    }
    for (seq, ev) in (obs.ring.first_seq()..).zip(obs.ring.iter()) {
        let _ = write!(
            out,
            r#"{{"seq":{seq},"t_ns":{},"kind":"{}""#,
            fmt_f64(ev.t_ns),
            ev.kind.label()
        );
        ev.kind.push_fields(&mut out);
        out.push_str("}\n");
    }
    for w in windows {
        out.push_str(&window_json(w));
        out.push('\n');
    }
    out
}

fn perfetto_args(kind: &EventKind) -> String {
    let mut s = String::from("{\"_\":0");
    kind.push_fields(&mut s);
    s.push('}');
    s
}

/// Serializes a trace as Chrome/Perfetto `trace_event` JSON.
///
/// Events appear as instants (`ph:"i"`) on one synthetic thread per
/// [`Daemon`] (tid 1 `ksampled`, 2 `kmigrated`, 3 `khugepaged`), the one
/// its event-kind row names. Windows appear as counter tracks (`ph:"C"`).
/// Timestamps are microseconds of simulated time.
pub fn export_perfetto(obs: &TracingObserver, windows: &[WindowSample]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&line);
    };
    for d in Daemon::ALL {
        emit(
            format!(
                r#"{{"ph":"M","pid":1,"tid":{},"name":"thread_name","args":{{"name":"{}"}}}}"#,
                d as usize + 1,
                d.name()
            ),
            &mut out,
        );
    }
    if obs.ring.dropped() > 0 {
        warn_truncated(obs);
        emit(
            format!(
                r#"{{"ph":"i","pid":1,"tid":1,"ts":0,"s":"g","name":"trace_truncated","args":{{"dropped":{},"first_seq":{}}}}}"#,
                obs.ring.dropped(),
                obs.ring.first_seq(),
            ),
            &mut out,
        );
    }
    for ev in obs.ring.iter() {
        let ts = fmt_f64(ev.t_ns / 1000.0);
        emit(
            format!(
                r#"{{"ph":"i","pid":1,"tid":{},"ts":{ts},"s":"t","name":"{}","args":{}}}"#,
                ev.kind.daemon() as usize + 1,
                ev.kind.label(),
                perfetto_args(&ev.kind)
            ),
            &mut out,
        );
    }
    for w in windows {
        let ts = fmt_f64(w.wall_ns / 1000.0);
        let mut line = format!(r#"{{"ph":"C","pid":1,"ts":{ts},"name":"hit_ratio","args":{{"#);
        let _ = write!(
            line,
            r#""rhr":{},"ehr":{},"fast":{}}}}}"#,
            fmt_f64(w.rhr),
            fmt_f64(w.ehr),
            fmt_f64(w.fast_hit_ratio)
        );
        emit(line, &mut out);
        emit(
            format!(
                r#"{{"ph":"C","pid":1,"ts":{ts},"name":"migration_bw","args":{{"bytes_per_s":{}}}}}"#,
                fmt_f64(w.migration_bw)
            ),
            &mut out,
        );
        emit(
            format!(
                r#"{{"ph":"C","pid":1,"ts":{ts},"name":"throughput","args":{{"accesses_per_s":{}}}}}"#,
                fmt_f64(w.window_throughput)
            ),
            &mut out,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Summary returned by a successful [`validate_jsonl`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Event lines present in the file.
    pub events: usize,
    /// Window lines present in the file.
    pub windows: usize,
    /// Dropped-event count declared by the header.
    pub dropped: u64,
}

/// Checks that event record `v` has exactly the keys `fixed` plus the
/// fields of `kind`'s event-kind row.
fn check_event_keys(v: &Json, fixed: &[&str], kind: &str) -> Result<(), String> {
    let (_, fields) = EventKind::SCHEMA
        .iter()
        .find(|(label, _)| *label == kind)
        .ok_or_else(|| format!("unknown kind {kind:?}"))?;
    let keys: Vec<&str> = match v {
        Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        _ => return Err(format!("{kind} record is not an object")),
    };
    let want: Vec<&str> = fixed.iter().chain(fields.iter()).copied().collect();
    if keys.len() != want.len() || !want.iter().all(|k| keys.contains(k)) {
        return Err(format!("{kind} record has keys {keys:?}, want {want:?}"));
    }
    Ok(())
}

/// Validates JSONL trace text: parseable lines, a well-formed header, an
/// explicit truncation record exactly when the header declares drops,
/// contiguous event sequence numbers, known event kinds each carrying
/// exactly its row's fields, and contiguous window indices. Returns line
/// counts on success.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace")?;
    let h = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    if h.get("schema").and_then(Json::as_str) != Some(JSONL_SCHEMA) {
        return Err(format!("header schema is not {JSONL_SCHEMA:?}"));
    }
    let declared_events = h
        .get("events")
        .and_then(Json::as_f64)
        .ok_or("header missing \"events\"")? as u64;
    let retained = h
        .get("retained")
        .and_then(Json::as_f64)
        .ok_or("header missing \"retained\"")? as u64;
    let dropped = h
        .get("dropped")
        .and_then(Json::as_f64)
        .ok_or("header missing \"dropped\"")? as u64;
    if retained + dropped != declared_events {
        return Err("header retained + dropped != events".to_string());
    }
    h.get("counters")
        .and_then(|c| c.get("events_recorded_total"))
        .ok_or("header missing counters.events_recorded_total")?;
    let mut events = 0usize;
    let mut windows = 0usize;
    let mut next_seq = dropped;
    let mut next_window = 0u64;
    let mut truncation_records = 0usize;
    for (lineno, line) in lines {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("truncated").is_some() {
            // The explicit truncation record: only legal (and then
            // mandatory, exactly once, before any event) when the header
            // declares drops, and its counts must agree with the header.
            if dropped == 0 {
                return Err(format!(
                    "line {}: truncation record but header declares no drops",
                    lineno + 1
                ));
            }
            if truncation_records > 0 || events > 0 || windows > 0 {
                return Err(format!(
                    "line {}: truncation record must directly follow the header",
                    lineno + 1
                ));
            }
            truncation_records += 1;
            if v.get("dropped").and_then(Json::as_f64) != Some(dropped as f64) {
                return Err(format!(
                    "line {}: truncation record dropped count disagrees with header",
                    lineno + 1
                ));
            }
            if v.get("first_seq").and_then(Json::as_f64) != Some(dropped as f64) {
                return Err(format!(
                    "line {}: truncation record first_seq must equal dropped",
                    lineno + 1
                ));
            }
        } else if let Some(seq) = v.get("seq").and_then(Json::as_f64) {
            if seq as u64 != next_seq {
                return Err(format!(
                    "line {}: seq {} != expected {}",
                    lineno + 1,
                    seq,
                    next_seq
                ));
            }
            next_seq += 1;
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: event without kind", lineno + 1))?;
            check_event_keys(&v, &["seq", "t_ns", "kind"], kind)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            v.get("t_ns")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: event without t_ns", lineno + 1))?;
            events += 1;
        } else if let Some(w) = v.get("window").and_then(Json::as_f64) {
            if w as u64 != next_window {
                return Err(format!(
                    "line {}: window {} != expected {}",
                    lineno + 1,
                    w,
                    next_window
                ));
            }
            next_window += 1;
            for key in ["wall_ns", "rhr", "ehr", "window_throughput", "migration_bw"] {
                v.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {}: window without {key}", lineno + 1))?;
            }
            windows += 1;
        } else {
            return Err(format!("line {}: neither event nor window", lineno + 1));
        }
    }
    if events as u64 != retained {
        return Err(format!(
            "header declares {retained} retained events, found {events}"
        ));
    }
    if dropped > 0 && truncation_records == 0 {
        return Err(format!(
            "header declares {dropped} dropped events but no truncation record follows"
        ));
    }
    Ok(JsonlSummary {
        events,
        windows,
        dropped,
    })
}

/// Validates Perfetto `trace_event` JSON: a `traceEvents` array whose
/// entries carry a known phase, pid, name, and (for non-metadata phases) a
/// non-negative timestamp, and whose event instants carry exactly their
/// kind's row fields as args. Returns the entry count on success.
pub fn validate_perfetto(text: &str) -> Result<usize, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let evs = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, e) in evs.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing ph"))?;
        if !matches!(ph, "M" | "i" | "C" | "X" | "B" | "E") {
            return Err(format!("entry {i}: unknown phase {ph:?}"));
        }
        e.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry {i}: missing pid"))?;
        if ph != "M" {
            let ts = e
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry {i}: missing ts"))?;
            if ts < 0.0 {
                return Err(format!("entry {i}: negative ts"));
            }
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing name"))?;
        if ph == "i" && name != "trace_truncated" {
            let args = e
                .get("args")
                .ok_or_else(|| format!("entry {i}: missing args"))?;
            check_event_keys(args, &["_"], name).map_err(|e| format!("entry {i}: {e}"))?;
        }
    }
    Ok(evs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MigrationFailure, ShootdownCause, ThresholdCause};
    use crate::observer::Observer;

    fn sample_observer() -> TracingObserver {
        let mut o = TracingObserver::new();
        o.record(Event::new(
            1000.0,
            EventKind::SampleBatch {
                samples: 32,
                load_period: 1009,
                cpu_usage: 0.015,
            },
        ));
        o.record(Event::new(
            2000.0,
            EventKind::Promotion {
                vpage: 42,
                from: 1,
                to: 0,
                bytes: 4096,
            },
        ));
        o.record(Event::new(
            2500.0,
            EventKind::ThresholdRecompute {
                cause: ThresholdCause::Periodic,
                hot: 5,
                warm: 3,
                cold: 1,
            },
        ));
        o.record(Event::new(
            3000.0,
            EventKind::Split {
                vpage: 512,
                tier: 0,
                zero_subpages_freed: 7,
            },
        ));
        o.record(Event::new(
            3500.0,
            EventKind::TlbShootdown {
                vpage: 42,
                cause: ShootdownCause::Migration,
            },
        ));
        o.record(Event::new(
            4000.0,
            EventKind::MigrationFailed {
                vpage: 9,
                to: 0,
                cause: MigrationFailure::OutOfMemory,
            },
        ));
        o
    }

    fn sample_windows() -> Vec<WindowSample> {
        vec![WindowSample {
            index: 0,
            end_event: 100,
            wall_ns: 5000.0,
            accesses: 90,
            window_accesses: 90,
            window_throughput: 1.8e7,
            fast_hit_ratio: 0.75,
            tier_hit_ratios: vec![0.75, 0.25],
            rhr: 0.8,
            ehr: 0.85,
            migrated_bytes: 4096,
            migration_bw: 8.192e8,
            hist_bins: vec![1, 0, 3],
            gauges: vec![("hot_bytes", 8192.0)],
        }]
    }

    #[test]
    fn jsonl_roundtrips_through_validator() {
        let o = sample_observer();
        let w = sample_windows();
        let text = export_jsonl(&o, &w);
        let s = validate_jsonl(&text).unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.windows, 1);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn jsonl_is_deterministic() {
        let o = sample_observer();
        let w = sample_windows();
        assert_eq!(export_jsonl(&o, &w), export_jsonl(&o, &w));
    }

    #[test]
    fn jsonl_reports_drops_in_header() {
        let mut o = TracingObserver::with_ring_capacity(2);
        for i in 0..5u64 {
            o.record(Event::new(
                i as f64,
                EventKind::Collapse { vpage: i, tier: 0 },
            ));
        }
        let text = export_jsonl(&o, &[]);
        let s = validate_jsonl(&text).unwrap();
        assert_eq!(s.events, 2);
        assert_eq!(s.dropped, 3);
        // The explicit truncation record directly follows the header.
        let trunc = Json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert!(trunc.get("truncated").is_some());
        assert_eq!(trunc.get("dropped").and_then(Json::as_f64), Some(3.0));
        assert_eq!(trunc.get("first_seq").and_then(Json::as_f64), Some(3.0));
        // First retained event keeps its global sequence number.
        let v = Json::parse(text.lines().nth(2).unwrap()).unwrap();
        assert_eq!(v.get("seq").and_then(Json::as_f64), Some(3.0));
        // The truncated Perfetto export carries the marker instant too.
        let p = export_perfetto(&o, &[]);
        validate_perfetto(&p).unwrap();
        assert!(p.contains(r#""name":"trace_truncated","args":{"dropped":3,"first_seq":3}"#));
    }

    #[test]
    fn validator_enforces_truncation_record() {
        let mut o = TracingObserver::with_ring_capacity(2);
        for i in 0..5u64 {
            o.record(Event::new(
                i as f64,
                EventKind::Collapse { vpage: i, tier: 0 },
            ));
        }
        let text = export_jsonl(&o, &[]);
        // Dropping the truncation record from a lossy trace must fail.
        let without: String = text
            .lines()
            .filter(|l| !l.contains("\"truncated\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_jsonl(&without)
            .unwrap_err()
            .contains("no truncation record"));
        // A spurious truncation record on a lossless trace must fail too.
        let lossless = export_jsonl(&sample_observer(), &[]);
        let mut lines: Vec<&str> = lossless.lines().collect();
        lines.insert(1, "{\"truncated\":true,\"dropped\":0,\"first_seq\":0}");
        let spurious: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&spurious)
            .unwrap_err()
            .contains("header declares no drops"));
    }

    #[test]
    fn perfetto_roundtrips_through_validator() {
        let o = sample_observer();
        let w = sample_windows();
        let text = export_perfetto(&o, &w);
        // 3 thread metadata + 6 instants + 3 counters.
        assert_eq!(validate_perfetto(&text).unwrap(), 12);
        let v = Json::parse(&text).unwrap();
        let evs = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Instants are µs: the promotion at 2000 ns lands at ts=2.
        let promo = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("promotion"))
            .unwrap();
        assert_eq!(promo.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(promo.get("tid").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn transfer_lifecycle_events_roundtrip() {
        let mut o = TracingObserver::new();
        o.record(Event::new(
            100.0,
            EventKind::MigrationEnqueued {
                vpage: 7,
                from: 1,
                to: 0,
                bytes: 4096,
                queue_depth: 3,
            },
        ));
        o.record(Event::new(
            200.0,
            EventKind::MigrationStarted {
                vpage: 7,
                from: 1,
                to: 0,
                bytes: 4096,
            },
        ));
        o.record(Event::new(
            300.0,
            EventKind::MigrationCompleted {
                vpage: 7,
                from: 1,
                to: 0,
                bytes: 4096,
            },
        ));
        o.record(Event::new(
            400.0,
            EventKind::MigrationAborted {
                vpage: 9,
                to: 0,
                bytes: 4096,
                wasted_bytes: 8192,
                cause: MigrationFailure::Dirty,
            },
        ));
        let text = export_jsonl(&o, &[]);
        let s = validate_jsonl(&text).unwrap();
        assert_eq!(s.events, 4);
        assert!(text.contains(r#""kind":"migration_enqueued","vpage":7"#));
        assert!(text.contains(r#""queue_depth":3"#));
        assert!(text.contains(r#""wasted_bytes":8192,"cause":"dirty""#));
        // The completion fed the promotions counter; the abort its own.
        use crate::registry::{CounterId, GaugeId};
        assert_eq!(o.registry.counter(CounterId::Promotions), 1);
        assert_eq!(o.registry.counter(CounterId::MigrationsEnqueued), 1);
        assert_eq!(o.registry.counter(CounterId::MigrationsAborted), 1);
        assert_eq!(o.registry.gauge(GaugeId::MigrationQueueDepth), 3.0);
        // All four land on the kmigrated perfetto thread.
        let p = export_perfetto(&o, &[]);
        validate_perfetto(&p).unwrap();
        let v = Json::parse(&p).unwrap();
        for e in v.get("traceEvents").and_then(Json::as_arr).unwrap() {
            if e.get("ph").and_then(Json::as_str) == Some("i") {
                assert_eq!(e.get("tid").and_then(Json::as_f64), Some(2.0));
            }
        }
    }

    /// The keys of one exported record, in text order.
    fn keys_in_order(record: &str) -> Vec<&str> {
        record
            .match_indices("\":")
            .map(|(end, _)| {
                let start = record[..end].rfind('"').unwrap() + 1;
                &record[start..end]
            })
            .collect()
    }

    #[test]
    fn every_kind_exports_exactly_its_row_fields() {
        let kinds = crate::event::tests::one_of_every_kind();
        let labels: Vec<&str> = kinds.iter().map(EventKind::label).collect();
        let rows: Vec<&str> = EventKind::SCHEMA.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, rows, "one event per event-kind row");
        let mut o = TracingObserver::new();
        for (i, kind) in kinds.iter().enumerate() {
            o.record(Event::new(i as f64, *kind));
        }
        let jsonl = export_jsonl(&o, &[]);
        assert_eq!(validate_jsonl(&jsonl).unwrap().events, kinds.len());
        let perfetto = export_perfetto(&o, &[]);
        assert_eq!(validate_perfetto(&perfetto).unwrap(), 3 + kinds.len());
        let instants = perfetto.lines().filter(|l| l.contains(r#""ph":"i""#));
        for ((line, instant), (label, fields)) in
            jsonl.lines().skip(1).zip(instants).zip(EventKind::SCHEMA)
        {
            let mut want = vec!["seq", "t_ns", "kind"];
            want.extend_from_slice(fields);
            assert_eq!(keys_in_order(line), want, "{label}: {line}");
            let args = &instant[instant.find(r#""args":"#).unwrap()..];
            let mut want = vec!["args", "_"];
            want.extend_from_slice(fields);
            assert_eq!(keys_in_order(args), want, "{label}: {instant}");
        }
    }

    #[test]
    fn validators_reject_wrong_event_keys() {
        let o = sample_observer();
        let jsonl = export_jsonl(&o, &[]);
        let line = r#""kind":"split","vpage":512,"tier":0,"zero_subpages_freed":7"#;
        assert!(jsonl.contains(line));
        for bad in [
            r#""kind":"split","vpage":512,"tier":0,"zero_subpages_freed":7,"tier":0"#,
            r#""kind":"split","vpage":512,"zero_subpages_freed":7"#,
            r#""kind":"split","vpage":512,"tier":0,"zero_subpages_freed":7,"extra":1"#,
        ] {
            assert!(validate_jsonl(&jsonl.replace(line, bad)).is_err(), "{bad}");
        }
        let perfetto = export_perfetto(&o, &[]);
        let args = r#""args":{"_":0,"vpage":512,"tier":0,"zero_subpages_freed":7}"#;
        assert!(perfetto.contains(args));
        let bad = r#""args":{"_":0,"vpage":512,"tier":0}"#;
        assert!(validate_perfetto(&perfetto.replace(args, bad)).is_err());
    }

    #[test]
    fn validators_reject_corruption() {
        let o = sample_observer();
        let text = export_jsonl(&o, &[]);
        let broken = text.replacen("\"seq\":1", "\"seq\":7", 1);
        assert!(validate_jsonl(&broken).is_err());
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_perfetto("{\"traceEvents\":[{\"ph\":\"Z\"}]}").is_err());
    }
}
