//! The command-line flags the bench binaries share.
//!
//! `memtis`, `sweep` and `chaos` shape their runs with the same
//! flags. [`parse`] decodes the ones a binary accepts into [`RunFlags`],
//! writing every driver flag straight into its [`DriverConfig`] field, and
//! offers each argument to the binary's own callback first. A value that
//! does not parse, a value the driver would clamp or ignore (a zero count,
//! a bandwidth that is not a finite non-negative number), a flag the
//! driver would ignore (`--shards` on a per-event `--chunk 1` run), a flag
//! without its value, a flag no binary knows, and a shared flag the binary
//! cannot honour are all an `Err` naming the argument; [`or_exit`] prints
//! it as `error: …` and exits 2. Nothing falls back to a default.

use crate::harness::{trace_exporter, SnapshotOpts};
use memtis_sim::faults::FaultPlan;
use memtis_sim::prelude::{DriverConfig, HysteresisConfig, SimResult};
use memtis_workloads::Scale;
use std::str::FromStr;

/// Every shared flag. A binary passes the subset it accepts to [`parse`].
pub const SHARED: [&str; 15] = [
    "--trace-out",
    "--report-out",
    "--window",
    "--heartbeat",
    "--test-scale",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--shards",
    "--shadow",
    "--hysteresis",
    "--snapshot-out",
    "--snapshot-every",
    "--resume",
];

/// The shared flags of one invocation.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// The caller's base driver config with every driver flag applied:
    /// the config every run of the invocation uses.
    pub driver: DriverConfig,
    /// `--test-scale` selects [`Scale::TEST`].
    pub scale: Scale,
    /// `--trace-out PATH`; its extension picks the format
    /// ([`trace_exporter`]).
    pub trace_out: Option<String>,
    /// `--report-out PATH`.
    pub report_out: Option<String>,
    /// `--snapshot-out`, `--snapshot-every` and `--resume`.
    pub snap: SnapshotOpts,
}

impl RunFlags {
    /// The `engine modes:` banner, when any mode flag was given.
    pub fn modes_banner(&self) -> Option<String> {
        let d = &self.driver;
        (d.shadow || d.hysteresis.is_some()).then(|| {
            format!(
                "engine modes: shadow={} hysteresis={:?}",
                d.shadow, d.hysteresis
            )
        })
    }
}

/// A cursor over the arguments; flag arms pull their values from it.
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl Args<'_> {
    /// The value after `flag`. A missing value, or another flag in its
    /// place, is an error.
    pub fn string(&mut self, flag: &str) -> Result<String, String> {
        match self.rest.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        }
    }

    /// The value after `flag`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.string(flag)?;
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    }

    /// The value after `flag`, decoded by `decode`.
    pub fn with<T>(
        &mut self,
        flag: &str,
        decode: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.string(flag)?;
        decode(&v).map_err(|e| format!("bad {flag} value {v:?}: {e}"))
    }
}

/// Parses `args` over the caller's `base` driver config.
///
/// Each argument goes to `own` first, which consumes the binary's own flags
/// and positionals (pulling any value from the cursor) and returns
/// `Ok(false)` to decline. A declined argument must be one of the
/// `accepted` shared flags.
pub fn parse(
    args: &[String],
    accepted: &[&str],
    base: DriverConfig,
    mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<RunFlags, String> {
    let mut f = RunFlags {
        driver: base,
        scale: Scale::DEFAULT,
        trace_out: None,
        report_out: None,
        snap: SnapshotOpts::default(),
    };
    let mut a = Args { rest: args.iter() };
    while let Some(arg) = a.rest.next() {
        let flag = arg.as_str();
        if own(flag, &mut a)? {
            continue;
        }
        if !SHARED.contains(&flag) {
            return Err(if flag.starts_with('-') {
                format!("unknown flag {flag:?}")
            } else {
                format!("unexpected argument {flag:?}")
            });
        }
        if !accepted.contains(&flag) {
            return Err(format!("{flag} does not apply to this command"));
        }
        let d = &mut f.driver;
        match flag {
            "--trace-out" => {
                f.trace_out = Some(a.with(flag, |p| trace_exporter(p).map(|_| p.to_string()))?)
            }
            "--report-out" => f.report_out = Some(a.string(flag)?),
            "--window" => d.window_events = a.with(flag, positive)?,
            "--heartbeat" => d.heartbeat_events = Some(a.with(flag, positive)?),
            "--test-scale" => f.scale = Scale::TEST,
            "--migration-bw" => d.migration_bw = Some(a.with(flag, bandwidth)?),
            "--migration-queue" => d.migration_queue = Some(a.with(flag, positive)?),
            "--faults" => d.faults = Some(a.with(flag, FaultPlan::parse)?),
            "--chunk" => d.chunk = a.with(flag, positive)?,
            "--shards" => d.shards = Some(a.with(flag, positive)?),
            "--shadow" => d.shadow = true,
            "--hysteresis" => d.hysteresis = Some(a.with(flag, parse_hysteresis)?),
            "--snapshot-out" => f.snap.out = Some(a.string(flag)?),
            "--snapshot-every" => f.snap.every = Some(a.value(flag)?),
            "--resume" => f.snap.resume = Some(a.string(flag)?),
            _ => unreachable!("every SHARED flag has an arm"),
        }
    }
    if f.driver.shards.is_some() && f.driver.chunk <= 1 {
        return Err(
            "--shards needs --chunk above 1: a per-event run has no bursts to shard".into(),
        );
    }
    f.snap.validate(accepted.contains(&"--snapshot-out"))?;
    Ok(f)
}

/// Parses a comma-separated list of at least one item.
pub fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Vec<T> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(item)
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err("empty list".into());
    }
    Ok(items)
}

/// Unwraps a parse result, or prints `error: …` and `usage` and exits 2.
pub fn or_exit<T>(r: Result<T, String>, usage: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

/// Unwraps a run result, or prints `error: run failed: …` and exits 1.
pub fn run_or_exit<T>(r: SimResult<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: run failed: {e:?}");
        std::process::exit(1)
    })
}

/// Parses a count of at least 1. The driver clamps a zero window or
/// heartbeat to 1, runs `--chunk 0` per event and migrates nothing through
/// a zero-deep queue, so zero is refused rather than rewritten.
fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err("want a positive integer".into()),
    }
}

/// Parses a `--migration-bw` cap in bytes/ns: a finite number, at least 0
/// (0 means unlimited). The driver would treat NaN and negative caps as
/// unlimited and an infinite cap as a zero-time copy engine.
fn bandwidth(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(bw) if bw.is_finite() && bw >= 0.0 => Ok(bw),
        _ => Err("want a finite number of bytes/ns, 0 for unlimited".into()),
    }
}

/// Parses a `--hysteresis` spec: `on` (defaults) or
/// `WINDOW_NS:BASE_BACKOFF_NS:MAX_BACKOFF_NS` in sim nanoseconds.
pub fn parse_hysteresis(spec: &str) -> Result<HysteresisConfig, String> {
    if spec == "on" {
        return Ok(HysteresisConfig::default());
    }
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "bad hysteresis spec {spec:?} (want on|WINDOW:BASE:MAX)"
        ));
    }
    let parse = |s: &str, what: &str| -> Result<f64, String> {
        s.parse()
            .map_err(|_| format!("bad hysteresis {what} {s:?}"))
    };
    Ok(HysteresisConfig {
        window_ns: parse(parts[0], "window")?,
        base_backoff_ns: parse(parts[1], "base backoff")?,
        max_backoff_ns: parse(parts[2], "max backoff")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(line: &str) -> Result<RunFlags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, &SHARED, DriverConfig::default(), |_, _| Ok(false))
    }

    #[test]
    fn driver_flags_land_in_their_fields() {
        let f = parse_all(
            "--window 500 --heartbeat 7 --migration-bw 8 --migration-queue 3 \
             --chunk 2 --shards 2 --shadow --hysteresis 1:2:3 --test-scale",
        )
        .expect("valid flags");
        let d = &f.driver;
        assert_eq!(d.window_events, 500);
        assert_eq!(d.heartbeat_events, Some(7));
        assert_eq!(d.migration_bw, Some(8.0));
        assert_eq!(d.migration_queue, Some(3));
        assert_eq!(d.chunk, 2);
        assert_eq!(d.shards, Some(2));
        assert!(d.shadow);
        assert!(d.hysteresis.as_ref().is_some_and(|h| h.window_ns == 1.0
            && h.base_backoff_ns == 2.0
            && h.max_backoff_ns == 3.0));
        assert_eq!(f.scale, Scale::TEST);
        assert!(f.modes_banner().is_some());
        assert!(parse_all("").expect("no flags").modes_banner().is_none());
    }

    #[test]
    fn lists_reject_bad_and_empty_items() {
        let num = |s: &str| s.parse::<u32>().map_err(|e| e.to_string());
        assert_eq!(list("1, 2,", num), Ok(vec![1, 2]));
        assert!(list(",", num).is_err());
        assert!(list("1,x", num).is_err());
    }
}
