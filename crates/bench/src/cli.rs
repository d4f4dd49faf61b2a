//! The command-line flags the bench binaries share.
//!
//! `memtis`, `sweep` and `chaos` shape their runs with the same
//! flags. [`parse`] decodes the ones a binary accepts into [`RunFlags`],
//! writing every driver flag straight into its [`DriverConfig`] field, and
//! offers each argument to the binary's own callback first. A value that
//! does not parse, a flag without its value, a flag no binary knows, and a
//! shared flag the binary cannot honour are all an `Err` naming the
//! argument; [`or_exit`] prints it as `error: …` and exits 2. Nothing
//! falls back to a default.

use crate::harness::{SnapshotOpts, TraceFormat};
use memtis_sim::faults::FaultPlan;
use memtis_sim::prelude::{AdmissionConfig, DriverConfig, HysteresisConfig, SimResult};
use memtis_workloads::Scale;
use std::str::FromStr;

/// Every shared flag. A binary passes the subset it accepts to [`parse`].
pub const SHARED: [&str; 17] = [
    "--trace-out",
    "--trace-format",
    "--report-out",
    "--window",
    "--heartbeat",
    "--test-scale",
    "--migration-bw",
    "--migration-queue",
    "--faults",
    "--chunk",
    "--shards",
    "--admission",
    "--shadow",
    "--hysteresis",
    "--snapshot-out",
    "--snapshot-every",
    "--resume",
];

/// The shared flags of one invocation.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// The caller's base driver config with every driver flag applied.
    /// [`RunFlags::driver`] resolves its `shards`.
    pub base: DriverConfig,
    /// `--shards S|auto`.
    pub shards: Option<ShardsSpec>,
    /// `--test-scale` selects [`Scale::TEST`].
    pub scale: Scale,
    /// `--trace-out PATH`.
    pub trace_out: Option<String>,
    /// `--trace-format jsonl|perfetto`.
    pub trace_format: TraceFormat,
    /// `--report-out PATH`.
    pub report_out: Option<String>,
    /// `--snapshot-out`, `--snapshot-every` and `--resume`.
    pub snap: SnapshotOpts,
}

impl RunFlags {
    /// The driver config for a run: the overridden base with `--shards`
    /// resolved last, against that config and `batch_safe` (whether every
    /// policy the run selects is batch-safe).
    pub fn driver(&self, batch_safe: bool) -> DriverConfig {
        let mut d = self.base.clone();
        d.shards = self.shards.and_then(|s| s.resolve(&d, batch_safe));
        d
    }

    /// The `engine modes:` banner, when any mode flag was given.
    pub fn modes_banner(&self) -> Option<String> {
        let d = &self.base;
        (d.admission.is_some() || d.shadow.is_some() || d.hysteresis.is_some()).then(|| {
            format!(
                "engine modes: admission={:?} shadow={:?} hysteresis={:?}",
                d.admission, d.shadow, d.hysteresis
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
        base,
        shards: None,
        scale: Scale::DEFAULT,
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
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
        let d = &mut f.base;
        match flag {
            "--trace-out" => f.trace_out = Some(a.string(flag)?),
            "--trace-format" => f.trace_format = a.with(flag, TraceFormat::parse)?,
            "--report-out" => f.report_out = Some(a.string(flag)?),
            "--window" => d.window_events = a.value(flag)?,
            "--heartbeat" => d.heartbeat_events = Some(a.value(flag)?),
            "--test-scale" => f.scale = Scale::TEST,
            "--migration-bw" => d.migration_bw = Some(a.value(flag)?),
            "--migration-queue" => d.migration_queue = Some(a.value(flag)?),
            "--faults" => d.faults = Some(a.with(flag, FaultPlan::parse)?),
            "--chunk" => d.chunk = a.value(flag)?,
            "--shards" => f.shards = Some(a.with(flag, ShardsSpec::parse)?),
            "--admission" => d.admission = Some(a.with(flag, parse_admission)?),
            "--shadow" => d.shadow = Some(a.with(flag, parse_shadow)?),
            "--hysteresis" => d.hysteresis = Some(a.with(flag, parse_hysteresis)?),
            "--snapshot-out" => f.snap.out = Some(a.string(flag)?),
            "--snapshot-every" => f.snap.every = Some(a.value(flag)?),
            "--resume" => f.snap.resume = Some(a.string(flag)?),
            _ => unreachable!("every SHARED flag has an arm"),
        }
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

/// A `--shards` value: an explicit count, or `auto` to size from the host
/// and run configuration at resolution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardsSpec {
    /// Pick the shard count automatically ([`ShardsSpec::resolve`]).
    Auto,
    /// Exactly this many shards.
    Fixed(usize),
}

impl ShardsSpec {
    /// Parses a `--shards` argument: `auto` or a positive integer.
    pub fn parse(s: &str) -> Result<ShardsSpec, String> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ShardsSpec::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n > 0 => Ok(ShardsSpec::Fixed(n)),
            _ => Err("want a positive integer or auto".into()),
        }
    }

    /// Resolves to a concrete `DriverConfig::shards` value.
    ///
    /// `Fixed(n)` passes through untouched. `Auto` inspects the run:
    /// configurations that force the sharded pipeline's serial fallback
    /// anyway — active fault plans, a bandwidth-capped migration link,
    /// shadow-copy migration, a batch-unsafe policy, or per-event batching
    /// (`chunk <= 1`) — resolve to `None` (don't spawn a pool that can
    /// never engage), as does a single-core host, where lane parallelism
    /// can't beat the serial path. Otherwise the shard count is the host's
    /// available parallelism, capped at 8 (lane-balance over 64 lanes
    /// degrades beyond that; see DESIGN.md §12).
    pub fn resolve(self, driver: &DriverConfig, batch_safe: bool) -> Option<usize> {
        let n = match self {
            ShardsSpec::Fixed(n) => return Some(n),
            ShardsSpec::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        let has_faults = driver.faults.as_ref().is_some_and(|p| !p.is_inert());
        let bw_capped = driver.migration_bw.is_some_and(|v| v > 0.0);
        let shadowed = driver.shadow == Some(true);
        if has_faults || bw_capped || shadowed || !batch_safe || driver.chunk <= 1 || n <= 1 {
            return None;
        }
        Some(n.min(8))
    }
}

/// Parses an `--admission` spec: `on` (defaults), `off` (force off), or
/// `HORIZON_NS[:WINDOW_NS]` in sim nanoseconds (floats accepted, e.g.
/// `5e7:1e6`).
pub fn parse_admission(spec: &str) -> Result<Option<AdmissionConfig>, String> {
    match spec {
        "on" | "default" => Ok(Some(AdmissionConfig::default())),
        "off" => Ok(None),
        _ => {
            let mut cfg = AdmissionConfig::default();
            let (horizon, window) = match spec.split_once(':') {
                Some((h, w)) => (h, Some(w)),
                None => (spec, None),
            };
            cfg.horizon_ns = horizon
                .parse()
                .map_err(|_| format!("bad admission horizon {horizon:?}"))?;
            if let Some(w) = window {
                cfg.window_ns = w
                    .parse()
                    .map_err(|_| format!("bad admission window {w:?}"))?;
            }
            Ok(Some(cfg))
        }
    }
}

/// Parses a `--shadow` spec: `on` or `off`.
pub fn parse_shadow(spec: &str) -> Result<bool, String> {
    match spec {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("bad shadow spec {spec:?} (want on|off)")),
    }
}

/// Parses a `--hysteresis` spec: `on` (defaults), `off` (force off), or
/// `WINDOW_NS:BASE_BACKOFF_NS:MAX_BACKOFF_NS` in sim nanoseconds.
pub fn parse_hysteresis(spec: &str) -> Result<Option<HysteresisConfig>, String> {
    match spec {
        "on" | "default" => Ok(Some(HysteresisConfig::default())),
        "off" => Ok(None),
        _ => {
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() != 3 {
                return Err(format!(
                    "bad hysteresis spec {spec:?} (want on|off|WINDOW:BASE:MAX)"
                ));
            }
            let parse = |s: &str, what: &str| -> Result<f64, String> {
                s.parse()
                    .map_err(|_| format!("bad hysteresis {what} {s:?}"))
            };
            Ok(Some(HysteresisConfig {
                window_ns: parse(parts[0], "window")?,
                base_backoff_ns: parse(parts[1], "base backoff")?,
                max_backoff_ns: parse(parts[2], "max backoff")?,
            }))
        }
    }
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
             --chunk 1 --shards 2 --shadow on --hysteresis off --test-scale",
        )
        .expect("valid flags");
        let d = f.driver(true);
        assert_eq!(d.window_events, 500);
        assert_eq!(d.heartbeat_events, Some(7));
        assert_eq!(d.migration_bw, Some(8.0));
        assert_eq!(d.migration_queue, Some(3));
        assert_eq!(d.chunk, 1);
        assert_eq!(d.shards, Some(2));
        assert_eq!(d.shadow, Some(true));
        assert!(matches!(d.hysteresis, Some(None)));
        assert!(d.admission.is_none());
        assert_eq!(f.scale, Scale::TEST);
        assert!(f.modes_banner().is_some());
        assert!(parse_all("").expect("no flags").modes_banner().is_none());
    }

    #[test]
    fn auto_shards_resolve_after_every_override() {
        let faulted = parse_all("--shards auto --faults seed=3,abort=0.5").expect("valid");
        assert_eq!(faulted.driver(true).shards, None);
        let fixed = parse_all("--shards 3 --faults seed=3,abort=0.5").expect("valid");
        assert_eq!(fixed.driver(false).shards, Some(3));
    }

    #[test]
    fn lists_reject_bad_and_empty_items() {
        let num = |s: &str| s.parse::<u32>().map_err(|e| e.to_string());
        assert_eq!(list("1, 2,", num), Ok(vec![1, 2]));
        assert!(list(",", num).is_err());
        assert!(list("1,x", num).is_err());
    }
}
