//! Deterministic report-JSON mutation harness: the committed golden run
//! report, damaged by truncation, seeded single-bit flips, and `0x7FFFFFFF`
//! word inflations, must go through what `memtis diff` does with a report —
//! [`Json::parse`], then [`diff_reports`] against the intact report and
//! [`render_diff`] — to a typed [`JsonError`] or a rendered diff, never a
//! panic. Damaged bytes that are not UTF-8 reach the parser with each bad
//! sequence replaced by U+FFFD.

mod common;

use memtis_bench::{diff_reports, render_diff, DiffOptions};
use memtis_repro::obs::json::{Json, JsonError};
use memtis_repro::sim::prelude::FaultRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const GOLDEN: &str = include_str!("../golden/report_roms_1to8.json");
const SEED: u64 = 0x0150_D1FF;
const FLIPS: usize = 3_000;
const INFLATIONS: usize = 300;

/// How one damaged report came out of parse, diff and render.
enum Outcome {
    Refused(JsonError),
    Diffed,
}

#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    refused: usize,
    diffed: usize,
    panicked: Vec<String>,
}

#[test]
fn damaged_reports_parse_to_a_typed_error_or_a_diff() {
    let good = Json::parse(GOLDEN).expect("golden report parses");
    let opts = DiffOptions {
        tol: 0.0,
        per_key: Vec::new(),
        ignore: Vec::new(),
    };
    let intact = diff_reports(&good, &good, &opts);
    assert!(
        intact.compared > 0 && !intact.has_breach(),
        "golden vs itself"
    );

    let mut rng = FaultRng::new(SEED);
    let mut tally = Tally::default();
    common::quiet_panics(|| {
        common::damage(
            GOLDEN.as_bytes(),
            &mut rng,
            FLIPS,
            INFLATIONS,
            |case, bad| {
                tally.cases += 1;
                let body = String::from_utf8_lossy(bad);
                let outcome = catch_unwind(AssertUnwindSafe(|| match Json::parse(&body) {
                    Err(e) => Outcome::Refused(e),
                    Ok(new) => {
                        render_diff(&diff_reports(&good, &new, &opts));
                        Outcome::Diffed
                    }
                }));
                match outcome {
                    Ok(Outcome::Refused(e)) => {
                        // The error renders, as `memtis diff` prints it.
                        assert!(!e.to_string().is_empty(), "{case}: empty message");
                        tally.refused += 1;
                    }
                    Ok(Outcome::Diffed) => tally.diffed += 1,
                    Err(_) => tally.panicked.push(case),
                }
            },
        );
    });

    assert!(tally.cases > 100 + FLIPS);
    assert!(
        tally.panicked.is_empty(),
        "{} of {} damaged reports panicked ({:?})",
        tally.panicked.len(),
        tally.cases,
        tally.panicked.iter().take(5).collect::<Vec<_>>(),
    );
    // Both outcomes are reached: structural damage is refused, and damage
    // inside numbers and strings still parses and diffs.
    assert!(tally.refused > 0 && tally.diffed > 0, "{tally:?}");
}
