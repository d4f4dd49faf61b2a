//! `Json::parse` allocates in proportion to its input: a counting global
//! allocator tracks peak live heap bytes across each parse, over the
//! damaged goldens of `json_mutation.rs` and adversarial shapes (long
//! arrays, nesting to the depth limit, long escaped strings, objects with
//! many keys), and every parse must stay within [`BYTES_PER_INPUT_BYTE`]
//! times its input length (plus a small fixed slack for tiny inputs).
//!
//! The allocator is process-wide, so this file holds a single test: no
//! other thread allocates while a parse is measured.

#[allow(dead_code)]
mod common;

use memtis_repro::obs::json::Json;
use memtis_repro::sim::prelude::FaultRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The stated bound: peak live bytes per input byte. The densest shape is
/// arrays nested to the depth limit, where each `[` holds a buffer of four
/// values (64 B per input byte at 128 levels); a chain of one-key objects
/// `{"":{"":…}}` peaks at 52, a long `[0,0,…]` at 48, and strings at
/// about 1.
const BYTES_PER_INPUT_BYTE: usize = 160;
/// Fixed allowance for inputs too short for the ratio to mean anything.
const SLACK: usize = 4096;

const GOLDENS: [&str; 2] = [
    include_str!("../golden/report_roms_1to8.json"),
    include_str!("../golden/report_roms_1to8_shards2.json"),
];

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks at once: count the new block
        // before the old one is released.
        grow(new_size);
        let out = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes `Json::parse(input)` added, its result included.
fn parse_peak(input: &str) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let parsed = Json::parse(input);
    let peak = PEAK.load(Relaxed) - base;
    drop(parsed);
    peak
}

/// Adversarial shapes, each about `n` bytes long, with their names.
fn shapes(n: usize) -> Vec<(String, String)> {
    let nest = |open: &str, close: &str, depth: usize| {
        format!("{}0{}", open.repeat(depth), close.repeat(depth))
    };
    let keys = (0..n / 12)
        .map(|i| format!("\"k{i:07}\":0"))
        .collect::<Vec<_>>()
        .join(",");
    vec![
        ("[0,0,…]".into(), format!("[{}0]", "0,".repeat(n / 2))),
        ("[[],[],…]".into(), format!("[{}[]]", "[],".repeat(n / 3))),
        ("[{},{},…]".into(), format!("[{}{{}}]", "{},".repeat(n / 3))),
        (
            "[{\"\":0},…]".into(),
            format!("[{}{{\"\":0}}]", "{\"\":0},".repeat(n / 7)),
        ),
        ("arrays nested to the limit".into(), nest("[", "]", 128)),
        (
            "objects nested to the limit".into(),
            nest("{\"\":", "}", 128),
        ),
        ("arrays nested past the limit".into(), nest("[", "]", 129)),
        ("long string".into(), format!("\"{}\"", "a".repeat(n))),
        (
            "long escaped string".into(),
            format!("\"{}\"", "\\u00e9\\n".repeat(n / 8)),
        ),
        (
            "string of escaped quotes".into(),
            format!("\"{}\"", "\\\"".repeat(n / 2)),
        ),
        ("object with many keys".into(), format!("{{{keys}}}")),
        ("many keys, unterminated".into(), format!("{{{keys}")),
        ("long number".into(), "1".repeat(n)),
        ("bad long number".into(), format!("1{}", "e".repeat(n))),
    ]
}

#[test]
fn parse_allocation_is_bounded_by_input_size() {
    let mut breaches = Vec::new();
    let mut check = |label: String, input: &str| {
        let peak = parse_peak(input);
        if peak > BYTES_PER_INPUT_BYTE * input.len() + SLACK {
            breaches.push(format!("{label}: {peak} B for {} input B", input.len()));
        }
    };
    for n in [64, 4_096, 1 << 18] {
        for (name, input) in shapes(n) {
            check(format!("{name} ({} B)", input.len()), &input);
        }
    }
    for (g, golden) in GOLDENS.into_iter().enumerate() {
        check(format!("golden {g}"), golden);
        let mut rng = FaultRng::new(0x0A11_0C8D ^ g as u64);
        common::damage(golden.as_bytes(), &mut rng, 1_000, 100, |case, bad| {
            let body = String::from_utf8_lossy(bad).into_owned();
            check(format!("golden {g} {case}"), &body);
        });
    }
    assert!(
        breaches.is_empty(),
        "parses above {BYTES_PER_INPUT_BYTE} B per input byte:\n{}",
        breaches.join("\n")
    );
}
