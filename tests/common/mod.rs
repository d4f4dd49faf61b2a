//! Hostile-input driver shared by the decoder mutation harnesses
//! (`snapshot_mutation.rs`, `trace_mutation.rs`, `json_mutation.rs`).

use memtis_repro::sim::prelude::FaultRng;

/// Calls `check` with a label and every damaged variant of `good`: the
/// truncations at each hundredth of its length, then `flips` seeded
/// single-bit flips, then `inflations` seeded overwrites of a 4-byte word
/// with `0x7FFFFFFF` (a length field inflated past any real input), less
/// any overwrite that leaves the input unchanged. `rng` is drawn in that
/// order, one pick per flip and per inflation.
pub fn damage(
    good: &[u8],
    rng: &mut FaultRng,
    flips: usize,
    inflations: usize,
    mut check: impl FnMut(String, &[u8]),
) {
    let n = good.len();
    for k in 0..100 {
        let len = k * n / 100;
        check(format!("truncate {len}"), &good[..len]);
    }
    for _ in 0..flips {
        let bit = rng.pick(n * 8);
        let mut bad = good.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        check(format!("flip bit {bit}"), &bad);
    }
    for _ in 0..inflations {
        let at = rng.pick(n - 3);
        let mut bad = good.to_vec();
        bad[at..at + 4].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        if bad != good {
            check(format!("inflate at {at}"), &bad);
        }
    }
}

/// Runs `f` with the panic hook silenced, so panics a harness catches and
/// counts don't flood the output.
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}
