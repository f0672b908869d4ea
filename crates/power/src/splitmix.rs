//! SplitMix64, the one generator behind the meter's noise and the fault
//! stream (and the vendored `StdRng`, which the meter's readings must keep
//! matching draw for draw).
//!
//! The state is a Weyl sequence: each step adds [`GAMMA`], and the output
//! is [`mix`] of the new state. The k-th output after state `s` is
//! therefore `mix(s + k·GAMMA)`, which lets the meter compute a chunk's
//! draws in parallel lanes and advance the state once afterwards.

/// The Weyl-sequence increment: 2⁶⁴/φ, rounded to odd.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The output function, a bijection on `u64`.
#[inline(always)]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of an output as a uniform draw in `[0, 1)`.
#[inline(always)]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Advances `state` one step and returns that step's uniform draw.
pub(crate) fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(GAMMA);
    unit(mix(*state))
}
