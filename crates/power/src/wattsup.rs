//! The simulated WattsUp Pro meter.
//!
//! The physical device reports whole-node power once per second with 0.1 W
//! display resolution and a small sensor error. The simulation reproduces
//! those characteristics so that downstream statistics face realistic
//! measurement conditions.
//!
//! Every reading is defined by one libm expression — Box–Muller noise
//! `g = √(−2 ln u₁)·cos(2π u₂)` from two SplitMix64 draws, added to the true
//! draw, then rounded to the resolution — and [`SimulatedWattsUp::record`]
//! returns exactly those bits. It gets there faster than evaluating libm per
//! sample: readings are built in chunks of `CHUNK` samples, whose
//! timestamps accumulate in one pass and whose true draws come from one
//! [`PowerSource::power_at_each`] call, and one branch-free body computes
//! each chunk's draws in parallel lanes (`mix(state + k·γ)`), a polynomial
//! estimate `ĝ`, and the reading wherever an exactness filter proves that
//! the libm value falls in the same resolution step, in short passes over
//! the chunk; elsewhere the libm expression is evaluated. No step branches
//! per sample. The body is compiled for AVX-512, AVX2 and the baseline, and
//! the host picks the tier. See DESIGN.md, "Meter hot path".

use crate::source::PowerSource;
use crate::splitmix::{mix, unit, GAMMA};
use crate::trace::{PowerSample, PowerTrace};
use enprop_units::{Seconds, Watts};

/// Characteristics of the meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterSpec {
    /// Samples per second (WattsUp Pro: 1 Hz).
    pub sample_hz: f64,
    /// Reading quantization step in watts (WattsUp Pro: 0.1 W).
    pub resolution_w: f64,
    /// Gaussian sensor noise standard deviation, in watts.
    pub noise_sd_w: f64,
    /// Multiplicative calibration error (1.0 = perfectly calibrated).
    pub gain: f64,
}

impl Default for MeterSpec {
    /// WattsUp-Pro-like defaults: 1 Hz, 0.1 W steps, 0.5 W noise, unit gain.
    fn default() -> Self {
        Self { sample_hz: 1.0, resolution_w: 0.1, noise_sd_w: 0.5, gain: 1.0 }
    }
}

/// A deterministic, seedable simulation of a WattsUp Pro watching one node.
///
/// The node is characterized by its idle power (drawn even when no
/// application runs); applications are [`PowerSource`]s whose draw adds on
/// top of the idle floor.
#[derive(Debug)]
pub struct SimulatedWattsUp {
    spec: MeterSpec,
    idle_power: Watts,
    /// SplitMix64 state of the noise stream: two draws per sample.
    state: u64,
    /// The instruction-set tier of the chunk body, never wider than the host.
    tier: Tier,
    /// Working arrays of every reading's chunks, zeroed once per meter.
    chunk: Box<Chunk>,
}

/// Samples per chunk of [`SimulatedWattsUp::record`]: large enough to
/// amortize the vectorized passes, small enough that the four chunk arrays
/// (2 KiB) stay in L1.
const CHUNK: usize = 64;

/// The arrays one chunk of a reading is built in. `value` holds each
/// sample's u₁, then its radius, then its reading value, and `angle` its
/// u₂, then its angle. A meter owns one set, so that a reading zeroes none:
/// every pass reads only entries that the same chunk wrote.
struct Chunk {
    at: [f64; CHUNK],
    base: [f64; CHUNK],
    value: [f64; CHUNK],
    angle: [f64; CHUNK],
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk").finish_non_exhaustive()
    }
}

impl SimulatedWattsUp {
    /// Creates a meter for a node with the given idle floor. Panics on a
    /// sample rate that is not positive and finite, a resolution that is
    /// negative or not finite, a noise level or gain that is not finite, or
    /// a negative idle floor: any of them would turn every reading into
    /// NaN, a hang, or a silent 0 W.
    pub fn new(spec: MeterSpec, idle_power: Watts, seed: u64) -> Self {
        assert!(
            spec.sample_hz > 0.0 && spec.sample_hz.is_finite(),
            "sample rate must be positive and finite"
        );
        assert!(spec.resolution_w >= 0.0, "resolution must be non-negative");
        assert!(spec.resolution_w.is_finite(), "resolution must be finite");
        assert!(spec.noise_sd_w.is_finite(), "noise standard deviation must be finite");
        assert!(spec.gain.is_finite(), "gain must be finite");
        assert!(idle_power.value() >= 0.0, "idle power must be non-negative");
        let chunk = Box::new(Chunk {
            at: [0.0; CHUNK],
            base: [0.0; CHUNK],
            value: [0.0; CHUNK],
            angle: [0.0; CHUNK],
        });
        Self { spec, idle_power, state: seed, tier: Tier::detect(), chunk }
    }

    /// The node's idle floor as configured.
    pub fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// The meter characteristics.
    pub fn spec(&self) -> MeterSpec {
        self.spec
    }

    /// Resets the noise stream so the meter behaves exactly as if freshly
    /// constructed with `seed`. Parallel sweep workers use this to give each
    /// configuration its own deterministic noise stream independent of how
    /// many configurations the worker measured before it.
    pub fn reseed(&mut self, seed: u64) {
        self.state = seed;
    }

    /// Records the node idling for `window` — the baseline-capture phase of
    /// an HCLWATTSUP session.
    pub fn record_idle(&mut self, window: Seconds) -> PowerTrace {
        struct Nothing(Seconds);
        impl PowerSource for Nothing {
            fn power_at(&self, _t: Seconds) -> Watts {
                Watts::ZERO
            }
            fn duration(&self) -> Seconds {
                self.0
            }
        }
        self.record(&Nothing(window))
    }

    /// Records the node running `app`, sampling idle + app power at the
    /// meter's rate from t = 0 through the app's completion (final partial
    /// interval included by sampling at the exact end time).
    pub fn record(&mut self, app: &dyn PowerSource) -> PowerTrace {
        let spec = self.spec;
        let idle = self.idle_power.value();
        let period = 1.0 / spec.sample_hz;
        let d = app.duration().value();
        // An infinite duration would append samples until memory runs out.
        assert!(d > 0.0 && d.is_finite(), "application must run for a positive, finite time");
        // Sample periods in the run: with the final sample at `d` and one
        // for round-off in the accumulated timestamps, they size the trace
        // (capped so no duration reserves more than a million samples up
        // front) and bound the first chunk's lanes.
        let periods = d / period;
        let mut trace = PowerTrace::with_capacity(periods.min(1e6) as usize + 3);
        let Chunk { at, base, value, angle } = &mut *self.chunk;
        let mut t = 0.0;
        let mut lanes = lanes_left(periods);
        let mut done = false;
        while !done {
            // Timestamps 0, period, 2·period, … while below `d`, then one
            // final sample at exactly `d`: the lanes accumulate `t` and count
            // those below `d`, and since they ascend, the first lane at or
            // past `d` takes `d` and ends the reading.
            let mut below = 0;
            for a in &mut at[..lanes] {
                *a = t;
                below += usize::from(t < d);
                t += period;
            }
            let n = if below < lanes {
                at[below] = d;
                done = true;
                below + 1
            } else {
                lanes
            };
            let (at, base) = (&at[..n], &mut base[..n]);
            // One dynamic call per chunk, then the noiseless reading.
            app.power_at_each(at, base);
            for b in base.iter_mut() {
                *b = (idle + *b) * spec.gain;
            }
            let state = self.state;
            let value = &mut value[..n];
            self.tier.values(spec, state, base, value, &mut angle[..n]);
            // The filter's rare refusals take the libm expression; one
            // branch-free scan tells whether the chunk has any.
            if value.iter().fold(false, |any, v| any | v.is_nan()) {
                for (i, v) in value.iter_mut().enumerate().filter(|(_, v)| v.is_nan()) {
                    *v = libm_value(spec, base[i], draws(state, i));
                }
            }
            trace.extend_ordered(
                at.iter()
                    .zip(&*value)
                    .map(|(&at, &v)| PowerSample { at: Seconds(at), power: Watts(v.max(0.0)) }),
            );
            // Two draws per sample.
            self.state = state.wrapping_add((2 * n as u64).wrapping_mul(GAMMA));
            lanes = lanes_left((d - t) / period);
        }
        trace
    }
}

/// Lanes for a chunk that starts `periods` sample periods before the
/// reading's end: the samples below the end, the final one, and one for
/// round-off in the accumulated timestamps, at most a chunk. Any count of
/// at least one gives the same reading; a smaller one adds a chunk, a
/// larger one computes lanes past the end.
fn lanes_left(periods: f64) -> usize {
    (periods as usize).saturating_add(2).min(CHUNK)
}

/// `u₁`'s range: the vendored `StdRng`'s `gen_range(1e-12..1.0)` maps a
/// unit draw `x` to `1e-12 + x·(1 − 1e-12)`, keeping `ln u₁` finite.
const U1_LO: f64 = 1e-12;
const U1_SPAN: f64 = 1.0 - U1_LO;

/// The Box–Muller draws `(u₁, u₂)` of sample `i` of a chunk whose first
/// draw follows SplitMix64 state `state`: its outputs `2i + 1` and `2i + 2`.
#[inline(always)]
fn draws(state: u64, i: usize) -> (f64, f64) {
    let k = 2 * i as u64 + 1;
    let x1 = mix(state.wrapping_add(k.wrapping_mul(GAMMA)));
    let x2 = mix(state.wrapping_add((k + 1).wrapping_mul(GAMMA)));
    (U1_LO + unit(x1) * U1_SPAN, unit(x2))
}

/// One sample's reading before the clamp at 0 W: the noiseless part
/// `base = (idle + app power) · gain` plus the Box–Muller draw `(u1, u2)`
/// evaluated through libm, rounded to the resolution. This expression
/// *defines* the meter: every reading equals it bit for bit, and it is the
/// fallback wherever [`fast_value`] cannot prove that it does.
fn libm_value(spec: MeterSpec, base: f64, (u1, u2): (f64, f64)) -> f64 {
    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let noisy = base + g * spec.noise_sd_w;
    if spec.resolution_w > 0.0 {
        (noisy / spec.resolution_w).round() * spec.resolution_w
    } else {
        noisy
    }
}

/// The instruction-set tier the chunk body runs on. Ordered by width; a
/// meter carries the widest one the host has, so the dispatch in
/// [`values`](Self::values) is sound by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Tier {
    /// The x86-64 (SSE2) or other target baseline.
    Baseline,
    /// 4 × 64-bit lanes; its 64-bit multiplies are emulated.
    Avx2,
    /// 8 × 64-bit lanes, with AVX-512DQ's 64-bit multiply and conversions.
    Avx512,
}

impl Tier {
    /// The widest tier this host can execute.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                return Tier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Tier::Avx2;
            }
        }
        Tier::Baseline
    }

    /// [`values_body`] on this tier's instantiation, over one chunk: `base`
    /// holds at most [`CHUNK`] samples, and the working arrays `value` and
    /// `angle` are as long.
    fn values(
        self,
        spec: MeterSpec,
        state: u64,
        base: &[f64],
        value: &mut [f64],
        angle: &mut [f64],
    ) {
        let n = base.len();
        assert!(n <= CHUNK && value.len() == n && angle.len() == n, "one chunk of {n} samples");
        match self {
            // SAFETY: a meter's tier is `Tier::detect()` or, in tests, one
            // of the tiers at or below it, so the host has AVX-512F and DQ.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { values_avx512(spec, state, base, value, angle) },
            // SAFETY: as above; a host at or above this tier has AVX2.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { values_avx2(spec, state, base, value, angle) },
            _ => values_body(spec, state, base, value, angle),
        }
    }
}

/// [`values_body`] compiled with AVX-512F and DQ enabled (same safe body).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn values_avx512(
    spec: MeterSpec,
    state: u64,
    base: &[f64],
    value: &mut [f64],
    angle: &mut [f64],
) {
    values_body(spec, state, base, value, angle);
}

/// [`values_body`] compiled with AVX2 enabled (same safe body).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn values_avx2(
    spec: MeterSpec,
    state: u64,
    base: &[f64],
    value: &mut [f64],
    angle: &mut [f64],
) {
    values_body(spec, state, base, value, angle);
}

/// The chunk body: for each sample `i`, its draws from SplitMix64 state
/// `state`, the polynomial estimate `ĝ`, and the reading value that
/// [`fast_value`] vouches for (NaN where it cannot), left in `value`.
/// Straight-line integer and floating-point arithmetic with no branches and
/// no libm calls, over exactly `base.len()` samples, so each loop
/// vectorizes. It runs as four short passes rather than one long one,
/// because a sample's whole computation is one dependency chain too long
/// for the core to overlap successive iterations: the draws into `value`
/// (u₁) and `angle` (u₂), the [`radii`] and the [`angles`] in place, then
/// the filter on `ĝ = radius·angle`. It is inlined into each instantiation;
/// rustc never fuses or reassociates floating point, so every lane computes
/// the same IEEE operations in the same order as the one expression
/// `√(−2 ln u₁)·cos 2πu₂` would.
#[inline(always)]
fn values_body(spec: MeterSpec, state: u64, base: &[f64], value: &mut [f64], angle: &mut [f64]) {
    for (i, (u1, u2)) in value.iter_mut().zip(angle.iter_mut()).enumerate() {
        (*u1, *u2) = draws(state, i);
    }
    radii(value);
    angles(angle);
    for ((v, &a), &base) in value.iter_mut().zip(&*angle).zip(base) {
        *v = fast_value(spec, base, *v * a);
    }
}

/// The Box–Muller radii `√(−2 ln u₁)` of a chunk's draws `u₁`, in place.
#[inline(always)]
fn radii(u1: &mut [f64]) {
    for r in u1 {
        *r = (-2.0 * ln(*r)).sqrt();
    }
}

/// The Box–Muller angles `cos 2πu₂` of a chunk's draws `u₂`, in place.
#[inline(always)]
fn angles(u2: &mut [f64]) {
    for a in u2 {
        *a = cos_2pi(*a);
    }
}

/// 2⁵²: adding and subtracting it rounds a non-negative `x < 2⁵²` to the
/// nearest integer without a libm call.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Relative slack for the rounding errors of the two evaluations that the
/// filter compares (at most seven roundings of 2⁻⁵³ between them), with
/// four-fold headroom.
const SLACK: f64 = 1.0 / (1u64 << 48) as f64;

/// The bound `ε` on `|ĝ − g|`, where `g` is the libm evaluation of the same
/// draw: over 10⁵ times the largest difference measured (4.2e-15·(1 + |ĝ|),
/// mostly libm's own rounding of `2π·u₂` before its `cos`), and asserted with
/// 10⁴ of headroom by the approximation-bound test.
#[inline(always)]
fn error_bound(g_hat: f64) -> f64 {
    1e-9 * (1.0 + g_hat.abs())
}

/// The value [`libm_value`] would return, computed from the polynomial
/// estimate `g_hat` — or NaN, which no value it vouches for can be, when the
/// resolution step is in doubt. Branch-free, so a pass over a chunk
/// vectorizes.
///
/// The libm value is `round(fl(fl(base + fl(g·sd)) / res))·res`, monotone
/// in `g`. With `|ĝ − g| ≤ ε`, the step count `v = (base + ĝ·sd)/res`
/// computed here is within `|sd|·ε/res` plus rounding slack of the libm
/// one; when it is farther than that from every half-integer (and from
/// zero, which fixes the sign of a zero reading), both round to the same
/// integer `k`. `k` carries `v`'s sign, as `f64::round` would give it. An
/// unquantized meter (`res == 0`) makes `v` infinite or NaN, so all of its
/// samples fall back.
#[inline(always)]
fn fast_value(spec: MeterSpec, base: f64, g_hat: f64) -> f64 {
    let MeterSpec { resolution_w: res, noise_sd_w: sd, .. } = spec;
    let inv_res = 1.0 / res;
    let v = (base + g_hat * sd) * inv_res;
    let av = v.abs();
    let k = (av + TWO_52) - TWO_52;
    let margin =
        (sd.abs() * error_bound(g_hat) + (base.abs() + (g_hat * sd).abs()) * SLACK) * inv_res;
    let sure = (av < TWO_52) & (av > margin) & ((av - k).abs() < 0.5 - margin);
    if sure {
        k.copysign(v) * res
    } else {
        f64::NAN
    }
}

/// Natural logarithm of a positive normal `x`, branch-free (fdlibm's `log`:
/// `x = 2ᵏ(1 + f)` with `1 + f` in `[√2/2, √2)`, then `ln(1 + f)` from a
/// polynomial in `s = f/(2 + f)`). Error below 1 ulp.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = 0.6931471803691238;
    const LN2_LO: f64 = 1.9082149292705877e-10;
    const LG1: f64 = 0.6666666666666735;
    const LG2: f64 = 0.3999999999940942;
    const LG3: f64 = 0.2857142874366239;
    const LG4: f64 = 0.22222198432149784;
    const LG5: f64 = 0.1818357216161805;
    const LG6: f64 = 0.15313837699209373;
    const LG7: f64 = 0.14798198605116586;
    // Bias the exponent so that mantissas at or above √2/2 carry into it:
    // the top bits then hold k + 1023, the low bits the mantissa of 1 + f.
    let ix = x.to_bits().wrapping_add(0x3ff0_0000_0000_0000 - 0x3fe6_a09e_0000_0000);
    // k as a double without an integer conversion: 2⁵² + (k + 1023), minus.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (ix >> 52)) - (TWO_52 + 1023.0);
    let f = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + 0x3fe6_a09e_0000_0000) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `cos(2πu)` for `u` in `[0, 1]`, branch-free, reduced on `u` itself:
/// `u = n/4 + r` with `|r| ≤ 1/8` exactly, then fdlibm's sine or cosine
/// kernel at `x = 2πr` picked and signed by the quadrant `n mod 4`.
/// Absolute error about 1e-16.
#[inline(always)]
fn cos_2pi(u: f64) -> f64 {
    const C1: f64 = 0.0416666666666666;
    const C2: f64 = -0.001388888888887411;
    const C3: f64 = 2.480158728947673e-5;
    const C4: f64 = -2.7557314351390663e-7;
    const C5: f64 = 2.087572321298175e-9;
    const C6: f64 = -1.1359647557788195e-11;
    const S1: f64 = -0.16666666666666632;
    const S2: f64 = 0.00833333333332249;
    const S3: f64 = -0.0001984126982985795;
    const S4: f64 = 2.7557313707070068e-6;
    const S5: f64 = -2.5050760253406863e-8;
    const S6: f64 = 1.58969099521155e-10;
    // 1.5·2⁵² rounds 4u to the integer n, which lands in the low bits.
    const ROUND: f64 = 1.5 * TWO_52;
    let m = u * 4.0 + ROUND;
    let q = m.to_bits();
    let r = u - (m - ROUND) * 0.25;
    let x = r * std::f64::consts::TAU;
    let z = x * x;
    let w = z * z;
    let cr = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + z * cr);
    let sr = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * sr);
    // cos(x + nπ/2) is cos x, −sin x, −cos x, sin x for n mod 4 = 0..3.
    let odd = (q & 1).wrapping_neg();
    let sign = (q.wrapping_add(1) & 2) << 62;
    f64::from_bits(((sin.to_bits() & odd) | (cos.to_bits() & !odd)) ^ sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CompositeLoad, ConstantLoad, PiecewiseLoad};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn quiet_spec() -> MeterSpec {
        MeterSpec { noise_sd_w: 0.0, ..MeterSpec::default() }
    }

    #[test]
    fn noiseless_meter_reads_truth() {
        let mut m = SimulatedWattsUp::new(quiet_spec(), Watts(90.0), 1);
        let app = ConstantLoad::new(Watts(110.0), Seconds(10.0));
        let trace = m.record(&app);
        // 1 Hz over 10 s → samples at 0..=10.
        assert_eq!(trace.len(), 11);
        for s in trace.samples() {
            assert!((s.power.value() - 200.0).abs() < 1e-9, "{:?}", s);
        }
        assert!((trace.energy().value() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn idle_recording_reads_floor() {
        let mut m = SimulatedWattsUp::new(quiet_spec(), Watts(90.0), 1);
        let trace = m.record_idle(Seconds(5.0));
        assert!((trace.mean_power().unwrap().value() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_rounds_to_resolution() {
        let spec = MeterSpec { noise_sd_w: 0.0, resolution_w: 0.5, ..MeterSpec::default() };
        let mut m = SimulatedWattsUp::new(spec, Watts(0.0), 1);
        let app = ConstantLoad::new(Watts(100.26), Seconds(2.0));
        let trace = m.record(&app);
        for s in trace.samples() {
            let rem = (s.power.value() / 0.5).fract();
            assert!(rem.abs() < 1e-9 || (rem - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(30.0));
        let t1 = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 7).record(&app);
        let t2 = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 7).record(&app);
        let t3 = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 8).record(&app);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn reseed_equals_fresh_construction() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(30.0));
        let mut used = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 7);
        used.record(&app); // advance the noise stream
        used.reseed(21);
        let fresh = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 21).record(&app);
        assert_eq!(used.record(&app), fresh);
    }

    #[test]
    fn noisy_mean_converges_to_truth() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(3000.0));
        let mut m = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 42);
        let mean = m.record(&app).mean_power().unwrap().value();
        assert!((mean - 190.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn gain_error_scales_readings() {
        let spec = MeterSpec { noise_sd_w: 0.0, gain: 1.05, resolution_w: 0.0, ..quiet_spec() };
        let mut m = SimulatedWattsUp::new(spec, Watts(100.0), 1);
        let app = ConstantLoad::new(Watts(100.0), Seconds(2.0));
        let trace = m.record(&app);
        assert!((trace.samples()[0].power.value() - 210.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive and finite")]
    fn infinite_sample_rate_is_rejected() {
        let spec = MeterSpec { sample_hz: f64::INFINITY, ..MeterSpec::default() };
        SimulatedWattsUp::new(spec, Watts(90.0), 1);
    }

    // A NaN gain or noise level, or an infinite resolution, makes every
    // reading NaN, which the clamp at 0 W would turn into a silent 0 J.
    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_gain_is_rejected() {
        let spec = MeterSpec { gain: f64::NAN, ..MeterSpec::default() };
        SimulatedWattsUp::new(spec, Watts(90.0), 1);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_noise_is_rejected() {
        let spec = MeterSpec { noise_sd_w: f64::NAN, ..MeterSpec::default() };
        SimulatedWattsUp::new(spec, Watts(90.0), 1);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_resolution_is_rejected() {
        let spec = MeterSpec { resolution_w: f64::INFINITY, ..MeterSpec::default() };
        SimulatedWattsUp::new(spec, Watts(90.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive, finite time")]
    fn infinite_duration_is_rejected_before_sampling() {
        // Two finite segments whose lengths sum to infinity.
        let app = PiecewiseLoad::from_segments(vec![
            (Seconds(f64::MAX), Watts(50.0)),
            (Seconds(f64::MAX), Watts(50.0)),
        ]);
        SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1).record(&app);
    }

    /// The per-sample libm loop: one Box–Muller draw and one `round` per
    /// sample, in the meter's draw order. The oracle the chunked path must
    /// equal bit for bit.
    fn reference_record(
        spec: MeterSpec,
        idle: Watts,
        rng: &mut StdRng,
        app: &dyn PowerSource,
    ) -> PowerTrace {
        let mut read_at = |t: Seconds| {
            let truth = (idle + app.power_at(t)).value();
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen();
            let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let noisy = truth * spec.gain + gaussian * spec.noise_sd_w;
            let q = if spec.resolution_w > 0.0 {
                (noisy / spec.resolution_w).round() * spec.resolution_w
            } else {
                noisy
            };
            Watts(q.max(0.0))
        };
        let period = 1.0 / spec.sample_hz;
        let d = app.duration().value();
        let mut trace = PowerTrace::new();
        let mut t = 0.0;
        while t < d {
            let p = read_at(Seconds(t));
            trace.push(Seconds(t), p);
            t += period;
        }
        let p = read_at(Seconds(d));
        trace.push(Seconds(d), p);
        trace
    }

    /// Every timestamp and reading of a trace, as bits.
    fn bits(trace: &PowerTrace) -> Vec<(u64, u64)> {
        trace
            .samples()
            .iter()
            .map(|s| (s.at.value().to_bits(), s.power.value().to_bits()))
            .collect()
    }

    fn idle(window: f64) -> ConstantLoad {
        ConstantLoad::new(Watts(0.0), Seconds(window))
    }

    /// Records `apps` back to back on `meter` and through the reference
    /// loop on `rng`, and requires the same bits for every timestamp and
    /// reading, and the same RNG state after every reading. Returns the
    /// samples compared.
    fn assert_matches_reference(
        meter: &mut SimulatedWattsUp,
        rng: &mut StdRng,
        apps: &[&dyn PowerSource],
        what: &str,
    ) -> usize {
        let mut samples = 0;
        for &app in apps {
            let got = meter.record(app);
            let want = reference_record(meter.spec, meter.idle_power, rng, app);
            assert_eq!(bits(&got), bits(&want), "{what}, {} samples", want.len());
            // The vendored `StdRng` is SplitMix64 seeded with its state, so
            // this compares the states the two leave.
            let after = StdRng::seed_from_u64(meter.state).next_u64();
            assert_eq!(after, rng.clone().next_u64(), "RNG state after {what}");
            samples += got.len();
        }
        samples
    }

    #[test]
    fn chunked_meter_matches_the_libm_reference_bit_for_bit() {
        let specs = [
            MeterSpec::default(),
            MeterSpec { gain: 1.05, ..MeterSpec::default() },
            MeterSpec { gain: 0.97, noise_sd_w: 2.0, ..MeterSpec::default() },
            MeterSpec { noise_sd_w: 0.0, ..MeterSpec::default() },
            MeterSpec { noise_sd_w: -0.5, ..MeterSpec::default() },
            MeterSpec { resolution_w: 0.0, ..MeterSpec::default() },
            MeterSpec { resolution_w: 0.5, ..MeterSpec::default() },
            MeterSpec { sample_hz: 3.0, noise_sd_w: 3.0, ..MeterSpec::default() },
        ];
        let warm_up = PiecewiseLoad::from_segments(vec![
            (Seconds(3.0), Watts(210.0)),
            (Seconds(40.5), Watts(140.0)),
        ]);
        let short_warm_up = PiecewiseLoad::from_segments(vec![
            (Seconds(0.25), Watts(250.0)),
            (Seconds(1.5), Watts(130.0)),
        ]);
        // Readings of 2 and 3 samples (the shortest runs a sweep meters), a
        // 121-sample baseline, chunk-boundary lengths, ≥ 6k-sample runs,
        // warm-ups, and zero draws — all recorded back to back.
        let zero = idle(0.4);
        let two = ConstantLoad::new(Watts(150.0), Seconds(0.7));
        let three = ConstantLoad::new(Watts(37.5), Seconds(1.7));
        let baseline = idle(120.0);
        let chunk = ConstantLoad::new(Watts(61.0), Seconds(63.0));
        let chunk_plus = ConstantLoad::new(Watts(82.0), Seconds(64.0));
        let long = ConstantLoad::new(Watts(95.0), Seconds(6000.5));
        let apps: [&dyn PowerSource; 9] =
            [&zero, &two, &three, &baseline, &warm_up, &chunk, &chunk_plus, &short_warm_up, &long];
        let mut samples = 0;
        for spec in specs {
            for idle_w in [0.0, 47.25, 90.0] {
                for seed in 0..3 {
                    let mut meter = SimulatedWattsUp::new(spec, Watts(idle_w), seed);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let what = format!("spec {spec:?}, idle {idle_w} W, seed {seed}");
                    samples += assert_matches_reference(&mut meter, &mut rng, &apps, &what);
                }
            }
        }
        assert!(samples > 400_000, "{samples} samples compared");
        // Many seeds on the default meter at the lengths a sweep records.
        for seed in 0..300 {
            let mut meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(110.0), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let apps = [&baseline as &dyn PowerSource, &two, &three, &warm_up];
            assert_matches_reference(&mut meter, &mut rng, &apps, &format!("seed {seed}"));
        }
        // Every length from 2 to 130 samples (a reading always holds its
        // start and its end), so every chunk bound and last-chunk length
        // occurs: durations on the sample grid and halfway between.
        let lengths: Vec<ConstantLoad> = (1..=129)
            .flat_map(|k| [k as f64 - 0.5, k as f64])
            .map(|d| ConstantLoad::new(Watts(120.0), Seconds(d)))
            .collect();
        let apps: Vec<&dyn PowerSource> = lengths.iter().map(|l| l as &dyn PowerSource).collect();
        let mut meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 5);
        let mut rng = StdRng::seed_from_u64(5);
        assert_matches_reference(&mut meter, &mut rng, &apps, "every length");
        // The fill at segment ends: at 10 Hz the accumulated timestamps and
        // the segment ends both round, so samples land exactly on each end
        // (0.1, 0.30000000000000004 and 1.0 s) and one an ulp short of the
        // last. The composite adds a 0.3 s load, which the sample at
        // 0.30000000000000004 s falls just past.
        let fine = PiecewiseLoad::from_segments(vec![
            (Seconds(0.1), Watts(180.0)),
            (Seconds(0.2), Watts(60.0)),
            (Seconds(0.7), Watts(125.0)),
        ]);
        let composite =
            CompositeLoad::new(fine.clone(), ConstantLoad::new(Watts(58.0), Seconds(0.3)));
        // Warm-ups that end exactly on sample 63 (a first chunk's last),
        // 64 or 65, at 1 Hz and at 10 Hz: each ends at that sample's
        // accumulated timestamp.
        let warm_ups = |period: f64| -> Vec<PiecewiseLoad> {
            [63, 64, 65]
                .into_iter()
                .map(|sample| {
                    let end = (0..sample).fold(0.0, |t, _| t + period);
                    PiecewiseLoad::from_segments(vec![
                        (Seconds(end), Watts(230.0)),
                        (Seconds(100.0 * period), Watts(140.0)),
                    ])
                })
                .collect()
        };
        for (hz, warm_ups) in [(1.0, warm_ups(1.0)), (10.0, warm_ups(0.1))] {
            for spec in [
                MeterSpec { sample_hz: hz, ..MeterSpec::default() },
                MeterSpec { sample_hz: hz, noise_sd_w: 0.0, ..MeterSpec::default() },
                MeterSpec { sample_hz: hz, gain: 0.97, resolution_w: 0.5, ..MeterSpec::default() },
            ] {
                for seed in 0..50 {
                    let mut meter = SimulatedWattsUp::new(spec, Watts(90.0), seed);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut apps: Vec<&dyn PowerSource> = vec![&fine, &composite, &fine];
                    apps.extend(warm_ups.iter().map(|w| w as &dyn PowerSource));
                    let what = format!("{spec:?}, seed {seed}");
                    assert_matches_reference(&mut meter, &mut rng, &apps, &what);
                }
            }
        }
        // The length a BS = 1 configuration's reading takes: over 200k
        // samples after a warm-up, between two short readings.
        let bs1 = PiecewiseLoad::from_segments(vec![
            (Seconds(37.5), Watts(260.0)),
            (Seconds(200_000.25), Watts(175.0)),
        ]);
        let mut meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(110.0), 9);
        let mut rng = StdRng::seed_from_u64(9);
        let samples =
            assert_matches_reference(&mut meter, &mut rng, &[&three, &bs1, &two], "BS = 1 length");
        assert!(samples > 200_000, "{samples} samples compared");
    }

    #[test]
    fn half_step_truth_falls_back_to_libm_and_rounds_half_away_from_zero() {
        // 90 W + 10.25 W is exactly 200.5 steps of 0.5 W: `f64::round`
        // gives 201 steps (100.5 W), round-half-to-even would give 200.
        let spec = MeterSpec { noise_sd_w: 0.0, resolution_w: 0.5, ..MeterSpec::default() };
        assert!(fast_value(spec, 100.25, 0.3).is_nan(), "the half step must be in doubt");
        let mut m = SimulatedWattsUp::new(spec, Watts(90.0), 3);
        let trace = m.record(&ConstantLoad::new(Watts(10.25), Seconds(4.0)));
        assert_eq!(trace.len(), 5);
        for s in trace.samples() {
            assert_eq!(s.power.value().to_bits(), 100.5f64.to_bits(), "{s:?}");
        }
        // An ordinary sample is decided without libm: 1900.617 steps → 1901.
        assert_eq!(fast_value(MeterSpec::default(), 190.0, 0.1234), 1901.0 * 0.1);
    }

    #[test]
    fn filter_refuses_steps_within_the_error_bound_of_a_half_step_or_zero() {
        // With noise, libm's g may lie anywhere within ε of ĝ, so a step
        // count within |sd|·ε/res (here 1e-9) of a half step or of zero
        // is in doubt; 1 µW away it is not.
        let spec = MeterSpec { resolution_w: 0.5, ..MeterSpec::default() };
        assert!(fast_value(spec, 100.25 + 1e-12, 0.0).is_nan());
        assert!(fast_value(spec, 100.25 - 1e-12, 0.0).is_nan());
        assert_eq!(fast_value(spec, 100.25 + 1e-6, 0.0), 100.5);
        assert_eq!(fast_value(spec, 100.25 - 1e-6, 0.0), 100.0);
        assert!(fast_value(spec, 0.0, 1e-12).is_nan());
        assert!(fast_value(spec, 0.0, -1e-12).is_nan());
        assert_eq!(fast_value(spec, 0.0, -1e-3).to_bits(), (-0.0f64).to_bits());
    }

    /// The tiers this host runs, from the baseline up to `Tier::detect()`,
    /// after a note for each wider tier it lacks.
    fn host_tiers() -> Vec<Tier> {
        let tiers = [Tier::Baseline, Tier::Avx2, Tier::Avx512];
        for tier in tiers.into_iter().filter(|&t| t > Tier::detect()) {
            eprintln!("note: host lacks the {tier:?} tier; it is not exercised here");
        }
        tiers.into_iter().filter(|&t| t <= Tier::detect()).collect()
    }

    /// The estimates `ĝ` that `tier`'s chunk body hands to the filter: the
    /// [`radii`] and [`angles`] passes and their product, inlined into the
    /// same kind of `#[target_feature]` instantiation as [`values_body`].
    fn gaussians(tier: Tier, u1: &[f64], u2: &[f64]) -> Vec<f64> {
        #[inline(always)]
        fn body(radius: &mut [f64], angle: &mut [f64]) {
            radii(radius);
            angles(angle);
            for (g, &a) in radius.iter_mut().zip(&*angle) {
                *g *= a;
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn avx512(radius: &mut [f64], angle: &mut [f64]) {
            body(radius, angle);
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(radius: &mut [f64], angle: &mut [f64]) {
            body(radius, angle);
        }
        assert!(tier <= Tier::detect(), "host lacks the {tier:?} tier");
        let (mut g, mut angle) = (u1.to_vec(), u2.to_vec());
        match tier {
            // SAFETY: the assert above checked that the host has AVX-512F
            // and DQ.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { avx512(&mut g, &mut angle) },
            // SAFETY: the assert above checked that the host has AVX2.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { avx2(&mut g, &mut angle) },
            _ => body(&mut g, &mut angle),
        }
        g
    }

    #[test]
    fn every_host_tier_agrees_bit_for_bit() {
        let available = host_tiers();
        let specs = [
            MeterSpec::default(),
            MeterSpec { resolution_w: 0.0, ..MeterSpec::default() },
            MeterSpec { resolution_w: 0.5, noise_sd_w: -2.0, gain: 1.05, ..MeterSpec::default() },
        ];
        // At every chunk length: the estimates ĝ, and the chunk body's
        // values, NaN refusals included, which round ĝ to the resolution.
        let to_bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(17);
        for n in 0..=CHUNK {
            let u1: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-12..1.0)).collect();
            let u2: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let want = to_bits(&gaussians(Tier::Baseline, &u1, &u2));
            for &tier in &available {
                assert_eq!(to_bits(&gaussians(tier, &u1, &u2)), want, "{tier:?}, chunk of {n}");
            }
        }
        for spec in specs {
            for n in 0..=CHUNK {
                let state = rng.next_u64();
                let base: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..300.0)).collect();
                let values = |tier: Tier| {
                    let (mut value, mut angle) = (vec![0.0; n], vec![0.0; n]);
                    tier.values(spec, state, &base, &mut value, &mut angle);
                    to_bits(&value)
                };
                let want = values(Tier::Baseline);
                for &tier in &available {
                    assert_eq!(values(tier), want, "{tier:?}, {spec:?}, chunk of {n}");
                }
            }
        }
        // Whole readings, back to back.
        let warm_up = PiecewiseLoad::from_segments(vec![
            (Seconds(2.0), Watts(200.0)),
            (Seconds(300.0), Watts(120.0)),
        ]);
        let apps = [&idle(120.0) as &dyn PowerSource, &warm_up, &idle(1.5)];
        for seed in 0..20 {
            for spec in specs {
                let readings = |tier: Tier| {
                    let mut m = SimulatedWattsUp::new(spec, Watts(90.0), seed);
                    m.tier = tier;
                    let out: Vec<_> = apps.iter().map(|&app| bits(&m.record(app))).collect();
                    (out, m.state)
                };
                let want = readings(Tier::Baseline);
                for &tier in &available {
                    assert_eq!(readings(tier), want, "{tier:?}, {spec:?}, seed {seed}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one chunk of 65 samples")]
    fn chunk_body_refuses_more_than_one_chunk() {
        let n = CHUNK + 1;
        let (mut value, mut angle) = (vec![0.0; n], vec![0.0; n]);
        Tier::Baseline.values(MeterSpec::default(), 0, &vec![100.0; n], &mut value, &mut angle);
    }

    #[test]
    fn polynomial_gaussian_is_within_the_filter_bound_of_libm() {
        let libm =
            |u1: f64, u2: f64| (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let mut pairs = 0usize;
        // The widest tier's build; the tier test ties the others to it.
        let mut check = |u1: &[f64], u2: &[f64]| {
            let g = gaussians(Tier::detect(), u1, u2);
            for ((&g_hat, &u1), &u2) in g.iter().zip(u1).zip(u2) {
                let err = (g_hat - libm(u1, u2)).abs();
                assert!(
                    err <= error_bound(g_hat) / 1e4,
                    "u1 {u1:e}, u2 {u2:e}: ĝ {g_hat:e} off libm by {err:e}"
                );
            }
            pairs += u1.len();
        };
        // Draws as the meter makes them.
        let mut rng = StdRng::seed_from_u64(2022);
        let (mut u1, mut u2) = ([0.0; CHUNK], [0.0; CHUNK]);
        for _ in 0..10_000_000 / CHUNK + 1 {
            for i in 0..CHUNK {
                u1[i] = rng.gen_range(1e-12..1.0);
                u2[i] = rng.gen();
            }
            check(&u1, &u2);
        }
        // Every binade of u1 down to 1e-12 (both ends and the middle),
        // 1e-12 itself, and the values just below 1 where ln(u1) is tiny.
        let mut edge_u1 = vec![1e-12, 1.0];
        for e in -40..0 {
            let b = 2f64.powi(e);
            edge_u1.extend([b, b.next_up(), 1.5 * b, (2.0 * b).next_down()]);
        }
        edge_u1.retain(|&u| u >= 1e-12);
        let mut below_one = 1.0f64;
        for _ in 0..16 {
            below_one = below_one.next_down();
            edge_u1.push(below_one);
        }
        // u2 within a few ulps of 0, ¼, ½, ¾ and 1, plus the smallest
        // non-zero draws the meter can make (multiples of 2⁻⁵³).
        let mut edge_u2 = vec![0.0];
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let (mut up, mut down) = (q, q);
            for _ in 0..4 {
                up = up.next_up();
                down = down.next_down();
                edge_u2.extend([up, down]);
            }
            edge_u2.push(q);
        }
        edge_u2.extend((1..=4).map(|k| k as f64 * f64::EPSILON / 2.0));
        edge_u2.retain(|&u| (0.0..1.0).contains(&u));
        for &a in &edge_u1 {
            let row: Vec<f64> = edge_u2.iter().chain(&u2).copied().collect();
            check(&vec![a; row.len()], &row);
        }
        for &b in &edge_u2 {
            let col: Vec<f64> = edge_u1.iter().chain(&u1).copied().collect();
            check(&col, &vec![b; col.len()]);
        }
        assert!(pairs >= 10_000_000, "{pairs} pairs");
    }
}
