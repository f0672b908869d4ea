//! The paper's experimental measurement protocol.
//!
//! > "For each data point reported in this work, the application is run
//! > repeatedly until the sample mean lies in the 95% confidence interval,
//! > and a precision of 0.025 (2.5%) is achieved. For this purpose,
//! > Student's t-test is used assuming that the individual observations are
//! > independent and their population follows the normal distribution. The
//! > validity of these assumptions is verified using Pearson's chi-squared
//! > test."
//!
//! [`measure_until_ci`] implements the stopping rule; [`PearsonChiSquared`]
//! implements the normality verification.

use crate::describe::Summary;
use crate::dist::{ChiSquared, Normal, StudentT};
use crate::running::Running;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Two-sided Student-t critical values memoized by `(df, confidence bits)`.
///
/// The stopping rule needs `t*(df, confidence)` after every repetition, each
/// a ~51-step bisection, but a sweep asks for only a few dozen distinct
/// values. A miss is computed outside the lock by
/// [`StudentT::two_sided_critical`] itself, so a memoized value has exactly
/// the bits of a fresh one, and two threads missing on one key store the
/// same bits.
struct CriticalValues(Mutex<BTreeMap<(usize, u64), f64>>);

impl CriticalValues {
    const fn new() -> Self {
        Self(Mutex::new(BTreeMap::new()))
    }

    fn get(&self, df: usize, confidence: f64) -> f64 {
        let key = (df, confidence.to_bits());
        if let Some(&t) = self.table().get(&key) {
            return t;
        }
        let t = StudentT::new(df as f64).two_sided_critical(confidence);
        self.table().insert(key, t);
        t
    }

    /// Every entry is final when inserted, so a poisoned lock is recovered.
    fn table(&self) -> MutexGuard<'_, BTreeMap<(usize, u64), f64>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Process-wide, not thread-local: the sweep daemon serves each request on
/// a fresh thread, which would refill its own table on every cache miss. A
/// loop stops by `max_reps`, so it adds at most `max_reps − 1` entries for
/// its confidence level.
static CRITICAL_VALUES: CriticalValues = CriticalValues::new();

/// Parameters of the CI stopping rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Confidence level of the interval (paper: 0.95).
    pub confidence: f64,
    /// Required relative half-width of the CI (paper: 0.025 = 2.5%).
    pub precision: f64,
    /// Minimum number of repetitions before testing the rule.
    pub min_reps: usize,
    /// Hard cap on repetitions (a measurement that cannot converge is
    /// reported as non-converged rather than looping forever).
    pub max_reps: usize,
}

impl Default for MeasureConfig {
    /// The paper's settings: 95% confidence, 2.5% precision, at least 3 and
    /// at most 1000 repetitions.
    fn default() -> Self {
        Self { confidence: 0.95, precision: 0.025, min_reps: 3, max_reps: 1000 }
    }
}

/// The outcome of a repeated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Sample mean of the observations.
    pub mean: f64,
    /// Half-width of the final confidence interval.
    pub ci_half_width: f64,
    /// Number of repetitions performed.
    pub reps: usize,
    /// Whether the precision target was met within `max_reps`.
    pub converged: bool,
    /// The raw observations, for post-hoc checks (normality etc.).
    pub samples: Vec<f64>,
}

impl Measurement {
    /// Relative half-width `ci_half_width / |mean|` (∞ for a zero mean).
    pub fn rel_precision(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.ci_half_width / self.mean.abs()
        }
    }

    /// Runs the Pearson χ² normality check on the collected samples.
    /// Returns `None` when there are too few samples to bin meaningfully.
    pub fn normality_check(&self, bins: usize) -> Option<PearsonChiSquared> {
        PearsonChiSquared::test_normality(&self.samples, bins)
    }
}

/// Repeatedly invokes `observe` until the Student-t confidence interval of
/// the sample mean is narrower than `cfg.precision × mean`, or `max_reps`
/// is hit.
///
/// `observe` is called once per repetition and returns one observation
/// (e.g. one timed, energy-metered application run).
///
/// # Example
/// ```
/// use enprop_stats::protocol::{measure_until_ci, MeasureConfig};
/// let mut k = 0.0_f64;
/// let m = measure_until_ci(MeasureConfig::default(), || {
///     k += 1.0;
///     100.0 + (k * 0.37).sin() // small deterministic jitter
/// });
/// assert!(m.converged);
/// assert!(m.rel_precision() <= 0.025);
/// ```
pub fn measure_until_ci<F: FnMut() -> f64>(cfg: MeasureConfig, mut observe: F) -> Measurement {
    match try_measure_until_ci(cfg, move || Ok::<f64, std::convert::Infallible>(observe())) {
        Ok(m) => m,
        Err(infallible) => match infallible {},
    }
}

/// Fallible [`measure_until_ci`]: `observe` may fail (a lost meter reading,
/// a dropped trace), and the *first* failed repetition aborts the whole
/// measurement — partial observation sets would bias the mean toward
/// whichever repetitions happened to survive, so the protocol treats an
/// attempt as all-or-nothing and leaves retrying to the caller.
pub fn try_measure_until_ci<E, F>(cfg: MeasureConfig, mut observe: F) -> Result<Measurement, E>
where
    F: FnMut() -> Result<f64, E>,
{
    assert!(cfg.min_reps >= 2, "need at least two observations for a CI");
    assert!(cfg.max_reps >= cfg.min_reps, "max_reps must be >= min_reps");
    let mut samples = Vec::with_capacity(cfg.min_reps);
    let mut running = Running::new();
    loop {
        let x = observe()?;
        samples.push(x);
        running.push(x);
        if samples.len() < cfg.min_reps {
            continue;
        }
        let t_crit = CRITICAL_VALUES.get(running.count() - 1, cfg.confidence);
        let half = t_crit * running.sem();
        let mean = running.mean();
        let ok = mean != 0.0 && half <= cfg.precision * mean.abs();
        if ok || samples.len() >= cfg.max_reps {
            return Ok(Measurement {
                mean,
                ci_half_width: half,
                reps: samples.len(),
                converged: ok,
                samples,
            });
        }
    }
}

/// Pearson's χ² goodness-of-fit test against a normal distribution whose
/// parameters are estimated from the sample.
///
/// The sample is partitioned into `bins` equal-probability cells of the
/// fitted normal; the statistic is `Σ (Oᵢ − Eᵢ)² / Eᵢ` with
/// `df = bins − 3` (two parameters estimated, one constraint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PearsonChiSquared {
    /// The χ² statistic.
    pub statistic: f64,
    /// Degrees of freedom.
    pub df: usize,
    /// Upper-tail p-value.
    pub p_value: f64,
}

impl PearsonChiSquared {
    /// Runs the test. Returns `None` if `bins < 4`, the sample is smaller
    /// than `5 × bins` (expected counts would be too small for the χ²
    /// approximation), or the sample is constant.
    pub fn test_normality(samples: &[f64], bins: usize) -> Option<Self> {
        if bins < 4 || samples.len() < 5 * bins {
            return None;
        }
        let s = Summary::of(samples);
        if s.sd() == 0.0 {
            return None;
        }
        let fitted = Normal::new(s.mean, s.sd());
        // Equal-probability bin edges.
        let mut edges = Vec::with_capacity(bins - 1);
        for i in 1..bins {
            edges.push(fitted.inv_cdf(i as f64 / bins as f64));
        }
        let mut observed = vec![0usize; bins];
        for &x in samples {
            let idx = edges.partition_point(|&e| e < x);
            observed[idx] += 1;
        }
        let expected = samples.len() as f64 / bins as f64;
        let statistic: f64 = observed
            .iter()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();
        let df = bins - 3;
        let p_value = ChiSquared::new(df as f64).sf(statistic);
        Some(Self { statistic, df, p_value })
    }

    /// True when normality is *not* rejected at significance `alpha`.
    pub fn is_consistent_with_normal(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (xorshift) for reproducible tests.
    struct XorShift(u64);
    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x >> 11) as f64 / (1u64 << 53) as f64
        }
        /// Box–Muller standard normal.
        fn next_normal(&mut self) -> f64 {
            let u1 = self.next_f64().max(1e-12);
            let u2 = self.next_f64();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }

    #[test]
    fn protocol_converges_on_low_noise() {
        let mut rng = XorShift(42);
        let m = measure_until_ci(MeasureConfig::default(), || 100.0 + rng.next_normal() * 0.5);
        assert!(m.converged);
        assert!(m.rel_precision() <= 0.025);
        assert!((m.mean - 100.0).abs() < 1.0);
        assert!(m.reps >= 3);
    }

    #[test]
    fn protocol_needs_more_reps_for_noisier_data() {
        let mut rng1 = XorShift(7);
        let quiet = measure_until_ci(MeasureConfig::default(), || 100.0 + rng1.next_normal() * 0.2);
        let mut rng2 = XorShift(7);
        let noisy = measure_until_ci(MeasureConfig::default(), || 100.0 + rng2.next_normal() * 8.0);
        assert!(noisy.reps > quiet.reps, "{} !> {}", noisy.reps, quiet.reps);
    }

    #[test]
    fn protocol_reports_non_convergence() {
        let mut rng = XorShift(3);
        let cfg = MeasureConfig { max_reps: 5, ..MeasureConfig::default() };
        // Mean ~0 with large noise: the relative-precision rule cannot hold.
        let m = measure_until_ci(cfg, || rng.next_normal() * 100.0);
        assert!(!m.converged);
        assert_eq!(m.reps, 5);
    }

    #[test]
    fn protocol_handles_constant_observable() {
        let m = measure_until_ci(MeasureConfig::default(), || 42.0);
        assert!(m.converged);
        assert_eq!(m.mean, 42.0);
        assert_eq!(m.ci_half_width, 0.0);
        assert_eq!(m.reps, 3);
    }

    #[test]
    fn fallible_protocol_matches_infallible_on_success() {
        let mut rng1 = XorShift(42);
        let a = measure_until_ci(MeasureConfig::default(), || 100.0 + rng1.next_normal() * 0.5);
        let mut rng2 = XorShift(42);
        let b: Result<Measurement, std::convert::Infallible> =
            try_measure_until_ci(MeasureConfig::default(), || {
                Ok(100.0 + rng2.next_normal() * 0.5)
            });
        assert_eq!(a, b.unwrap());
    }

    #[test]
    fn first_failed_rep_aborts_the_attempt() {
        let mut calls = 0;
        let r: Result<Measurement, &str> = try_measure_until_ci(MeasureConfig::default(), || {
            calls += 1;
            if calls == 2 { Err("reading lost") } else { Ok(100.0) }
        });
        assert_eq!(r, Err("reading lost"));
        // One good rep, then the failure: no further observations drawn.
        assert_eq!(calls, 2);
    }

    #[test]
    fn critical_value_memo_returns_the_exact_bits_cold_and_warm() {
        let keys: Vec<(usize, f64)> = [0.9, 0.95, 0.99]
            .into_iter()
            .flat_map(|confidence| (1..=999).map(move |df| (df, confidence)))
            .collect();
        let fresh: Vec<u64> = keys
            .iter()
            .map(|&(df, confidence)| {
                StudentT::new(df as f64).two_sided_critical(confidence).to_bits()
            })
            .collect();
        let memo = CriticalValues::new();
        // Four threads fill the cold table at once, each starting a quarter
        // of the way further along, then all four read it warm.
        for pass in ["cold", "warm"] {
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for worker in 0..4 {
                    let (keys, fresh, memo, start) = (&keys, &fresh, &memo, &start);
                    scope.spawn(move || {
                        start.wait();
                        for k in 0..keys.len() {
                            let j = (k + worker * keys.len() / 4) % keys.len();
                            let (df, confidence) = keys[j];
                            assert_eq!(
                                memo.get(df, confidence).to_bits(),
                                fresh[j],
                                "{pass}: df {df}, confidence {confidence}"
                            );
                        }
                    });
                }
            });
        }
        assert_eq!(memo.table().len(), keys.len());
    }

    #[test]
    fn protocol_memo_is_shared_across_threads() {
        // A confidence level no other test uses, so this test owns its keys.
        let cfg = MeasureConfig { confidence: 0.9375, ..MeasureConfig::default() };
        let m = std::thread::spawn(move || measure_until_ci(cfg, || 42.0)).join().unwrap();
        assert_eq!(m.reps, 3);
        assert!(CRITICAL_VALUES.table().contains_key(&(2, cfg.confidence.to_bits())));
    }

    #[test]
    fn chi_squared_accepts_normal_data() {
        let mut rng = XorShift(123);
        let samples: Vec<f64> = (0..500).map(|_| 10.0 + rng.next_normal()).collect();
        let t = PearsonChiSquared::test_normality(&samples, 10).unwrap();
        assert!(t.is_consistent_with_normal(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn chi_squared_rejects_bimodal_data() {
        let mut rng = XorShift(99);
        let samples: Vec<f64> = (0..500)
            .map(|i| if i % 2 == 0 { -5.0 } else { 5.0 } + rng.next_normal() * 0.3)
            .collect();
        let t = PearsonChiSquared::test_normality(&samples, 10).unwrap();
        assert!(!t.is_consistent_with_normal(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn chi_squared_refuses_tiny_samples() {
        assert!(PearsonChiSquared::test_normality(&[1.0, 2.0, 3.0], 10).is_none());
        let constant = vec![5.0; 100];
        assert!(PearsonChiSquared::test_normality(&constant, 10).is_none());
    }
}
