//! Probability distributions used by the measurement protocol:
//! Normal, Student-t and χ².

use crate::special::{erf, reg_beta, reg_gamma_p};

/// A normal (Gaussian) distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Location parameter μ.
    pub mean: f64,
    /// Scale parameter σ (> 0).
    pub sd: f64,
}

impl Normal {
    /// The standard normal `N(0, 1)`.
    pub const STANDARD: Normal = Normal { mean: 0.0, sd: 1.0 };

    /// Creates a normal distribution. Panics if `sd <= 0`.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0, "Normal requires sd > 0, got {sd}");
        Self { mean, sd }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Quantile (inverse CDF) for `p ∈ (0, 1)`.
    ///
    /// Acklam's rational approximation refined with one Halley step;
    /// absolute error < 1e-12 across the open unit interval.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "inv_cdf requires p in (0,1), got {p}");
        self.mean + self.sd * standard_normal_quantile(p)
    }
}

/// Acklam's inverse-normal approximation with a Halley refinement step.
fn standard_normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley's method against the exact CDF.
    let e = Normal::STANDARD.cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Student's t distribution with `df` degrees of freedom.
///
/// Drives the paper's stopping rule: the sample mean must lie in a 95%
/// confidence interval whose half-width is 2.5% of the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    /// Degrees of freedom ν (> 0).
    pub df: f64,
}

impl StudentT {
    /// Creates a t distribution. Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "StudentT requires df > 0, got {df}");
        Self { df }
    }

    /// Probability density at `t`.
    pub fn pdf(&self, t: f64) -> f64 {
        let v = self.df;
        let ln_c = crate::special::ln_gamma((v + 1.0) / 2.0)
            - crate::special::ln_gamma(v / 2.0)
            - 0.5 * (v * std::f64::consts::PI).ln();
        (ln_c - (v + 1.0) / 2.0 * (1.0 + t * t / v).ln()).exp()
    }

    /// Cumulative distribution function at `t`.
    pub fn cdf(&self, t: f64) -> f64 {
        let v = self.df;
        let x = v / (v + t * t);
        let tail = 0.5 * reg_beta(v / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Quantile (inverse CDF) for `p ∈ (0, 1)`, by bisection on the CDF.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "inv_cdf requires p in (0,1), got {p}");
        if (p - 0.5).abs() < 1e-15 {
            return 0.0;
        }
        // Bracket the root so that cdf(lo) < p <= cdf(hi). ±1000 holds
        // every quantile the protocol uses at 95%, but heavy tails at small
        // df put extreme ones far outside it (df = 1 at p = 0.99995 is
        // 6366.2), so double the bracket outward until it holds the root.
        let (mut lo, mut hi) = (-1.0e3, 1.0e3);
        while self.cdf(hi) < p {
            (lo, hi) = (hi, 2.0 * hi);
        }
        while self.cdf(lo) >= p {
            (lo, hi) = (2.0 * lo, lo);
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Two-sided critical value `t*` such that `P(|T| <= t*) = confidence`.
    ///
    /// E.g. `StudentT::new(9.0).two_sided_critical(0.95)` ≈ 2.262.
    pub fn two_sided_critical(&self, confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        self.inv_cdf(0.5 + confidence / 2.0)
    }
}

/// χ² distribution with `k` degrees of freedom.
///
/// Used for Pearson's χ² goodness-of-fit normality check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    /// Degrees of freedom k (> 0).
    pub df: f64,
}

impl ChiSquared {
    /// Creates a χ² distribution. Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "ChiSquared requires df > 0, got {df}");
        Self { df }
    }

    /// Cumulative distribution function at `x ≥ 0`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        reg_gamma_p(self.df / 2.0, x / 2.0)
    }

    /// Upper-tail probability `P(X > x)` — the p-value of a χ² statistic.
    pub fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Quantile (inverse CDF) for `p ∈ (0, 1)`, by bisection.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "inv_cdf requires p in (0,1), got {p}");
        let (mut lo, mut hi) = (0.0, self.df * 100.0 + 100.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-10 {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn normal_cdf_table() {
        let n = Normal::STANDARD;
        close(n.cdf(0.0), 0.5, 1e-12);
        close(n.cdf(1.0), 0.8413447460685429, 1e-10);
        close(n.cdf(-1.96), 0.024997895148220435, 1e-9);
        close(n.cdf(2.575), 0.9949883, 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(10.0, 2.0);
        for &p in &[0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            close(n.cdf(n.inv_cdf(p)), p, 1e-10);
        }
    }

    #[test]
    fn normal_pdf_integrates_to_one() {
        // Crude trapezoid over ±8σ.
        let n = Normal::new(-3.0, 0.7);
        let (a, b, steps) = (-3.0 - 8.0 * 0.7, -3.0 + 8.0 * 0.7, 20000);
        let h = (b - a) / steps as f64;
        let mut total = 0.5 * (n.pdf(a) + n.pdf(b));
        for i in 1..steps {
            total += n.pdf(a + i as f64 * h);
        }
        close(total * h, 1.0, 1e-8);
    }

    #[test]
    fn student_t_critical_values_match_tables() {
        // Standard two-sided 95% critical values.
        close(StudentT::new(1.0).two_sided_critical(0.95), 12.706, 2e-3);
        close(StudentT::new(4.0).two_sided_critical(0.95), 2.776, 1e-3);
        close(StudentT::new(9.0).two_sided_critical(0.95), 2.262, 1e-3);
        close(StudentT::new(29.0).two_sided_critical(0.95), 2.045, 1e-3);
        // t → normal as df → ∞.
        close(StudentT::new(1.0e6).two_sided_critical(0.95), 1.95996, 1e-3);
    }

    #[test]
    fn student_t_extreme_quantiles_leave_the_initial_bracket() {
        let rel_close = |got: f64, exact: f64| {
            assert!(((got - exact) / exact).abs() <= 1e-6, "{got} vs exact {exact}");
        };
        // df = 1 is the Cauchy distribution: t* = tan(π(p − ½)), beyond
        // ±1000 at these confidences (6366.2 and 63662).
        for confidence in [0.9999, 0.99999] {
            let exact = (std::f64::consts::PI * confidence / 2.0).tan();
            rel_close(StudentT::new(1.0).two_sided_critical(confidence), exact);
            rel_close(-StudentT::new(1.0).inv_cdf(0.5 - confidence / 2.0), exact);
        }
        // df = 2: t* = (2p − 1) / √(2p(1 − p)) = 99.9925, inside the first
        // bracket, so its bits must not change.
        let p: f64 = 0.5 + 0.9999 / 2.0;
        let t2 = StudentT::new(2.0).two_sided_critical(0.9999);
        rel_close(t2, (2.0 * p - 1.0) / (2.0 * p * (1.0 - p)).sqrt());
        assert_eq!(t2.to_bits(), 0x4058_ff85_1e10_7cef);
    }

    #[test]
    fn student_t_cdf_symmetry() {
        let t = StudentT::new(7.0);
        for &x in &[0.3, 1.1, 2.7] {
            close(t.cdf(x) + t.cdf(-x), 1.0, 1e-12);
        }
        close(t.cdf(0.0), 0.5, 1e-12);
    }

    #[test]
    fn student_t_pdf_nonnegative_and_peaked_at_zero() {
        let t = StudentT::new(5.0);
        assert!(t.pdf(0.0) > t.pdf(1.0));
        assert!(t.pdf(1.0) > t.pdf(3.0));
        assert!(t.pdf(-2.0) > 0.0);
        close(t.pdf(2.0), t.pdf(-2.0), 1e-14);
    }

    #[test]
    fn chi_squared_table() {
        // Known upper critical values: χ²_{0.95, k}.
        close(ChiSquared::new(1.0).inv_cdf(0.95), 3.841, 2e-3);
        close(ChiSquared::new(5.0).inv_cdf(0.95), 11.070, 2e-3);
        close(ChiSquared::new(10.0).inv_cdf(0.95), 18.307, 2e-3);
    }

    #[test]
    fn chi_squared_sf_complements_cdf() {
        let c = ChiSquared::new(6.0);
        for &x in &[0.5, 3.0, 10.0, 25.0] {
            close(c.cdf(x) + c.sf(x), 1.0, 1e-12);
        }
        assert_eq!(c.cdf(0.0), 0.0);
        assert_eq!(c.cdf(-1.0), 0.0);
    }
}
