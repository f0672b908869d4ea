//! Exact linear algebra for cross-config fitting.
//!
//! The parametric analyzer fits per-family coefficients and per-launch
//! event counts as integer-coefficient polynomials over fixed monomial
//! bases. Fitting is done with exact rational Gauss–Jordan elimination
//! (`i128` fractions, reduced at every step) over an overdetermined
//! system: a fit exists only if *every* sample row is satisfied exactly
//! and the solved coefficients are integers — anything else is reported
//! as a fallback, never rounded.
//!
//! The Diophantine helpers the checks use ([`div_floor`], [`div_ceil`],
//! [`ext_gcd`]) work in `i64` and answer `None` on overflow, which the
//! checks turn into a typed fallback.

/// A reduced rational with positive denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Q {
    n: i128,
    d: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Q {
    fn int(n: i128) -> Q {
        Q { n, d: 1 }
    }

    fn reduce(n: i128, d: i128) -> Q {
        debug_assert!(d != 0);
        let g = gcd(n, d).max(1);
        let s = if d < 0 { -1 } else { 1 };
        Q { n: s * n / g, d: s * d / g }
    }

    fn is_zero(self) -> bool {
        self.n == 0
    }

    fn sub(self, o: Q) -> Q {
        Q::reduce(self.n * o.d - o.n * self.d, self.d * o.d)
    }

    fn mul(self, o: Q) -> Q {
        Q::reduce(self.n * o.n, self.d * o.d)
    }

    fn div(self, o: Q) -> Q {
        debug_assert!(o.n != 0);
        Q::reduce(self.n * o.d, self.d * o.n)
    }
}

/// Fits `y = Σ coef_j · basis_j` exactly over the sample rows
/// `(basis values, y)`. Returns the integer coefficient vector, or
/// `None` when the system is rank-deficient (ambiguous extrapolation),
/// inconsistent (no exact fit), or the exact solution is non-integral.
pub fn fit_int_poly(rows: &[(Vec<i128>, i128)], nbasis: usize) -> Option<Vec<i128>> {
    if rows.len() < nbasis {
        return None;
    }
    // Augmented matrix over Q.
    let mut m: Vec<Vec<Q>> = rows
        .iter()
        .map(|(b, y)| {
            debug_assert_eq!(b.len(), nbasis);
            b.iter().map(|&v| Q::int(v)).chain(std::iter::once(Q::int(*y))).collect()
        })
        .collect();

    let nrows = m.len();
    let mut pivot_rows = Vec::with_capacity(nbasis);
    let mut used = vec![false; nrows];
    for col in 0..nbasis {
        // Choose an unused row with a nonzero entry in this column.
        let Some(pr) = (0..nrows).find(|&r| !used[r] && !m[r][col].is_zero()) else {
            return None; // rank-deficient: this basis column is ambiguous
        };
        used[pr] = true;
        pivot_rows.push((col, pr));
        let piv = m[pr][col];
        for cell in m[pr][col..=nbasis].iter_mut() {
            *cell = cell.div(piv);
        }
        let piv_row = m[pr].clone();
        for (r, row) in m.iter_mut().enumerate().take(nrows) {
            if r != pr && !row[col].is_zero() {
                let f = row[col];
                for (cell, p) in row[col..=nbasis].iter_mut().zip(&piv_row[col..=nbasis]) {
                    *cell = cell.sub(p.mul(f));
                }
            }
        }
    }
    // Consistency: every non-pivot row must have reduced to zero.
    for r in 0..nrows {
        if !used[r] && !m[r][nbasis].is_zero() {
            return None;
        }
    }
    // Read off the (unique) solution; require integrality.
    let mut coefs = vec![0i128; nbasis];
    for &(col, pr) in &pivot_rows {
        let v = m[pr][nbasis];
        if v.d != 1 {
            return None;
        }
        coefs[col] = v.n;
    }
    // Re-verify on the original rows (belt and braces: the elimination
    // above already guarantees this, but the check is cheap).
    for (b, y) in rows {
        let s: i128 = b.iter().zip(&coefs).map(|(v, c)| v * c).sum();
        if s != *y {
            return None;
        }
    }
    Some(coefs)
}

/// Evaluates a fitted polynomial at a basis-value row.
pub fn eval_poly(coefs: &[i128], basis: &[i128]) -> i128 {
    coefs.iter().zip(basis).map(|(c, b)| c * b).sum()
}

/// Floor division (rounds toward negative infinity); `None` for a zero
/// divisor or on overflow.
pub fn div_floor(a: i64, b: i64) -> Option<i64> {
    let q = a.checked_div(b)?;
    Some(if (a % b != 0) && ((a < 0) != (b < 0)) { q - 1 } else { q })
}

/// Ceiling division (rounds toward positive infinity); `None` for a zero
/// divisor or on overflow.
pub fn div_ceil(a: i64, b: i64) -> Option<i64> {
    let q = a.checked_div(b)?;
    Some(if (a % b != 0) && ((a < 0) == (b < 0)) { q + 1 } else { q })
}

/// Extended GCD: `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`, `g ≥ 0`;
/// `None` on overflow.
pub fn ext_gcd(a: i64, b: i64) -> Option<(i64, i64, i64)> {
    if b == 0 {
        if a < 0 {
            Some((a.checked_neg()?, -1, 0))
        } else {
            Some((a, 1, 0))
        }
    } else {
        let (g, x, y) = ext_gcd(b, a.checked_rem(b)?)?;
        Some((g, y, x.checked_sub(a.checked_div(b)?.checked_mul(y)?)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_integer_polynomials() {
        // y = 3 + 2·a + 5·a·b over a few (a, b) points.
        let pts = [(1i128, 1i128), (2, 1), (3, 2), (1, 4), (5, 2), (4, 4)];
        let rows: Vec<(Vec<i128>, i128)> =
            pts.iter().map(|&(a, b)| (vec![1, a, a * b], 3 + 2 * a + 5 * a * b)).collect();
        assert_eq!(fit_int_poly(&rows, 3), Some(vec![3, 2, 5]));
    }

    #[test]
    fn rejects_inconsistent_and_rank_deficient_systems() {
        // Inconsistent: same basis row, different y.
        let rows = vec![(vec![1, 2], 5), (vec![1, 2], 6), (vec![1, 3], 7)];
        assert_eq!(fit_int_poly(&rows, 2), None);
        // Rank-deficient: second column always zero.
        let rows = vec![(vec![1, 0], 5), (vec![2, 0], 10), (vec![3, 0], 15)];
        assert_eq!(fit_int_poly(&rows, 2), None);
    }

    #[test]
    fn rejects_non_integer_solutions() {
        // y = a/2 — exact but fractional.
        let rows = vec![(vec![2i128], 1i128), (vec![4], 2)];
        assert_eq!(fit_int_poly(&rows, 1), None);
    }

    #[test]
    fn floor_ceil_ext_gcd() {
        assert_eq!(div_floor(7, 2), Some(3));
        assert_eq!(div_floor(-7, 2), Some(-4));
        assert_eq!(div_ceil(7, 2), Some(4));
        assert_eq!(div_ceil(-7, 2), Some(-3));
        let (g, x, y) = ext_gcd(12, 18).unwrap();
        assert_eq!(g, 6);
        assert_eq!(12 * x + 18 * y, 6);
        let (g, x, y) = ext_gcd(-4, 6).unwrap();
        assert_eq!(g, 2);
        assert_eq!(-4 * x + 6 * y, 2);
    }

    #[test]
    fn overflow_is_none_not_a_wrong_answer() {
        assert_eq!(div_floor(1, 0), None);
        assert_eq!(div_ceil(i64::MIN, -1), None);
        assert_eq!(ext_gcd(i64::MIN, 0), None);
        assert_eq!(ext_gcd(i64::MIN, -1), None);
    }
}
