//! Blocked serial DGEMM: `C ← α·A·B + β·C`.
//!
//! The cache-blocked kernel mirrors the structure of the GPU application of
//! the paper's Fig. 5: the computation proceeds tile by tile, accumulating
//! sub-products of `bs × bs` blocks. On a CPU the "shared memory" role is
//! played by the L1/L2-resident tiles.

use crate::matrix::Matrix;

/// Naive triple loop, used as the correctness reference.
pub fn dgemm_naive(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a.get(i, l) * b.get(l, j);
            }
            c.set(i, j, alpha * acc + beta * c.get(i, j));
        }
    }
}

/// Cache-blocked DGEMM with a square tile of dimension `bs`: a tile-wise
/// triple loop over raw rows, with no packing and no register tiling.
///
/// After `C ← β·C`, every element of `C` accrues `(α·a[i][l])·b[l][j]` once
/// per `l`, in ascending `l`: the `l0` blocks run in ascending order inside
/// each `(i0, j0)` tile pair, and `l` ascends inside each block. Neither
/// `bs` nor which rows a call is handed changes that sequence, so the
/// result is bitwise-identical at any block size and under any split of
/// the rows into bands (the threadgroup harness relies on the latter).
///
/// Operates on raw row-major slices so the threadgroup harness can hand each
/// thread a disjoint band of A and C while sharing B.
///
/// * `a`: `m × k` band of A (row-major, leading dimension `k`)
/// * `b`: `k × n` shared B
/// * `c`: `m × n` band of C
#[allow(clippy::too_many_arguments)] // deliberately BLAS-shaped signature
pub fn dgemm_blocked(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    bs: usize,
) {
    assert!(bs > 0, "block size must be positive");
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");

    // Scale C by beta once up front.
    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    for i0 in (0..m).step_by(bs) {
        let i1 = (i0 + bs).min(m);
        for l0 in (0..k).step_by(bs) {
            let l1 = (l0 + bs).min(k);
            for j0 in (0..n).step_by(bs) {
                let j1 = (j0 + bs).min(n);
                // Micro-kernel on the (i0..i1) × (j0..j1) tile.
                for i in i0..i1 {
                    let arow = &a[i * k..(i + 1) * k];
                    let crow = &mut c[i * n..(i + 1) * n];
                    for l in l0..l1 {
                        let aval = alpha * arow[l];
                        let brow = &b[l * n..(l + 1) * n];
                        for j in j0..j1 {
                            crow[j] += aval * brow[j];
                        }
                    }
                }
            }
        }
    }
}

/// Flop count of one `m × k × n` GEMM (one multiply + one add per inner
/// iteration); `2 N³` for square matrices, the paper's work measure.
pub fn dgemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked_on_matrices(
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
        bs: usize,
    ) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        dgemm_blocked(alpha, a.as_slice(), b.as_slice(), beta, c.as_mut_slice(), m, k, n, bs);
    }

    #[test]
    fn blocked_matches_naive_square() {
        for &n in &[1usize, 2, 7, 16, 33] {
            let a = Matrix::filled(n, n, 1);
            let b = Matrix::filled(n, n, 2);
            let mut c1 = Matrix::filled(n, n, 3);
            let mut c2 = c1.clone();
            dgemm_naive(1.5, &a, &b, 0.5, &mut c1);
            blocked_on_matrices(1.5, &a, &b, 0.5, &mut c2, 8);
            assert!(c1.max_abs_diff(&c2) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let (m, k, n) = (9, 14, 5);
        let a = Matrix::filled(m, k, 10);
        let b = Matrix::filled(k, n, 20);
        let mut c1 = Matrix::filled(m, n, 30);
        let mut c2 = c1.clone();
        dgemm_naive(1.0, &a, &b, 1.0, &mut c1);
        blocked_on_matrices(1.0, &a, &b, 1.0, &mut c2, 4);
        assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn block_size_does_not_change_result() {
        let n = 24;
        let a = Matrix::filled(n, n, 5);
        let b = Matrix::filled(n, n, 6);
        let mut reference = Matrix::square(n);
        blocked_on_matrices(1.0, &a, &b, 0.0, &mut reference, 1);
        for bs in (2..=n + 1).chain([100]) {
            let mut c = Matrix::square(n);
            blocked_on_matrices(1.0, &a, &b, 0.0, &mut c, bs);
            assert_eq!(bits(reference.as_slice()), bits(c.as_slice()), "bs = {bs}");
        }
    }

    #[test]
    fn beta_zero_ignores_initial_c() {
        let n = 8;
        let a = Matrix::filled(n, n, 1);
        let b = Matrix::filled(n, n, 2);
        let mut c1 = Matrix::filled(n, n, 99);
        let mut c2 = Matrix::square(n);
        blocked_on_matrices(1.0, &a, &b, 0.0, &mut c1, 4);
        blocked_on_matrices(1.0, &a, &b, 0.0, &mut c2, 4);
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(2, 3, 4), 48.0);
        assert_eq!(dgemm_flops(10, 10, 10), 2000.0);
    }
}
