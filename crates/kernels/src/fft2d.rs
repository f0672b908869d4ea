//! Serial 2-D FFT by the row–column method.
//!
//! Matches the paper's FFT application structure: rows are transformed,
//! the matrix is transposed, rows (former columns) are transformed again,
//! and the matrix is transposed back. The paper's application divides the
//! rows equally between threads with no communication between them; every
//! row is an independent transform, so that split cannot change the
//! result, and this reference runs it on one thread.

use crate::fft::{Complex, Twiddles};

/// The paper's work measure for an `N × N` 2-D FFT: `W = 5 N² log₂ N`.
pub fn fft2d_work(n: usize) -> f64 {
    5.0 * (n as f64) * (n as f64) * (n as f64).log2()
}

/// Serial 2-D FFT of a row-major `n × n` signal.
///
/// One [`Twiddles`] table is built up front and reused across all `2·n`
/// row transforms of both passes, keeping the butterfly inner loops free
/// of twiddle computation.
pub fn fft2d_serial(data: &mut [Complex], n: usize) {
    assert_eq!(data.len(), n * n, "signal must be n×n");
    let tw = Twiddles::forward(n);
    for row in data.chunks_mut(n) {
        tw.apply(row);
    }
    transpose(data, n);
    for row in data.chunks_mut(n) {
        tw.apply(row);
    }
    transpose(data, n);
}

/// In-place square transpose, with the row bases carried as running
/// indices instead of re-multiplied in the swap loop.
fn transpose(data: &mut [Complex], n: usize) {
    for i in 0..n {
        let ibase = i * n;
        let mut ji = (i + 1) * n + i;
        for j in (i + 1)..n {
            data.swap(ibase + j, ji);
            ji += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;
    use crate::matrix::Matrix;

    fn signal2d(n: usize, seed: u64) -> Vec<Complex> {
        let re = Matrix::filled(n, n, seed);
        let im = Matrix::filled(n, n, seed + 1000);
        (0..n * n).map(|k| Complex::new(re.as_slice()[k], im.as_slice()[k])).collect()
    }

    /// Reference 2-D DFT via naive 1-D DFTs on rows then columns.
    fn dft2d_naive(data: &[Complex], n: usize) -> Vec<Complex> {
        let mut rows: Vec<Complex> = Vec::with_capacity(n * n);
        for r in data.chunks(n) {
            rows.extend(dft_naive(r));
        }
        let mut out = vec![Complex::ZERO; n * n];
        for j in 0..n {
            let col: Vec<Complex> = (0..n).map(|i| rows[i * n + j]).collect();
            let f = dft_naive(&col);
            for i in 0..n {
                out[i * n + j] = f[i];
            }
        }
        out
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sq().sqrt()).fold(0.0, f64::max)
    }

    #[test]
    fn serial_matches_naive_2d_dft() {
        for &n in &[2usize, 4, 16] {
            let sig = signal2d(n, 7);
            let reference = dft2d_naive(&sig, n);
            let mut x = sig.clone();
            fft2d_serial(&mut x, n);
            assert!(max_err(&x, &reference) < 1e-8, "n = {n}");
        }
    }

    #[test]
    fn work_measure_formula() {
        // W = 5 N² log₂ N.
        assert_eq!(fft2d_work(2), 5.0 * 4.0);
        assert_eq!(fft2d_work(1024), 5.0 * 1024.0 * 1024.0 * 10.0);
    }

    #[test]
    fn transpose_is_involution() {
        let n = 8;
        let sig = signal2d(n, 1);
        let mut x = sig.clone();
        transpose(&mut x, n);
        transpose(&mut x, n);
        assert_eq!(x, sig);
    }
}
