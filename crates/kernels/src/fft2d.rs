//! 2-D FFT by the row–column method, serial and thread-parallel.
//!
//! Matches the paper's FFT application structure: "a multithreaded parallel
//! application that divides the workload equally between the threads and
//! cores. There are no communications involved between the threads." Rows
//! are transformed in parallel, the matrix is transposed, rows (former
//! columns) are transformed in parallel again, and the matrix is transposed
//! back.

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

/// Thread-parallel 2-D FFT: rows are claimed dynamically by `threads`
/// workers in both passes (no inter-thread communication beyond the claim
/// cursor). All workers share one read-only [`Twiddles`] table; output is
/// bitwise-identical to [`fft2d_serial`] at any thread count.
pub fn fft2d_parallel(data: &mut [Complex], n: usize, threads: usize) {
    assert_eq!(data.len(), n * n, "signal must be n×n");
    assert!(threads >= 1, "need at least one thread");
    let threads = threads.min(n);
    let tw = Twiddles::forward(n);
    parallel_rows(data, n, threads, &tw);
    transpose(data, n);
    parallel_rows(data, n, threads, &tw);
    transpose(data, n);
}

/// FFT of each row, with rows claimed in chunks
/// ([`enprop_par::for_chunks`]) rather than the former static banding, so
/// a straggling worker cannot idle the rest.
///
/// Every row is an independent in-place transform over the shared
/// read-only twiddle table, so the row-to-worker assignment cannot affect
/// the result: output is bitwise-identical at any thread count.
fn parallel_rows(data: &mut [Complex], n: usize, threads: usize, tw: &Twiddles) {
    enprop_par::for_chunks(data, n, threads, |_, band| {
        for row in band.chunks_mut(n) {
            tw.apply(row);
        }
    });
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
        (0..n * n)
            .map(|k| Complex::new(re.as_slice()[k], im.as_slice()[k]))
            .collect()
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
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).norm_sq().sqrt())
            .fold(0.0, f64::max)
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
    fn parallel_matches_serial_for_all_thread_counts() {
        let n = 32;
        let sig = signal2d(n, 3);
        let mut reference = sig.clone();
        fft2d_serial(&mut reference, n);
        for &threads in &[1usize, 2, 3, 5, 8, 32, 100] {
            let mut x = sig.clone();
            fft2d_parallel(&mut x, n, threads);
            assert!(max_err(&x, &reference) < 1e-12, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_bitwise_identical_across_thread_counts() {
        let n = 32;
        let sig = signal2d(n, 9);
        let bits = |s: &[Complex]| -> Vec<u64> {
            s.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
        };
        let mut reference = sig.clone();
        fft2d_serial(&mut reference, n);
        for &threads in &[1usize, 2, 3, 8, 100] {
            let mut x = sig.clone();
            fft2d_parallel(&mut x, n, threads);
            assert_eq!(bits(&reference), bits(&x), "threads = {threads}");
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
