//! The paper's Fig. 3 parallel decomposition, executable.
//!
//! The application multiplies two dense `N × N` matrices using `p`
//! threadgroups of `t` threads each. A and C are partitioned horizontally
//! into `p` bands, one per threadgroup; within a group the band is further
//! split across the group's threads; B is shared read-only. Threads never
//! communicate, so the workload is exactly balanced (up to row rounding) —
//! the property weak-EP analysis requires of its test applications.

use crate::dgemm::{dgemm_blocked, dgemm_flops};
use crate::matrix::Matrix;
use std::time::Instant;

/// Configuration of the parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadgroupConfig {
    /// Number of threadgroups `p`.
    pub groups: usize,
    /// Threads per group `t`.
    pub threads_per_group: usize,
    /// Cache-block dimension used by each thread's serial kernel.
    pub block_size: usize,
}

impl ThreadgroupConfig {
    /// Total number of threads `p × t`.
    pub fn total_threads(&self) -> usize {
        self.groups * self.threads_per_group
    }

    /// Load imbalance of the work this layout hands out for an `N × N`
    /// product: (max − min) / max of the rows per thread, each row being the
    /// same `2N²` flops. It is 0 when `p·t` divides N and
    /// `(⌈N/pt⌉ − ⌊N/pt⌋)/⌈N/pt⌉` otherwise, however busy the host is;
    /// [`ThreadgroupRun::thread_seconds`] shows what the scheduler made of it.
    pub fn row_imbalance(&self, n: usize) -> f64 {
        assert!(self.total_threads() >= 1, "at least one thread required");
        let rows = band_ranges(n, self.groups, self.threads_per_group);
        let max = rows.iter().map(|r| r.1).max().unwrap_or(0);
        let min = rows.iter().map(|r| r.1).min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }
}

/// Timing and accounting of one threadgroup run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadgroupRun {
    /// Wall-clock time of the whole parallel region, seconds.
    pub wall_seconds: f64,
    /// Per-thread busy time, seconds, indexed `group * t + thread`. Wall
    /// clock, so it includes whatever the host's scheduler adds.
    pub thread_seconds: Vec<f64>,
    /// Total flops performed (`2 N³` for the full product).
    pub flops: f64,
}

impl ThreadgroupRun {
    /// Aggregate throughput in flop/s.
    pub fn flops_per_second(&self) -> f64 {
        self.flops / self.wall_seconds
    }
}

/// Runs `C ← A·B` (α = 1, β = 0) with the Fig. 3 decomposition and returns
/// timing. Panics when the configuration asks for more bands than C has
/// rows.
pub fn dgemm_threadgroups(
    cfg: ThreadgroupConfig,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) -> ThreadgroupRun {
    let n = a.rows();
    assert_eq!(a.cols(), n, "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be N×N");
    assert_eq!((c.rows(), c.cols()), (n, n), "C must be N×N");
    let total = cfg.total_threads();
    assert!(total >= 1, "at least one thread required");
    assert!(total <= n, "more threads than rows");
    assert!(cfg.block_size > 0, "block size must be positive");

    // Per-thread horizontal bands: the p-way group split composed with the
    // t-way thread split is equivalent to a (p·t)-way row split where thread
    // (g, s) owns the s-th sub-band of group g's band.
    let a_bands = band_ranges(n, cfg.groups, cfg.threads_per_group);
    debug_assert_eq!(a_bands.iter().map(|r| r.1).sum::<usize>(), n);
    let bands = c.row_bands_flat_mut(&a_bands).into_iter().zip(&a_bands);

    let start = Instant::now();
    let thread_seconds = enprop_par::join(bands, |(c_band, &(row0, rows))| {
        let t0 = Instant::now();
        let a_band = &a.as_slice()[row0 * n..(row0 + rows) * n];
        dgemm_blocked(1.0, a_band, b.as_slice(), 0.0, c_band, rows, n, n, cfg.block_size);
        t0.elapsed().as_secs_f64()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    ThreadgroupRun { wall_seconds, thread_seconds, flops: dgemm_flops(n, n, n) }
}

/// `(first_row, row_count)` for each of the `p × t` per-thread bands.
fn band_ranges(n: usize, groups: usize, threads_per_group: usize) -> Vec<(usize, usize)> {
    // First split into p group bands, then each into t thread bands, so the
    // rounding pattern matches the paper's two-level distribution.
    let mut out = Vec::with_capacity(groups * threads_per_group);
    let gbase = n / groups;
    let gextra = n % groups;
    let mut row = 0;
    for g in 0..groups {
        let grows = gbase + usize::from(g < gextra);
        let tbase = grows / threads_per_group;
        let textra = grows % threads_per_group;
        let mut inner = row;
        for s in 0..threads_per_group {
            let trows = tbase + usize::from(s < textra);
            out.push((inner, trows));
            inner += trows;
        }
        row += grows;
    }
    out
}

impl Matrix {
    /// Splits C into the given per-thread `(first_row, rows)` bands as
    /// disjoint mutable slices.
    fn row_bands_flat_mut(&mut self, ranges: &[(usize, usize)]) -> Vec<&mut [f64]> {
        let cols = self.cols();
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest: &mut [f64] = self.as_mut_slice();
        let mut consumed = 0;
        for &(row0, rows) in ranges {
            assert_eq!(row0, consumed, "ranges must be contiguous");
            let (band, tail) = rest.split_at_mut(rows * cols);
            out.push(band);
            rest = tail;
            consumed += rows;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgemm::dgemm_naive;

    fn reference_product(n: usize) -> (Matrix, Matrix, Matrix) {
        let a = Matrix::filled(n, n, 1);
        let b = Matrix::filled(n, n, 2);
        let mut c = Matrix::square(n);
        dgemm_naive(1.0, &a, &b, 0.0, &mut c);
        (a, b, c)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_matches_reference_for_various_configs() {
        let n = 48;
        let (a, b, reference) = reference_product(n);
        // Every layout and block size gives the same bits: the one threaded
        // host kernel keeps the thread-count determinism contract.
        let mut first: Option<Vec<u64>> = None;
        for &(p, t) in &[(1, 1), (1, 4), (2, 2), (4, 1), (3, 2), (2, 5)] {
            for &bs in &[1usize, 5, 8, 48] {
                let mut c = Matrix::square(n);
                let cfg = ThreadgroupConfig { groups: p, threads_per_group: t, block_size: bs };
                let run = dgemm_threadgroups(cfg, &a, &b, &mut c);
                assert!(reference.max_abs_diff(&c) < 1e-10, "p={p} t={t} bs={bs}");
                assert_eq!(*first.get_or_insert_with(|| bits(&c)), bits(&c), "p={p} t={t} bs={bs}");
                assert_eq!(run.thread_seconds.len(), p * t);
                assert!(run.wall_seconds > 0.0);
                assert_eq!(run.flops, 2.0 * (n as f64).powi(3));
            }
        }
    }

    #[test]
    fn uneven_row_split_still_correct() {
        let n = 37; // not divisible by anything convenient
        let (a, b, reference) = reference_product(n);
        let mut c = Matrix::square(n);
        let cfg = ThreadgroupConfig { groups: 3, threads_per_group: 4, block_size: 5 };
        dgemm_threadgroups(cfg, &a, &b, &mut c);
        assert!(reference.max_abs_diff(&c) < 1e-10);
    }

    #[test]
    fn band_ranges_partition_rows() {
        for &(n, p, t) in &[(48usize, 2usize, 3usize), (37, 3, 4), (10, 1, 10), (10, 10, 1)] {
            let ranges = band_ranges(n, p, t);
            assert_eq!(ranges.len(), p * t);
            let mut next = 0;
            for &(row0, rows) in &ranges {
                assert_eq!(row0, next);
                next += rows;
            }
            assert_eq!(next, n);
            // Balance: band sizes differ by at most 1 within a group and
            // at most 2 overall (two levels of rounding).
            let sizes: Vec<usize> = ranges.iter().map(|r| r.1).collect();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 2, "n={n} p={p} t={t}: {sizes:?}");
        }
    }

    #[test]
    fn throughput_and_imbalance_reported() {
        let n = 32;
        let (a, b, _) = reference_product(n);
        let mut c = Matrix::square(n);
        let cfg = ThreadgroupConfig { groups: 2, threads_per_group: 2, block_size: 8 };
        let run = dgemm_threadgroups(cfg, &a, &b, &mut c);
        assert!(run.flops_per_second() > 0.0);
        assert_eq!(cfg.row_imbalance(n), 0.0);
    }

    #[test]
    fn row_imbalance_measures_the_rows_handed_out() {
        // (N, p, t, imbalance): 0 wherever p·t divides N, else
        // (⌈N/pt⌉ − ⌊N/pt⌋)/⌈N/pt⌉, whatever the threads' timings.
        for &(n, p, t, want) in &[
            (12usize, 2usize, 2usize, 0.0),
            (12, 4, 1, 0.0),
            (12, 1, 3, 0.0),
            (10, 4, 1, 1.0 / 3.0),
            (10, 2, 2, 1.0 / 3.0),
            (10, 1, 4, 1.0 / 3.0),
            (37, 3, 4, 0.25),
        ] {
            let cfg = ThreadgroupConfig { groups: p, threads_per_group: t, block_size: 4 };
            let rows: Vec<usize> = band_ranges(n, p, t).iter().map(|r| r.1).collect();
            let pt = p * t;
            assert_eq!(rows.iter().max(), Some(&n.div_ceil(pt)), "N={n} p={p} t={t}");
            assert_eq!(rows.iter().min(), Some(&(n / pt)), "N={n} p={p} t={t}");
            assert_eq!(cfg.row_imbalance(n), want, "N={n} p={p} t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "more threads than rows")]
    fn rejects_oversubscription_beyond_rows() {
        let a = Matrix::filled(4, 4, 1);
        let b = Matrix::filled(4, 4, 2);
        let mut c = Matrix::square(4);
        let cfg = ThreadgroupConfig { groups: 5, threads_per_group: 1, block_size: 2 };
        dgemm_threadgroups(cfg, &a, &b, &mut c);
    }
}
