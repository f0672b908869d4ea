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

/// Register-tile height of the packed micro-kernel.
const MR: usize = 4;
/// Register-tile width of the packed micro-kernel — the vectorizable
/// direction (B lanes are contiguous in the packed strip), kept at two
/// 4-wide vectors per C row.
const NR: usize = 8;

/// Cache-blocked DGEMM with a square tile of dimension `bs`, built on
/// packed panels and an `MR × NR` (4 × 8) register-tiled micro-kernel.
///
/// Per cache tile, the `A` sub-panel is packed into strips of [`MR`] rows
/// laid out column-by-column and the `B` sub-panel into strips of [`NR`]
/// columns laid out row-by-row, so the micro-kernel streams both operands
/// contiguously; each `MR × NR` block of `C` then accumulates in
/// registers with one fully unrolled multiply–add per element per `k`
/// step, and spills `C += α·acc` once at tile end. Ragged edges are
/// zero-padded in the packing (the padded lanes multiply zeros and are
/// never written back).
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
    // Dispatch once per call, not per micro-tile: on x86-64 with AVX2 the
    // whole packed driver (and the micro-kernel inlined into it) is
    // recompiled with 256-bit vectors. The body is identical safe code in
    // both instantiations, rustc never fuses or reassociates floating
    // point, and every accumulator chain keeps its order — so both paths
    // produce bitwise-identical output; only the instruction selection
    // differs.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe {
            return dgemm_blocked_avx2(alpha, a, b, beta, c, m, k, n, bs);
        }
    }
    dgemm_blocked_body(alpha, a, b, beta, c, m, k, n, bs);
}

/// The instruction-set tier [`dgemm_blocked`] dispatches to on this host,
/// recorded as the `simd_dispatch` field of kernel benchmark sections:
/// `"avx2"` or `"scalar"`.
pub fn simd_dispatch() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

/// Multi-threaded [`dgemm_blocked`]: the packed driver over disjoint row
/// slabs of `A` and `C`, claimed in runs of [`MR`]-row strips
/// ([`enprop_par::for_chunks`]).
///
/// Bitwise-identical to the serial kernel at **any** thread count. Each
/// `C` element accrues exactly one `C += α·acc` spill per `bs`-sized
/// k-block, in ascending k-block order, and the in-register accumulator
/// chain inside a k-block sums in ascending-`k` order — a sequence fixed
/// entirely by the `kc` blocking of `k`, never by how rows are grouped
/// into cache tiles or slabs (packing only copies values, and ragged
/// strips pad with zeros that are never written back). Restarting the
/// driver's `i0` loop at each slab base therefore changes no element's
/// operation sequence. β-scaling runs once up front (the same element-wise
/// loop the serial driver uses), after which every slab runs with `β = 1`.
#[allow(clippy::too_many_arguments)] // deliberately BLAS-shaped signature
pub fn dgemm_blocked_mt(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    bs: usize,
    threads: usize,
) {
    assert!(threads >= 1, "need at least one thread");
    assert!(bs > 0, "block size must be positive");
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");

    let strips = m.div_ceil(MR);
    let workers = threads.min(strips);
    if workers <= 1 || n == 0 {
        return dgemm_blocked(alpha, a, b, beta, c, m, k, n, bs);
    }

    // Scale C by beta once up front, so each slab call passes β = 1 and
    // the per-slab driver's scaling is a no-op.
    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    enprop_par::for_chunks(c, MR * n, workers, |first_strip, c_slab| {
        let r0 = first_strip * MR;
        let rows = c_slab.len() / n;
        dgemm_blocked(alpha, &a[r0 * k..(r0 + rows) * k], b, 1.0, c_slab, rows, k, n, bs);
    });
}

/// The packed driver compiled with AVX2 enabled (same safe body).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dgemm_blocked_avx2(
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
    dgemm_blocked_body(alpha, a, b, beta, c, m, k, n, bs);
}

/// The packed cache-blocked driver behind [`dgemm_blocked`]; inlined into
/// each feature-specific instantiation.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dgemm_blocked_body(
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

    // Packing buffers, sized for one cache tile (rounded up to whole
    // register strips) and reused across all tiles.
    let mc_cap = bs.min(m).div_ceil(MR) * MR;
    let nc_cap = bs.min(n).div_ceil(NR) * NR;
    let kc_cap = bs.min(k);
    let mut apack = vec![0.0f64; mc_cap * kc_cap];
    let mut bpack = vec![0.0f64; kc_cap * nc_cap];

    for l0 in (0..k).step_by(bs) {
        let kc = (l0 + bs).min(k) - l0;
        for i0 in (0..m).step_by(bs) {
            let mc = (i0 + bs).min(m) - i0;
            pack_a(&mut apack, a, i0, l0, mc, kc, k);
            for j0 in (0..n).step_by(bs) {
                let nc = (j0 + bs).min(n) - j0;
                pack_b(&mut bpack, b, l0, j0, kc, nc, n);
                for ir in (0..mc).step_by(MR) {
                    let mr = MR.min(mc - ir);
                    let astrip = &apack[(ir / MR) * MR * kc..(ir / MR + 1) * MR * kc];
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let bstrip = &bpack[(jr / NR) * NR * kc..(jr / NR + 1) * NR * kc];
                        microkernel(astrip, bstrip, kc, alpha, c, i0 + ir, j0 + jr, mr, nr, n);
                    }
                }
            }
        }
    }
}

/// Packs the `mc × kc` sub-panel of `A` at `(i0, l0)` into strips of [`MR`]
/// rows, each strip laid out column-by-column (`MR` consecutive doubles per
/// `k` step). Rows past `mc` are zero-padded.
fn pack_a(apack: &mut [f64], a: &[f64], i0: usize, l0: usize, mc: usize, kc: usize, lda: usize) {
    for s in 0..mc.div_ceil(MR) {
        let strip = &mut apack[s * MR * kc..(s + 1) * MR * kc];
        for r in 0..MR {
            let i = s * MR + r;
            if i < mc {
                let arow = &a[(i0 + i) * lda + l0..(i0 + i) * lda + l0 + kc];
                for (l, &v) in arow.iter().enumerate() {
                    strip[l * MR + r] = v;
                }
            } else {
                for l in 0..kc {
                    strip[l * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs the `kc × nc` sub-panel of `B` at `(l0, j0)` into strips of [`NR`]
/// columns, each strip laid out row-by-row (`NR` consecutive doubles per
/// `k` step). Columns past `nc` are zero-padded.
fn pack_b(bpack: &mut [f64], b: &[f64], l0: usize, j0: usize, kc: usize, nc: usize, ldb: usize) {
    for s in 0..nc.div_ceil(NR) {
        let strip = &mut bpack[s * NR * kc..(s + 1) * NR * kc];
        let width = NR.min(nc - s * NR);
        for l in 0..kc {
            let brow = &b[(l0 + l) * ldb + j0 + s * NR..];
            let dst = &mut strip[l * NR..(l + 1) * NR];
            dst[..width].copy_from_slice(&brow[..width]);
            dst[width..].fill(0.0);
        }
    }
}

/// The `MR × NR` register-tiled micro-kernel: an accumulator block over
/// one packed A strip and one packed B strip, fully unrolled, with
/// `C += α·acc` spilled once at the end (only the valid `mr × nr` corner).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel(
    astrip: &[f64],
    bstrip: &[f64],
    kc: usize,
    alpha: f64,
    c: &mut [f64],
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
    ldc: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // `chunks_exact` hands the loop fixed-size windows, so every lane read
    // below is bounds-check-free, and the fixed-size `MR × NR` inner loops
    // unroll completely — each C row becomes broadcast(a_r) times the
    // contiguous B lane vector, the shape the auto-vectorizer wants.
    for (av, bv) in astrip[..kc * MR]
        .chunks_exact(MR)
        .zip(bstrip[..kc * NR].chunks_exact(NR))
    {
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (x, lane) in row.iter_mut().enumerate() {
                *lane += ar * bv[x];
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        let crow = &mut c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + nr];
        for (x, dst) in crow.iter_mut().enumerate() {
            *dst += alpha * row[x];
        }
    }
}

/// The pre-packing cache-blocked kernel (tile-wise triple loop over raw
/// rows, no packing, no register tiling) — retained verbatim as the
/// baseline of the `host_kernels` GFLOPS benchmark gate.
///
/// Semantics are identical to [`dgemm_blocked`] up to floating-point
/// reassociation.
#[allow(clippy::too_many_arguments)] // deliberately BLAS-shaped signature
pub fn dgemm_blocked_unpacked(
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

    fn blocked_on_matrices(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix, bs: usize) {
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

    #[test]
    fn block_size_does_not_change_result() {
        let n = 24;
        let a = Matrix::filled(n, n, 5);
        let b = Matrix::filled(n, n, 6);
        let mut reference = Matrix::square(n);
        blocked_on_matrices(1.0, &a, &b, 0.0, &mut reference, 1);
        for &bs in &[2usize, 3, 8, 24, 100] {
            let mut c = Matrix::square(n);
            blocked_on_matrices(1.0, &a, &b, 0.0, &mut c, bs);
            assert!(reference.max_abs_diff(&c) < 1e-10, "bs = {bs}");
        }
    }

    #[test]
    fn packed_matches_unpacked_baseline() {
        // The packed register-tiled kernel and the retained baseline agree
        // (up to reassociation) on square, ragged and rectangular shapes.
        for &(m, k, n, bs) in &[(16usize, 16usize, 16usize, 8usize), (7, 13, 9, 4), (33, 5, 21, 8)]
        {
            let a = Matrix::filled(m, k, 41);
            let b = Matrix::filled(k, n, 42);
            let c0 = Matrix::filled(m, n, 43);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            dgemm_blocked(1.25, a.as_slice(), b.as_slice(), 0.75, c1.as_mut_slice(), m, k, n, bs);
            dgemm_blocked_unpacked(
                1.25,
                a.as_slice(),
                b.as_slice(),
                0.75,
                c2.as_mut_slice(),
                m,
                k,
                n,
                bs,
            );
            assert!(c1.max_abs_diff(&c2) < 1e-10, "m={m} k={k} n={n} bs={bs}");
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

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn mt_bitwise_identical_across_thread_counts() {
        // Square, ragged (m not a multiple of MR or bs), and rectangular
        // shapes; α/β exercised away from 0 and 1 so the hoisted β-scaling
        // path is covered too.
        for &(m, k, n, bs) in &[
            (64usize, 64usize, 64usize, 16usize),
            (33, 17, 29, 8),
            (7, 13, 9, 4),
            (4, 4, 4, 4),
        ] {
            let a = Matrix::filled(m, k, 51);
            let b = Matrix::filled(k, n, 52);
            let c0 = Matrix::filled(m, n, 53);
            let mut reference = c0.clone();
            dgemm_blocked(
                1.25,
                a.as_slice(),
                b.as_slice(),
                0.75,
                reference.as_mut_slice(),
                m,
                k,
                n,
                bs,
            );
            for &threads in &[1usize, 2, 8] {
                let mut c = c0.clone();
                dgemm_blocked_mt(
                    1.25,
                    a.as_slice(),
                    b.as_slice(),
                    0.75,
                    c.as_mut_slice(),
                    m,
                    k,
                    n,
                    bs,
                    threads,
                );
                assert_eq!(
                    bits(reference.as_slice()),
                    bits(c.as_slice()),
                    "m={m} k={k} n={n} bs={bs} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn mt_beta_zero_matches_serial_bitwise() {
        let (m, k, n, bs) = (19, 11, 23, 8);
        let a = Matrix::filled(m, k, 61);
        let b = Matrix::filled(k, n, 62);
        let mut reference = Matrix::filled(m, n, 99);
        let mut c = reference.clone();
        dgemm_blocked(2.0, a.as_slice(), b.as_slice(), 0.0, reference.as_mut_slice(), m, k, n, bs);
        dgemm_blocked_mt(2.0, a.as_slice(), b.as_slice(), 0.0, c.as_mut_slice(), m, k, n, bs, 8);
        assert_eq!(bits(reference.as_slice()), bits(c.as_slice()));
    }

    #[test]
    fn simd_dispatch_reports_known_tier() {
        assert!(matches!(simd_dispatch(), "avx2" | "scalar"));
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(2, 3, 4), 48.0);
        assert_eq!(dgemm_flops(10, 10, 10), 2000.0);
    }
}
