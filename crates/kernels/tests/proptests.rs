//! Property-based tests of the real compute kernels.

use enprop_kernels::{
    dgemm_blocked, dgemm_naive, dgemm_threadgroups, fft_inplace, ifft_inplace, Complex, Matrix,
    ThreadgroupConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The threadgroup-parallel product equals the naive product for any
    /// layout of groups and threads that fits the matrix, and is
    /// bitwise-identical to one serial blocked call at another block size.
    #[test]
    fn threadgroups_match_naive(
        n in 4usize..40,
        p in 1usize..5,
        t in 1usize..5,
        bs in 1usize..12,
        seed in 0u64..100,
    ) {
        prop_assume!(p * t <= n);
        let a = Matrix::filled(n, n, seed);
        let b = Matrix::filled(n, n, seed + 1);
        let mut reference = Matrix::square(n);
        dgemm_naive(1.0, &a, &b, 0.0, &mut reference);
        let mut serial = Matrix::square(n);
        dgemm_blocked(1.0, a.as_slice(), b.as_slice(), 0.0, serial.as_mut_slice(), n, n, n, 7);

        let mut c = Matrix::square(n);
        let cfg = ThreadgroupConfig { groups: p, threads_per_group: t, block_size: bs };
        let run = dgemm_threadgroups(cfg, &a, &b, &mut c);
        prop_assert!(reference.max_abs_diff(&c) < 1e-9);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&serial), bits(&c));
        prop_assert_eq!(run.thread_seconds.len(), p * t);
        prop_assert!(run.flops > 0.0);
    }

    /// FFT → IFFT is the identity for any power-of-two length.
    #[test]
    fn fft_identity(log_n in 0u32..10, seed in 0u64..100) {
        let n = 1usize << log_n;
        let m = Matrix::filled(2, n.max(1), seed);
        let signal: Vec<Complex> =
            (0..n).map(|i| Complex::new(m.get(0, i), m.get(1, i))).collect();
        let mut x = signal.clone();
        fft_inplace(&mut x);
        ifft_inplace(&mut x);
        for (a, b) in x.iter().zip(&signal) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    /// Parseval: energy is preserved (scaled by n) by the forward FFT.
    #[test]
    fn fft_parseval(log_n in 1u32..10, seed in 0u64..100) {
        let n = 1usize << log_n;
        let m = Matrix::filled(2, n, seed);
        let signal: Vec<Complex> =
            (0..n).map(|i| Complex::new(m.get(0, i), m.get(1, i))).collect();
        let time_energy: f64 = signal.iter().map(|c| c.norm_sq()).sum();
        let mut x = signal;
        fft_inplace(&mut x);
        let freq_energy: f64 = x.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-9 * time_energy.max(1.0));
    }

    /// GEMM linearity: scaling α scales the product (β = 0).
    #[test]
    fn gemm_alpha_linearity(n in 2usize..16, alpha in -4.0f64..4.0, seed in 0u64..50) {
        let a = Matrix::filled(n, n, seed);
        let b = Matrix::filled(n, n, seed + 1);
        let mut c1 = Matrix::square(n);
        dgemm_naive(1.0, &a, &b, 0.0, &mut c1);
        let mut c2 = Matrix::square(n);
        dgemm_naive(alpha, &a, &b, 0.0, &mut c2);
        for (x, y) in c1.as_slice().iter().zip(c2.as_slice()) {
            prop_assert!((alpha * x - y).abs() < 1e-9);
        }
    }
}
