//! Phase-interpreter equivalence suite.
//!
//! The cooperative barrier-phase interpreter (PR 3) replaced the
//! OS-thread-per-CUDA-thread engine as the emulator's production engine.
//! This suite is the evidence that nothing observable changed:
//!
//! * emulated tiled DGEMM matches a host reference matmul for **every**
//!   valid `BS ∈ 1..=32` at N = 64 and N = 128;
//! * the emulated row FFT matches the host FFT library;
//! * the phase engine and the legacy engine produce bitwise-identical
//!   memory contents and event counts;
//! * flushed per-block counters reproduce the analytic CUPTI counts
//!   exactly across `BS ∈ {1, 4, 16, 32}`;
//! * a kernel whose threads disagree on phase count fails loudly — the
//!   deadlock-detection property the old `Barrier` gave us for free;
//! * the batched SoA phase bodies are bitwise-identical to the scalar
//!   per-thread loop — results *and* flushed counter totals — for every
//!   valid `BS` at N = 64 and N = 128, for every `BS ∈ 1..=32` at
//!   N = 2·BS, at 1/2/8 worker threads, and under proptest-randomized
//!   block shapes.

use enprop_gpusim::cupti::{CuptiCounter, CuptiReport};
use enprop_gpusim::emulator::{
    AccessSink, BlockKernel, Dim2, EmuDgemm, EmuRowFft, EventCounters, GlobalMem, PhaseCtx,
    PhaseOutcome, WavePlan,
};
use enprop_gpusim::TiledDgemmConfig;

/// Deterministic host-side fill (SplitMix64 stream).
fn filled(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Host reference: `C += k · A·B` over `n × n` row-major matrices.
fn reference_matmul(a: &[f64], b: &[f64], c0: &[f64], n: usize, k: f64) -> Vec<f64> {
    let mut out = c0.to_vec();
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..n {
                acc += a[i * n + l] * b[l * n + j];
            }
            out[i * n + j] += k * acc;
        }
    }
    out
}

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Every `BS ∈ 1..=32` dividing `n` — the valid emulator configurations.
fn valid_bs(n: usize) -> Vec<usize> {
    (1..=32).filter(|bs| n.is_multiple_of(*bs)).collect()
}

#[test]
fn dgemm_matches_reference_for_every_valid_bs_at_n64() {
    dgemm_reference_sweep(64);
}

#[test]
fn dgemm_matches_reference_for_every_valid_bs_at_n128() {
    dgemm_reference_sweep(128);
}

fn dgemm_reference_sweep(n: usize) {
    let av = filled(n * n, 21);
    let bv = filled(n * n, 22);
    let cv = filled(n * n, 23);
    let expect = reference_matmul(&av, &bv, &cv, n, 1.0);
    for bs in valid_bs(n) {
        let (a, b, c) =
            (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
        EmuDgemm::new(TiledDgemmConfig { n, bs, g: 1, r: 1 }).run(&a, &b, &c);
        // Error scales with the dot-product length; 1e-9 is ~1e3 ulps at
        // these magnitudes.
        assert!(
            max_err(&c.to_vec(), &expect) < 1e-9,
            "N={n} BS={bs}: phase-interpreted DGEMM diverged from host reference"
        );
    }
}

#[test]
fn dgemm_phase_engine_equals_legacy_engine_bitwise() {
    // Same inputs through both engines: memory contents and event counts
    // must agree bitwise, including compound workloads (G, R > 1).
    // (32, 16, 1, 1) is a 2 × 2 grid of 256-thread blocks.
    for &(n, bs, g, r) in &[
        (16usize, 4usize, 1usize, 1usize),
        (16, 8, 2, 1),
        (8, 2, 2, 2),
        (8, 4, 1, 1),
        (12, 3, 1, 2),
        (32, 16, 1, 1),
    ] {
        let av = filled(n * n, 31);
        let bv = filled(n * n, 32);
        let cv = filled(n * n, 33);
        let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g, r });

        let (a1, b1, c1) =
            (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
        let phase_ev = emu.run(&a1, &b1, &c1);

        let (a2, b2, c2) =
            (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
        let legacy_ev = emu.run_legacy(&a2, &b2, &c2);

        let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2), "n={n} bs={bs} g={g} r={r}: memory diverged");
        assert_eq!(phase_ev, legacy_ev, "n={n} bs={bs} g={g} r={r}: event counts diverged");
    }
}

#[test]
fn fft_phase_engine_matches_host_fft_library() {
    for &(n, rows) in &[(16usize, 4usize), (64, 2), (256, 1)] {
        let host = filled(2 * rows * n, 41);
        let dev = GlobalMem::from_slice(&host);
        EmuRowFft::new(n, rows).run(&dev);
        let got = dev.to_vec();

        for row in 0..rows {
            let base = 2 * row * n;
            let mut x: Vec<enprop_kernels::Complex> = (0..n)
                .map(|i| enprop_kernels::Complex::new(host[base + 2 * i], host[base + 2 * i + 1]))
                .collect();
            enprop_kernels::fft_inplace(&mut x);
            for (i, c) in x.iter().enumerate() {
                assert!((got[base + 2 * i] - c.re).abs() < 1e-9, "n={n} row={row}");
                assert!((got[base + 2 * i + 1] - c.im).abs() < 1e-9, "n={n} row={row}");
            }
        }
    }
}

#[test]
fn fft_phase_engine_equals_legacy_engine_bitwise() {
    for &(n, rows) in &[(32usize, 3usize), (8, 2), (16, 3)] {
        let host = filled(2 * rows * n, 51);
        let d1 = GlobalMem::from_slice(&host);
        let phase_ev = EmuRowFft::new(n, rows).run(&d1);
        let d2 = GlobalMem::from_slice(&host);
        let legacy_ev = EmuRowFft::new(n, rows).run_legacy(&d2);

        let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d1), bits(&d2), "n={n} rows={rows}: FFT memory diverged");
        assert_eq!(phase_ev, legacy_ev, "n={n} rows={rows}: FFT event counts diverged");
    }
}

#[test]
fn flushed_block_counters_reproduce_analytic_cupti_counts() {
    // Satellite: per-block counters flushed once at retirement must equal
    // the analytic CUPTI counts for BS ∈ {1, 4, 16, 32} (all divide 64).
    let n = 64;
    for &bs in &[1usize, 4, 16, 32] {
        for &(g, r) in &[(1usize, 1usize), (2, 1), (1, 2)] {
            let av = filled(n * n, 61);
            let bv = filled(n * n, 62);
            let (a, b, c) =
                (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::zeroed(n * n));
            let cfg = TiledDgemmConfig { n, bs, g, r };
            let ev = EmuDgemm::new(cfg).run(&a, &b, &c);
            let rep = CuptiReport::of(&cfg);
            let pairs = [
                (CuptiCounter::FlopCountDp, ev.flops),
                (CuptiCounter::SharedLoad, ev.shared_loads),
                (CuptiCounter::SharedStore, ev.shared_stores),
                (CuptiCounter::GldTransactions, ev.global_loads),
                (CuptiCounter::GstTransactions, ev.global_stores),
                (CuptiCounter::BarrierSync, ev.barriers),
            ];
            for (counter, got) in pairs {
                assert_eq!(
                    rep.get(counter).true_count,
                    got as u128,
                    "{counter:?} mismatch for BS={bs} G={g} R={r}"
                );
            }
        }
    }
}

/// Threads disagree on whether another phase follows: thread 0 keeps
/// syncing, the rest return after phase 0 — on hardware this kernel
/// deadlocks in `__syncthreads`.
struct PhaseCountDivergence;

impl BlockKernel for PhaseCountDivergence {
    type State = ();

    fn block(&self) -> Dim2 {
        Dim2::new(8, 1)
    }

    fn shared_len(&self) -> usize {
        0
    }

    fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

    fn run_phase<S: AccessSink>(
        &self,
        _phase: usize,
        _s: &mut (),
        ctx: &mut PhaseCtx<'_, S>,
    ) -> PhaseOutcome {
        if ctx.tx == 0 {
            PhaseOutcome::Sync
        } else {
            PhaseOutcome::Done
        }
    }
}

#[test]
#[should_panic(expected = "__syncthreads divergence")]
fn divergent_phase_counts_panic_instead_of_deadlocking() {
    let events = EventCounters::new();
    enprop_gpusim::emulator::run_grid(
        Dim2::new(1, 1),
        &PhaseCountDivergence,
        &events,
        WavePlan::fixed(1),
    );
}

// ---------------------------------------------------------------------
// Batched SoA phase bodies vs the scalar per-thread loop (PR 7). `run`
// takes the batched fast path (`NoSink` is inert); `run_unbatched` pins
// the scalar loop through a transparent probe sink. Equivalence is
// bitwise: output memory AND flushed event-counter totals.
// ---------------------------------------------------------------------

/// One DGEMM config through both paths at a given wave width; asserts
/// bitwise equality of memory and counters.
fn assert_dgemm_batched_equals_scalar(cfg: TiledDgemmConfig, wave: WavePlan) {
    let n = cfg.n;
    let av = filled(n * n, 71);
    let bv = filled(n * n, 72);
    let cv = filled(n * n, 73);
    let emu = EmuDgemm::new(cfg).with_wave(wave);

    let (a1, b1, c1) =
        (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
    let batched_ev = emu.run(&a1, &b1, &c1);

    let (a2, b2, c2) =
        (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
    let scalar_ev = emu.run_unbatched(&a2, &b2, &c2);

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let TiledDgemmConfig { n, bs, g, r } = cfg;
    assert_eq!(bits(&c1), bits(&c2), "n={n} bs={bs} g={g} r={r}: batched memory diverged");
    assert_eq!(batched_ev, scalar_ev, "n={n} bs={bs} g={g} r={r}: batched counters diverged");
}

/// One FFT config through both paths at a given wave width; asserts
/// bitwise equality of memory and counters.
fn assert_fft_batched_equals_scalar(n: usize, rows: usize, wave: WavePlan) {
    let host = filled(2 * rows * n, 81);
    let emu = EmuRowFft::new(n, rows).with_wave(wave);

    let d1 = GlobalMem::from_slice(&host);
    let batched_ev = emu.run(&d1);
    let d2 = GlobalMem::from_slice(&host);
    let scalar_ev = emu.run_unbatched(&d2);

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&d1), bits(&d2), "fft n={n} rows={rows}: batched memory diverged");
    assert_eq!(batched_ev, scalar_ev, "fft n={n} rows={rows}: batched counters diverged");
}

#[test]
fn dgemm_batched_equals_scalar_for_every_valid_bs_at_n64() {
    for bs in valid_bs(64) {
        assert_dgemm_batched_equals_scalar(
            TiledDgemmConfig { n: 64, bs, g: 1, r: 1 },
            WavePlan::auto(),
        );
    }
}

#[test]
fn dgemm_batched_equals_scalar_for_every_valid_bs_at_n128() {
    for bs in valid_bs(128) {
        assert_dgemm_batched_equals_scalar(
            TiledDgemmConfig { n: 128, bs, g: 1, r: 1 },
            WavePlan::auto(),
        );
    }
}

#[test]
fn dgemm_batched_equals_scalar_for_every_bs_on_a_2x2_grid() {
    // Only power-of-two BS divide 64 and 128, so only they reach the
    // batched inner product there. Every BS here, at G = R = 2, mixes the
    // 16/8/4/1-lane blocks differently (28 = 16 + 8 + 4,
    // 31 = 16 + 8 + 4 + 1 + 1 + 1) and crosses the run-boundary restage.
    for bs in 1..=32 {
        assert_dgemm_batched_equals_scalar(
            TiledDgemmConfig { n: 2 * bs, bs, g: 2, r: 2 },
            WavePlan::auto(),
        );
    }
}

#[test]
fn dgemm_batched_equals_scalar_for_compound_workloads() {
    // G > 1 exercises the multi-product group retire path; R > 1 the
    // separator-barrier path; both cross the run-boundary restage.
    // (12, 3): a row narrower than one 4-lane block.
    for &(n, bs, g, r) in &[
        (64usize, 16usize, 2usize, 1usize),
        (64, 16, 1, 2),
        (32, 8, 2, 2),
        (12, 3, 1, 1),
        (32, 8, 2, 1),
    ] {
        assert_dgemm_batched_equals_scalar(TiledDgemmConfig { n, bs, g, r }, WavePlan::auto());
    }
}

#[test]
fn dgemm_batched_equals_scalar_at_1_2_8_threads() {
    for &w in &[1usize, 2, 8] {
        assert_dgemm_batched_equals_scalar(
            TiledDgemmConfig { n: 64, bs: 16, g: 2, r: 1 },
            WavePlan::fixed(w),
        );
    }
}

#[test]
fn fft_batched_equals_scalar_across_sizes() {
    for &(n, rows) in &[(2usize, 3usize), (8, 4), (64, 2), (128, 2), (256, 1)] {
        assert_fft_batched_equals_scalar(n, rows, WavePlan::auto());
    }
}

#[test]
fn fft_batched_equals_scalar_at_1_2_8_threads() {
    for &w in &[1usize, 2, 8] {
        assert_fft_batched_equals_scalar(64, 4, WavePlan::fixed(w));
    }
}

mod batched_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random DGEMM block shapes: any divisor BS of a random N,
        /// compound G/R shapes, random wave width — batched must stay
        /// bitwise-identical to scalar.
        #[test]
        fn dgemm_batched_equals_scalar_for_random_shapes(
            n_pow in 3u32..8,             // N ∈ {8, ..., 128}
            bs_sel in 0usize..8,
            g in 1usize..3,
            r in 1usize..3,
            wave_sel in 0usize..4,        // auto, 1, 2, 8
        ) {
            let n = 1usize << n_pow;
            let divisors = valid_bs(n);
            let bs = divisors[bs_sel % divisors.len()];
            let plan = match wave_sel {
                0 => WavePlan::auto(),
                1 => WavePlan::fixed(1),
                2 => WavePlan::fixed(2),
                _ => WavePlan::fixed(8),
            };
            assert_dgemm_batched_equals_scalar(TiledDgemmConfig { n, bs, g, r }, plan);
        }

        /// Random FFT shapes: any power-of-two length and row count.
        #[test]
        fn fft_batched_equals_scalar_for_random_shapes(
            n_pow in 1u32..9,             // n ∈ {2, ..., 256}
            rows in 1usize..5,
            wave_sel in 0usize..4,        // auto, 1, 2, 8
        ) {
            let n = 1usize << n_pow;
            let plan = match wave_sel {
                0 => WavePlan::auto(),
                1 => WavePlan::fixed(1),
                2 => WavePlan::fixed(2),
                _ => WavePlan::fixed(8),
            };
            assert_fft_batched_equals_scalar(n, rows, plan);
        }

    }
}
