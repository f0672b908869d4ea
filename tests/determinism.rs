//! The parallel sweep engine's determinism contract, end to end: every
//! measured sweep is bitwise-identical at 1, 2, and 8 worker threads, the
//! SplitMix64 seed splitter hands every configuration a distinct,
//! enumeration-order-independent RNG stream, and two measured outputs stay
//! byte-for-byte what they were when their fingerprints were recorded. So
//! do the kernel-verification outputs, which are computed on every host
//! core: the sanitizer sweep report, every finding of the seeded
//! self-test fixtures, the learned static DGEMM model and the fig7/fig8
//! lattice outcomes.

use enprop::apps::{
    fft2d::{Fft2dApp, Processor},
    split_seed, CpuDgemmApp, GpuMatMulApp, RetryPolicy, SweepExecutor,
};
use enprop::cpusim::BlasFlavor;
use enprop::gpusim::GpuArch;
use enprop::power::FaultPlan;
use enprop::sanitize::{fixtures, sanitize_all};
use enprop_bench::fig8;
use enprop_staticcheck::{verify_fig_lattices, DgemmStaticModel};
use proptest::prelude::*;

/// FNV-1a 64 over `bytes`: a dependency-free fingerprint of serialized
/// output.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts that `json` hashes to the recorded `golden` fingerprint.
fn assert_golden(what: &str, json: &str, golden: u64) {
    let found = fnv1a64(json.as_bytes());
    assert_eq!(
        found,
        golden,
        "{what}: serialized output ({} bytes) hashes to {found:#018x}, recorded {golden:#018x}",
        json.len()
    );
}

#[test]
fn measured_gpu_sweep_bytes_match_golden() {
    // K40c, N = 512, 4 products: 86 configurations whose Student-t loops
    // run from 3 to 40 repetitions, so the critical values of df 2..=39
    // all feed the pinned bytes.
    let sweep =
        GpuMatMulApp::new(GpuArch::k40c(), 4).sweep_measured(512, &SweepExecutor::serial(42));
    assert_eq!(sweep.len(), 86);
    let json = serde_json::to_string(&sweep).expect("serialize sweep");
    assert_golden("k40c N=512 sweep", &json, 0xac92_bf09_50d6_38ca);
}

#[test]
fn measured_fig8_bytes_match_golden() {
    let panels = fig8::generate_measured_with(&SweepExecutor::new(42).with_threads(2));
    let json = serde_json::to_string(&panels).expect("serialize fig8");
    assert_golden("fig8 measured", &json, 0x78a0_7968_0993_995e);
}

#[test]
fn sanitize_all_report_bytes_match_golden() {
    let report = sanitize_all(&GpuArch::k40c(), false);
    let json = serde_json::to_string(&report).expect("serialize sanitize report");
    assert_golden("sanitize_all", &json, 0x075b_6961_889f_3bef);
}

#[test]
fn self_test_findings_match_golden() {
    // The dirty path: every finding of every seeded fixture, in order,
    // with its full attribution, plus each report's suppressed count.
    let mut rendered = String::new();
    for (_, report) in fixtures::self_test() {
        rendered.push_str(&report.kernel);
        rendered.push('\n');
        for finding in &report.findings {
            rendered.push_str(&format!("{finding:?}\n"));
        }
        rendered.push_str(&format!("suppressed {}\n", report.suppressed));
    }
    assert_golden("self-test findings", &rendered, 0x403a_adee_b3ae_e218);
}

#[test]
fn learned_static_model_bytes_match_golden() {
    let model = DgemmStaticModel::learn().expect("the DGEMM model learns");
    assert_golden(
        "learned DGEMM model",
        &format!("{model:?}"),
        0x5e4a_ff63_bcf6_7362,
    );
}

#[test]
fn static_lattice_outcomes_bytes_match_golden() {
    let model = DgemmStaticModel::learn().expect("the DGEMM model learns");
    let lattices = verify_fig_lattices(&model);
    assert_golden(
        "fig7/fig8 lattices",
        &format!("{lattices:?}"),
        0x541e_a8f0_653c_e18b,
    );
}

/// Executors with the same seed at the three canonical thread counts.
fn executors(seed: u64) -> [SweepExecutor; 3] {
    [
        SweepExecutor::serial(seed),
        SweepExecutor::new(seed).with_threads(2),
        SweepExecutor::new(seed).with_threads(8),
    ]
}

#[test]
fn gpu_sweep_identical_at_1_2_8_threads() {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 4);
    let [e1, e2, e8] = executors(31);
    let base = app.sweep_measured(2048, &e1);
    assert!(!base.is_empty());
    assert_eq!(base, app.sweep_measured(2048, &e2));
    assert_eq!(base, app.sweep_measured(2048, &e8));
}

#[test]
fn cpu_sweep_identical_at_1_2_8_threads() {
    let app = CpuDgemmApp::haswell();
    let [e1, e2, e8] = executors(17);
    let base = app.sweep_measured(4096, BlasFlavor::OpenBlas, &e1, 40);
    assert!(!base.is_empty());
    assert_eq!(base, app.sweep_measured(4096, BlasFlavor::OpenBlas, &e2, 40));
    assert_eq!(base, app.sweep_measured(4096, BlasFlavor::OpenBlas, &e8, 40));
}

#[test]
fn fft_sweep_identical_at_1_2_8_threads() {
    let sizes = [256usize, 512, 1024, 2048, 4096, 8192];
    for proc in Processor::catalog() {
        let app = Fft2dApp::new(proc);
        let [e1, e2, e8] = executors(23);
        let base = app.sweep_measured(&sizes, &e1);
        assert_eq!(base.len(), sizes.len());
        assert_eq!(base, app.sweep_measured(&sizes, &e2));
        assert_eq!(base, app.sweep_measured(&sizes, &e8));
    }
}

#[test]
fn faulty_gpu_sweep_identical_at_1_2_8_threads() {
    // Retries draw their noise from per-attempt seed substreams, so even a
    // sweep where measurements fail and re-run must stay bitwise-identical
    // at every thread count — points, failure records, and retry counts.
    let app = GpuMatMulApp::new(GpuArch::k40c(), 4);
    let policy = RetryPolicy::attempts(2);
    let plan = FaultPlan::transient(0.2);
    let [e1, e2, e8] = executors(31);
    let base = app.sweep_measured_robust(2048, &e1, policy, plan);
    assert!(!base.points.is_empty());
    assert!(base.retried > 0, "20% fault rate never triggered a retry");
    assert_eq!(base, app.sweep_measured_robust(2048, &e2, policy, plan));
    assert_eq!(base, app.sweep_measured_robust(2048, &e8, policy, plan));
}

#[test]
fn faulty_cpu_sweep_identical_at_1_2_8_threads() {
    let app = CpuDgemmApp::haswell();
    let policy = RetryPolicy::attempts(2);
    let plan = FaultPlan::transient(0.2);
    let [e1, e2, e8] = executors(17);
    let base = app.sweep_measured_robust(4096, BlasFlavor::OpenBlas, &e1, 40, policy, plan);
    assert!(!base.points.is_empty());
    assert_eq!(
        base,
        app.sweep_measured_robust(4096, BlasFlavor::OpenBlas, &e2, 40, policy, plan)
    );
    assert_eq!(
        base,
        app.sweep_measured_robust(4096, BlasFlavor::OpenBlas, &e8, 40, policy, plan)
    );
}

proptest! {
    /// Distinctness: within one sweep, no two configuration indices ever
    /// share a derived seed (no cross-talk between their noise streams).
    #[test]
    fn config_seeds_are_distinct(seed in 0u64..u64::MAX, span in 1usize..512) {
        let mut seen = std::collections::HashSet::new();
        for index in 0..span {
            prop_assert!(
                seen.insert(split_seed(seed, index)),
                "duplicate stream for index {index} under sweep seed {seed}"
            );
        }
    }

    /// Order independence: the seed of configuration `i` is a pure
    /// function of `(sweep_seed, i)` — the same whether derived first,
    /// last, through an executor, or interleaved with any other indices.
    #[test]
    fn config_seeds_are_order_independent(
        seed in 0u64..u64::MAX,
        a in 0usize..4096,
        b in 0usize..4096,
    ) {
        let forward = (split_seed(seed, a), split_seed(seed, b));
        let reverse = (split_seed(seed, b), split_seed(seed, a));
        prop_assert_eq!(forward.0, reverse.1);
        prop_assert_eq!(forward.1, reverse.0);
        let exec = SweepExecutor::serial(seed);
        prop_assert_eq!(exec.config_seed(a), forward.0);
        prop_assert_eq!(exec.config_seed(b), forward.1);
    }

    /// Different sweep seeds give different per-config streams.
    #[test]
    fn sweep_seed_reaches_every_config(s1 in 0u64..u64::MAX, s2 in 0u64..u64::MAX) {
        prop_assume!(s1 != s2);
        for index in [0usize, 1, 7, 100] {
            prop_assert_ne!(split_seed(s1, index), split_seed(s2, index));
        }
    }
}
