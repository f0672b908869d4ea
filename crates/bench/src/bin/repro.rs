//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|fig1|fig2|fig4|fig6|fig7|fig8|theory|headline|bench-json|sanitize|
//!        verify-static|serve]
//!       [--json DIR] [--measured [SEED]] [--threads N] [--faults [RATE]] [--check]
//!       [--checkpoint DIR] [--resume] [--all] [--full] [--self-test] [--sample K]
//!       [--port PORT] [--cache DIR]
//! ```
//!
//! With `--json DIR` each generated artifact is additionally written as a
//! JSON file (the source of the numbers in `EXPERIMENTS.md`). With
//! `--measured`, Figs. 7 and 8 are regenerated through the full noisy
//! measurement methodology (simulated WattsUp + Student-t protocol)
//! instead of the noise-free analytic model. `--threads N` sets the sweep
//! worker count (default: all available cores); the output is
//! bitwise-identical at any thread count. `--faults RATE` (default 0.05)
//! additionally injects transient meter faults at that per-measurement
//! rate: each configuration retries up to 3 times on a fresh seed
//! substream, exhausted configurations are skipped with a reported count,
//! and the surviving output is still bitwise-identical at any thread
//! count.
//!
//! With `--checkpoint DIR` the measured Fig. 7/8 sweeps write a durable
//! append-only journal of completed configurations under `DIR` (one
//! subdirectory per panel size). `--resume` replays a journal left by an
//! interrupted run and measures only the unfinished configurations;
//! resumed output is bitwise-identical to an uninterrupted run at any
//! thread count. Without `--resume`, an existing journal is an error —
//! a stale directory is never silently overwritten.
//!
//! The `bench-json` subcommand times (a) the Fig. 7 measured sweep
//! serially and in parallel, verifying both produce identical results,
//! (b) the functional emulator running tiled DGEMM on the retired
//! OS-thread engine vs the barrier-phase interpreter (N = 128 by default
//! — the OS-thread engine spawns one thread per CUDA thread and dominates
//! the benchmark's wall-clock; `--full` restores the historical N = 256
//! workload; either way the JSON `workload` string names the size used),
//! and (c) a fault-injection smoke sweep — the K40c N = 8704 workload (102
//! configurations) under a 5% transient-failure rate with the default
//! 3-attempt retry policy, run at 1, 2, and 8 threads and compared for
//! exact equality of both the surviving points and the exhausted-retry
//! set, and (d) a checkpoint-recovery drill — the same fault sweep run
//! journaled, killed mid-journal by deterministic crash injection (the
//! final record torn), then resumed at 1, 2, and 8 threads and compared
//! bitwise against the uninterrupted run, with the journal's wall-clock
//! overhead measured — and writes everything, including `host_cores`, to
//! `BENCH_sweep.json`. Five further sections measure this tree's fast
//! paths: `emulator_batch` (the explicit-SIMD batched SoA phase bodies vs
//! the scalar per-thread interpreter AND vs the same batch bodies pinned
//! to the scalar-sse2 tier — the PR 7 auto-vectorized baseline — with
//! results and counters compared exactly), `host_kernels` (the packed
//! 4 × 8 register-tiled DGEMM vs the retained unpacked baseline in
//! GFLOPS, plus the twiddle-hoisted 2-D FFT), `host_kernels_mt` (the
//! multi-threaded packed DGEMM and chunk-claiming 2-D FFT vs their serial
//! forms, bitwise-identical across 1/2/8 threads), `sanitize_sampled`
//! (1-in-8 sampled monitoring vs full monitoring vs the scalar baseline),
//! and `sanitize_batched` (full monitoring riding the batched bulk trace
//! path vs per-access scalar-hook monitoring vs the uninstrumented scalar
//! interpreter, findings compared exactly). Every kernel-related section
//! records the selected SIMD dispatch path (`avx512` / `avx2` /
//! `scalar-sse2` for the emulator, `avx2` / `scalar` for the host
//! kernels) as a `simd_dispatch` field. With `--check` it exits non-zero
//! on a performance regression: sweep parallel speedup < 1.5× at ≥ 4
//! threads (enforced only when the host has ≥ 4 cores — on fewer cores
//! wall-clock speedup is physically impossible and the gate reduces to
//! the bitwise-identity check; the skip is recorded in the JSON as a
//! self-describing `speedup_gate` object), phase-interpreter speedup over
//! the legacy engine < 10×, batched-vs-scalar emulator speedup < 2×,
//! explicit-SIMD speedup over the pinned scalar-sse2 batch bodies < 1.3×
//! (skipped self-describingly when the host dispatches scalar-sse2),
//! packed-vs-unpacked DGEMM speedup < 1.5×, a multi-threaded host kernel
//! that is not bitwise-identical to its serial form at 1/2/8 threads (the
//! MT *speedup* gate follows the `speedup_gate` convention and is skipped
//! on small hosts), sampled-sanitizer overhead above 3× over the scalar
//! baseline at k = 8 (or a sampled run that misses a self-test fixture),
//! batched-monitoring overhead above 8× over the uninstrumented scalar
//! baseline (or batched-monitoring findings that differ from the scalar
//! monitored run, or a fixture missed), a fault-smoke sweep that loses
//! configurations without recording them, fault-smoke output that differs
//! across thread counts, a sanitized DGEMM run that reports findings, a
//! resumed sweep that is not bitwise-identical to the uninterrupted one,
//! a torn journal record that is not detected and dropped, a replayed +
//! recomputed count that does not cover the sweep, or journal overhead
//! above 10% (the median ratio of 21 alternating plain/journaled pairs, so
//! scheduler jitter cannot masquerade as a journal cost or saving).
//!
//! The `serve_throughput` section exercises the `enprop-serve` daemon
//! end-to-end: an in-process server on an ephemeral loopback port, a
//! freshly computed (`no_cache`) sweep compared bitwise against the cold
//! cached response and against a warm cache hit, then the mixed hot/cold
//! load generator (8 concurrent clients). `--check` fails on any
//! non-identical body, a failed request, or a zero cache-hit rate; on a
//! host where loopback sockets cannot bind, the section records a
//! self-describing `socket_gate` skip instead (the same convention as
//! `speedup_gate`). The `serve` subcommand runs the daemon in the
//! foreground (`--port PORT`, default 7271; `--cache DIR` enables the
//! persistent result store; `--threads N` caps sweep workers).
//!
//! The `sanitize` subcommand runs the `enprop-sanitize` checkers
//! (racecheck / memcheck / synccheck / prelaunch) over every shipped
//! DGEMM and FFT configuration, prints one line per launch plus every
//! diagnostic, and exits non-zero if any launch is not clean. `--all`
//! widens the sweep (N = 128 DGEMM tiles, maximal groups, larger FFTs);
//! `--sample K` monitors 1-in-K blocks, selected deterministically from
//! the run seed, for production-scale sweeps; `--json DIR` writes the
//! machine-readable `SANITIZE_report.json`; `--self-test` instead runs
//! the seeded buggy-kernel corpus (always unsampled, whatever `--sample`
//! says) and exits non-zero unless each fixture is caught by exactly its
//! intended checker.
//!
//! The `verify-static` subcommand proves the same safety properties
//! *without executing the swept configurations*: the `enprop-staticcheck`
//! analyzer learns the tiled-DGEMM family from a set of tiny instrumented
//! probe launches (every access fitted to a verified affine form, every
//! coefficient refitted as an exact integer polynomial in the config
//! parameters), then analytically sweeps every fig7/fig8 lattice
//! configuration — race, out-of-bounds, and barrier checks plus
//! closed-form event counts, in under a millisecond per config. It also
//! re-runs the static analyzer over the seeded buggy fixture corpus (each
//! must be flagged by the same checker, naming the same phase and buffer
//! as the dynamic sanitizer) and cross-validates the closed-form counters
//! bitwise against flushed `EmuEvents` on executable validation configs.
//! `--json DIR` writes `VERIFY_static.json`; the exit code is non-zero on
//! any finding, fallback, missed fixture, parity failure, or count
//! mismatch. The matching `static_verify` section of `bench-json` times
//! the full static pipeline (model learning + four-lattice analytic
//! sweep) against the dynamic `sanitize --all` instrumented sweep, both on
//! every host core, and, with `--check`, fails unless the static path is
//! at least 10x faster, the lattices are proven clean, all fixtures are
//! caught with dynamic parity, and every validated count is bitwise-exact.

use enprop_apps::checkpoint::{CrashPlan, SweepCheckpoint};
use enprop_apps::{GpuMatMulApp, RetryPolicy, SweepExecutor, SweepFailure};
use enprop_bench::figures;
use enprop_gpusim::emulator::{EmuDgemm, ForceScalar, GlobalMem, SimdPath, WavePlan};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_power::FaultPlan;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Default transient-failure rate for `--faults` and the smoke sweep.
const DEFAULT_FAULT_RATE: f64 = 0.05;

/// The run seed feeding `SampleSpec` block selection under
/// `sanitize --sample K` — the same 42 every other `repro` subcommand
/// defaults to, so a sampled report is reproducible across runs and
/// machines without any extra flag.
const SANITIZE_SAMPLE_SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut json_dir: Option<String> = None;
    let mut measured: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut faults: Option<f64> = None;
    let mut check = false;
    let mut full = false;
    let mut sanitize_all = false;
    let mut self_test = false;
    let mut sample_k: Option<u64> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut port: u16 = 7271;
    let mut serve_cache: Option<String> = None;
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| usage("missing --json DIR")))
            }
            "--check" => check = true,
            "--checkpoint" => {
                checkpoint_dir =
                    Some(it.next().unwrap_or_else(|| usage("missing --checkpoint DIR")))
            }
            "--resume" => resume = true,
            "--all" => sanitize_all = true,
            "--full" => full = true,
            "--self-test" => self_test = true,
            "--sample" => {
                let k = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage("--sample requires a positive integer K"));
                sample_k = Some(k.max(1));
            }
            "--measured" => {
                let seed = it
                    .peek()
                    .and_then(|s| s.parse::<u64>().ok())
                    .inspect(|_| {
                        it.next();
                    })
                    .unwrap_or(42);
                measured = Some(seed);
            }
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage("--threads requires a positive integer"));
                threads = Some(n.max(1));
            }
            "--faults" => {
                let rate = it
                    .peek()
                    .and_then(|s| s.parse::<f64>().ok())
                    .inspect(|_| {
                        it.next();
                    })
                    .unwrap_or(DEFAULT_FAULT_RATE);
                if !(0.0..=1.0).contains(&rate) {
                    usage("--faults RATE must be within [0, 1]");
                }
                faults = Some(rate);
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|s| s.parse::<u16>().ok())
                    .unwrap_or_else(|| usage("--port requires a port number"));
            }
            "--cache" => {
                serve_cache =
                    Some(it.next().unwrap_or_else(|| usage("missing --cache DIR")))
            }
            "-h" | "--help" => usage(""),
            other => which = other.to_string(),
        }
    }

    if resume && checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint DIR");
    }
    if checkpoint_dir.is_some() && measured.is_none() {
        usage("--checkpoint only applies to the measured sweeps; add --measured [SEED]");
    }
    let checkpoint = checkpoint_dir.as_deref().map(|dir| (dir, resume));

    if which == "bench-json" {
        bench_sweep(
            threads,
            faults.unwrap_or(DEFAULT_FAULT_RATE),
            json_dir.as_deref(),
            check,
            full,
        );
        return;
    }

    if which == "sanitize" {
        run_sanitize(sanitize_all, self_test, sample_k, json_dir.as_deref());
        return;
    }

    if which == "serve" {
        run_serve(port, threads, serve_cache.as_deref());
        return;
    }

    if which == "verify-static" {
        run_verify_static(json_dir.as_deref());
        return;
    }

    let artifacts: Vec<&str> = match which.as_str() {
        "all" => vec![
            "table1", "fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "theory", "headline",
            "ablations", "sensitivity",
        ],
        one @ ("table1" | "fig1" | "fig2" | "fig4" | "fig6" | "fig7" | "fig8" | "theory"
        | "headline" | "ablations" | "sensitivity") => vec![one],
        other => usage(&format!("unknown artifact '{other}'")),
    };

    for name in artifacts {
        println!("==================== {} ====================", title(name));
        let (text, json) = run(name, measured, threads, faults, checkpoint);
        println!("{text}");
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{name}.json");
            let mut f = std::fs::File::create(&path).expect("create json file");
            f.write_all(json.as_bytes()).expect("write json");
            eprintln!("wrote {path}");
        }
    }
}

fn title(name: &str) -> &'static str {
    match name {
        "table1" => "Table I: platform specifications",
        "fig1" => "Fig. 1: strong EP (E_d vs W, 2-D FFT)",
        "fig2" => "Fig. 2: P100 weak EP and Pareto regions (N = 18432)",
        "fig4" => "Fig. 4: CPU power/performance vs utilization (N = 17408)",
        "fig6" => "Fig. 6: dynamic-energy non-additivity in G",
        "fig7" => "Fig. 7: K40c local Pareto fronts (N = 8704, 10240)",
        "fig8" => "Fig. 8: P100 global Pareto fronts (N = 10240, 14336)",
        "theory" => "Sec. III: two-core nonproportionality theorem",
        "headline" => "Headline savings over the workload grid",
        "ablations" => "Ablations: which mechanism produces which artifact",
        "sensitivity" => "Calibration sensitivity: +/-20% parameter sweeps",
        _ => unreachable!(),
    }
}

/// An executor with `seed`, honouring an explicit `--threads` override.
fn executor(seed: u64, threads: Option<usize>) -> SweepExecutor {
    match threads {
        Some(n) => SweepExecutor::new(seed).with_threads(n),
        None => SweepExecutor::new(seed),
    }
}

/// Routes one checkpointed figure generation: reports per-size resume
/// accounting on stderr and turns a journal error into a clean exit.
fn checkpointed<P>(
    name: &str,
    result: Result<(Vec<P>, Vec<figures::CheckpointSummary>), enprop_apps::CheckpointError>,
) -> Vec<P> {
    let (panels, summaries) = result.unwrap_or_else(|e| {
        eprintln!("error: {name} checkpoint: {e}");
        std::process::exit(2);
    });
    for s in &summaries {
        eprintln!(
            "{name} N = {}: {} replayed from journal, {} measured{}",
            s.n,
            s.replayed,
            s.executed,
            if s.torn_tail_bytes > 0 {
                format!(" ({}-byte torn record dropped)", s.torn_tail_bytes)
            } else {
                String::new()
            }
        );
    }
    panels
}

fn run(
    name: &str,
    measured: Option<u64>,
    threads: Option<usize>,
    faults: Option<f64>,
    checkpoint: Option<(&str, bool)>,
) -> (String, String) {
    // Figs. 7/8 optionally run through the full noisy methodology, with
    // `--faults` additionally routing them through the fault-injecting
    // meter and the retrying sweep, and `--checkpoint` journaling each
    // completed configuration so an interrupted run can `--resume`.
    if let Some(seed) = measured {
        match name {
            "fig7" => {
                let exec = executor(seed, threads);
                let panels = match (checkpoint, faults) {
                    (Some((dir, resume)), rate) => checkpointed(
                        name,
                        figures::fig7::generate_measured_robust_checkpointed(
                            &exec,
                            RetryPolicy::default(),
                            rate.map_or_else(FaultPlan::none, FaultPlan::transient),
                            Path::new(dir),
                            resume,
                        ),
                    ),
                    (None, Some(rate)) => figures::fig7::generate_measured_robust_with(
                        &exec,
                        RetryPolicy::default(),
                        FaultPlan::transient(rate),
                    ),
                    (None, None) => figures::fig7::generate_measured_with(&exec),
                };
                let text = panels
                    .iter()
                    .map(|p| {
                        format!(
                            "K40c (measured, seed {seed}), N = {}: global front {} pt(s), \
                             local front {} pt(s), failed configs {}, local best {:?}\n",
                            p.n,
                            p.global.len(),
                            p.local.len(),
                            p.failed_configs,
                            p.local.best_pair()
                        )
                    })
                    .collect();
                return (text, to_json(&panels));
            }
            "fig8" => {
                let exec = executor(seed, threads);
                let panels = match (checkpoint, faults) {
                    (Some((dir, resume)), rate) => checkpointed(
                        name,
                        figures::fig8::generate_measured_robust_checkpointed(
                            &exec,
                            RetryPolicy::default(),
                            rate.map_or_else(FaultPlan::none, FaultPlan::transient),
                            Path::new(dir),
                            resume,
                        ),
                    ),
                    (None, Some(rate)) => figures::fig8::generate_measured_robust_with(
                        &exec,
                        RetryPolicy::default(),
                        FaultPlan::transient(rate),
                    ),
                    (None, None) => figures::fig8::generate_measured_with(&exec),
                };
                let text = panels
                    .iter()
                    .map(|p| {
                        format!(
                            "P100 (measured, seed {seed}), N = {}: global front {} pt(s), \
                             failed configs {}, best {:?}\n",
                            p.n,
                            p.global.len(),
                            p.failed_configs,
                            p.global.best_pair()
                        )
                    })
                    .collect();
                return (text, to_json(&panels));
            }
            _ => {}
        }
    }
    match name {
        "table1" => (figures::table1::render(), to_json(&figures::table1::generate())),
        "fig1" => (figures::fig1::render(), to_json(&figures::fig1::generate())),
        "fig2" => (figures::fig2::render(), to_json(&figures::fig2::generate())),
        "fig4" => (figures::fig4::render(), to_json(&figures::fig4::generate())),
        "fig6" => (figures::fig6::render(), to_json(&figures::fig6::generate())),
        "fig7" => (figures::fig7::render(), to_json(&figures::fig7::generate())),
        "fig8" => (figures::fig8::render(), to_json(&figures::fig8::generate())),
        "theory" => (figures::theory::render(), to_json(&figures::theory::generate())),
        "headline" => {
            let h = figures::headline::generate_with(&executor(0, threads));
            (figures::headline::render(), to_json(&h))
        }
        "ablations" => {
            let a = figures::ablations::generate_with(&executor(0, threads));
            (figures::ablations::render(), to_json(&a))
        }
        "sensitivity" => {
            let s = figures::sensitivity::generate_with(&executor(0, threads));
            (figures::sensitivity::render(), to_json(&s))
        }
        _ => unreachable!(),
    }
}

/// The `sanitize` subcommand: sweep every shipped kernel configuration
/// through the checkers (or, with `self_test`, the seeded buggy-kernel
/// corpus) and exit non-zero unless the outcome is what a healthy tree
/// must produce — zero findings for the shipped kernels, and exactly the
/// intended checker firing for every fixture. With `--sample K` the sweep
/// monitors 1-in-K blocks (deterministically selected from the run seed);
/// the self-test corpus is always run unsampled, so `--sample` must never
/// cost it a catch.
fn run_sanitize(all: bool, self_test: bool, sample_k: Option<u64>, json_dir: Option<&str>) {
    if self_test {
        if sample_k.is_some() {
            eprintln!("self-test: corpus always runs unsampled; --sample ignored");
        }
        let corpus = enprop_sanitize::fixtures::self_test();
        let mut missed = 0usize;
        for (expected, rep) in &corpus {
            let caught =
                !rep.findings.is_empty() && rep.findings.iter().all(|f| f.checker == *expected);
            println!(
                "{}  {} — {} finding(s), {} suppressed (expected {})",
                if caught { "caught" } else { "MISSED" },
                rep.kernel,
                rep.findings.len(),
                rep.suppressed,
                expected.as_str()
            );
            if let Some(first) = rep.findings.first() {
                println!("        {first}");
            }
            if !caught {
                missed += 1;
            }
        }
        println!(
            "self-test: {}/{} fixtures caught by their intended checker",
            corpus.len() - missed,
            corpus.len()
        );
        if missed > 0 {
            std::process::exit(1);
        }
        return;
    }

    let arch = GpuArch::k40c();
    let sample = sample_k
        .map_or_else(enprop_sanitize::SampleSpec::full, |k| {
            enprop_sanitize::SampleSpec::one_in(k, SANITIZE_SAMPLE_SEED)
        });
    let report = enprop_sanitize::sanitize_all_sampled(&arch, all, sample);
    for k in &report.kernels {
        if k.clean() {
            if sample.is_full() {
                println!("clean  {} — {} block(s)", k.kernel, k.blocks);
            } else {
                println!(
                    "clean  {} — {} of {} block(s) monitored",
                    k.kernel, k.monitored_blocks, k.blocks
                );
            }
        } else {
            println!(
                "DIRTY  {} — {} finding(s), {} suppressed",
                k.kernel,
                k.findings.len(),
                k.suppressed
            );
            for f in k.findings.iter().take(8) {
                println!("        {f}");
            }
            if k.findings.len() > 8 {
                println!("        ... and {} more", k.findings.len() - 8);
            }
        }
    }
    let monitored: usize = report.kernels.iter().map(|k| k.monitored_blocks).sum();
    let blocks: usize = report.kernels.iter().map(|k| k.blocks).sum();
    println!(
        "sanitize: {} launch(es) on {}, {} of {} block(s) monitored{}, {} finding(s){}",
        report.kernels.len(),
        report.arch,
        monitored,
        blocks,
        if sample.is_full() {
            String::new()
        } else {
            format!(" (1-in-{} sampling, seed {SANITIZE_SAMPLE_SEED})", sample.rate())
        },
        report.total_findings(),
        if report.clean() { " — all clean" } else { "" }
    );

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/SANITIZE_report.json");
        let mut f = std::fs::File::create(&path).expect("create SANITIZE_report.json");
        f.write_all(to_json(&report).as_bytes()).expect("write SANITIZE_report.json");
        eprintln!("wrote {path}");
    }

    if !report.clean() {
        std::process::exit(1);
    }
}

/// Self-describing state of the parallel-speedup `--check` gate, so a
/// JSON consumer can tell an *earned* pass from a physically-forced skip
/// on a small host instead of inferring it from a missing assertion.
#[derive(serde::Serialize)]
struct SpeedupGate {
    /// The wall-clock speedup threshold was actually asserted.
    enforced: bool,
    /// The gate was skipped (1-core hosts: speedup is physically
    /// impossible, only bitwise identity is checked).
    skipped: bool,
    /// Cores available to the process when the decision was made.
    host_cores: usize,
    /// Why the gate was skipped, `None` when it was enforced.
    reason: Option<String>,
}

#[derive(serde::Serialize)]
struct SweepBench {
    workload: String,
    configs: usize,
    threads: usize,
    serial_secs: f64,
    parallel_secs: f64,
    serial_configs_per_sec: f64,
    parallel_configs_per_sec: f64,
    speedup: f64,
    bitwise_identical: bool,
    /// Whether the `--check` speedup gate applies to this run, and if
    /// not, why.
    speedup_gate: SpeedupGate,
}

#[derive(serde::Serialize)]
struct EmulatorBench {
    workload: String,
    blocks: usize,
    /// SIMD tier the phase interpreter's batched bodies dispatched to.
    simd_dispatch: String,
    legacy_secs: f64,
    phase_secs: f64,
    legacy_blocks_per_sec: f64,
    phase_blocks_per_sec: f64,
    speedup: f64,
    results_identical: bool,
}

#[derive(serde::Serialize)]
struct FaultSmoke {
    workload: String,
    fault_rate: f64,
    retry_attempts: usize,
    /// Configurations attempted.
    configs: usize,
    /// Configurations that produced a point (possibly after retries).
    measured: usize,
    /// Configurations that exhausted every retry.
    failed: usize,
    /// Configurations that needed more than one attempt (either way).
    retried: usize,
    /// The exact exhausted-retry set, for the report.
    failed_configs: Vec<String>,
    /// The full failure records (configuration, attempts spent, final
    /// error) behind `failed_configs`, machine-readable.
    failures: Vec<SweepFailure<TiledDgemmConfig>>,
    /// Whether the 1-, 2-, and 8-thread runs produced identical sweeps
    /// (points *and* failure records).
    identical_across_threads: bool,
}

/// The checkpoint-recovery drill: the fault-smoke sweep journaled, killed
/// mid-journal by deterministic crash injection, and resumed.
#[derive(serde::Serialize)]
struct CheckpointRecovery {
    workload: String,
    /// Configurations in the sweep.
    configs: usize,
    /// Unjournaled single-thread sweep wall-clock (median over the pairs).
    plain_secs: f64,
    /// The same sweep with every completed configuration journaled
    /// (append + fdatasync per record), single-thread (median over the
    /// pairs).
    journaled_secs: f64,
    /// Pairs of one plain and one journaled sweep behind the ratio.
    journal_pairs: usize,
    /// Median over the pairs of `journaled / plain` — the durability tax.
    journal_overhead_ratio: f64,
    /// First quartile of the per-pair ratios.
    journal_ratio_q1: f64,
    /// Third quartile of the per-pair ratios.
    journal_ratio_q3: f64,
    /// Durable records the crashed run had journaled before the kill.
    crash_after_records: usize,
    /// Bytes of the torn final record the injected crash left behind.
    torn_bytes_injected: usize,
    /// Bytes of torn trailing record detected and dropped at resume —
    /// must equal `torn_bytes_injected`.
    torn_bytes_dropped: u64,
    /// Configurations replayed from the journal by the resume.
    replayed: usize,
    /// Configurations the resume had to measure again.
    recomputed: usize,
    /// Resumes at 1, 2, and 8 threads all match the uninterrupted sweep
    /// bitwise (points *and* failure records).
    resumed_identical_across_threads: bool,
}

#[derive(serde::Serialize)]
struct SanitizeOverhead {
    workload: String,
    /// SIMD tier of the batched phase bodies both sides run on.
    simd_dispatch: String,
    /// Uninstrumented serial phase-interpreter run (best of 3).
    uninstrumented_secs: f64,
    /// The same launch under a `LaunchMonitor` (best of 3).
    sanitized_secs: f64,
    /// `sanitized_secs / uninstrumented_secs`.
    overhead_ratio: f64,
    /// Findings from the sanitized run — must be 0 for the shipped kernel.
    findings: usize,
    /// The sanitized run left the output bitwise-identical.
    results_identical: bool,
}

/// The batched SoA fast path vs the scalar per-thread interpreter, both
/// uninstrumented and serial, with results and event-counter totals
/// compared exactly — plus the explicit-SIMD bodies vs the same batch
/// bodies pinned to the scalar-sse2 tier (the PR 7 auto-vectorized
/// baseline).
#[derive(serde::Serialize)]
struct EmulatorBatchBench {
    workload: String,
    blocks: usize,
    /// SIMD tier the production batched bodies dispatched to.
    simd_dispatch: String,
    /// Scalar per-thread phase loop (`ScalarProbe` baseline), best of 3.
    scalar_secs: f64,
    /// Batched SoA phase bodies (the production `NoSink` path, explicit
    /// SIMD at `simd_dispatch`), best of 3.
    batched_secs: f64,
    /// The same batch bodies pinned to the scalar-sse2 tier — PR 7's
    /// auto-vectorized loops — best of 3.
    autovec_batched_secs: f64,
    scalar_blocks_per_sec: f64,
    batched_blocks_per_sec: f64,
    /// `scalar_secs / batched_secs` — gated >= 2x by `--check`.
    speedup: f64,
    /// `autovec_batched_secs / batched_secs` — gated >= 1.3x by `--check`
    /// whenever `simd_dispatch` is not `scalar-sse2` (on a scalar host the
    /// two paths are the same code and the gate is skipped).
    simd_speedup: f64,
    /// The batched output is bitwise-identical to the scalar output.
    results_identical: bool,
    /// The batched event-counter totals equal the scalar totals exactly.
    counters_identical: bool,
    /// The explicit-SIMD output and counters are bitwise-identical to the
    /// pinned scalar-sse2 batch bodies.
    simd_results_identical: bool,
}

/// Packed register-tiled host DGEMM vs the unpacked blocked baseline, and
/// the twiddle-hoisted 2-D FFT, in GFLOPS.
#[derive(serde::Serialize)]
struct HostKernelsBench {
    /// DGEMM problem shape, e.g. `m=k=n=256, bs=64`.
    dgemm_shape: String,
    /// Unpacked three-loop blocked kernel (the old `dgemm_blocked`),
    /// best of 3.
    dgemm_unpacked_secs: f64,
    /// Packed-panel 4x4 register-tiled kernel, best of 3.
    dgemm_packed_secs: f64,
    dgemm_unpacked_gflops: f64,
    dgemm_packed_gflops: f64,
    /// `unpacked_secs / packed_secs` — gated >= 1.5x by `--check`.
    dgemm_speedup: f64,
    /// Packed output matches the unpacked baseline to 1e-8 absolute.
    dgemm_results_match: bool,
    /// 2-D FFT shape, e.g. `512 x 512`.
    fft2d_shape: String,
    /// Serial twiddle-hoisted 2-D FFT, best of 3.
    fft2d_secs: f64,
    /// By the paper's work measure `5 N^2 log2 N`.
    fft2d_gflops: f64,
    /// Instruction-set tier the host DGEMM driver dispatched to
    /// (`avx2` or `scalar`).
    simd_dispatch: String,
}

/// Multi-threaded host kernels (PR 8): the packed DGEMM run over
/// cursor-claimed row slabs and the chunk-claiming 2-D FFT, against their
/// serial forms. Identity is bitwise at every thread count; the wall-clock
/// speedup gate follows the `speedup_gate` convention (skipped
/// self-describingly on hosts that cannot speed up).
#[derive(serde::Serialize)]
struct HostKernelsMt {
    workload: String,
    /// Instruction-set tier the packed DGEMM driver dispatched to.
    simd_dispatch: String,
    /// Worker count of the timed MT runs below (identity is additionally
    /// checked at 1, 2, and 8 threads).
    threads: usize,
    /// Serial packed DGEMM, best of 3.
    dgemm_serial_secs: f64,
    /// `dgemm_blocked_mt` at `threads` workers, best of 3.
    dgemm_mt_secs: f64,
    /// `dgemm_serial_secs / dgemm_mt_secs`.
    dgemm_speedup: f64,
    /// MT output bitwise-equals the serial output at 1, 2, and 8 threads.
    dgemm_identical_across_threads: bool,
    /// Serial 2-D FFT, best of 3.
    fft2d_serial_secs: f64,
    /// `fft2d_parallel` at `threads` workers, best of 3.
    fft2d_mt_secs: f64,
    /// `fft2d_serial_secs / fft2d_mt_secs`.
    fft2d_speedup: f64,
    /// Parallel output bitwise-equals the serial output at 1, 2, and 8
    /// threads.
    fft2d_identical_across_threads: bool,
    /// Whether the `--check` MT speedup gate applies to this run, and if
    /// not, why (1-core hosts cannot speed up; identity is still gated).
    speedup_gate: SpeedupGate,
}

/// 1-in-k sampled sanitizing vs full monitoring vs the uninstrumented
/// scalar interpreter (the path the monitor instruments), plus the
/// self-test corpus run with sampling requested.
#[derive(serde::Serialize)]
struct SanitizeSampled {
    workload: String,
    /// The sampling denominator benchmarked (`--sample K` with K = 8).
    sample_k: u64,
    blocks: usize,
    /// Blocks the sampled run actually monitored.
    monitored_blocks: usize,
    /// Uninstrumented scalar serial run, best of 3 — the baseline, since
    /// monitored blocks run on the scalar path.
    scalar_secs: f64,
    /// Every block monitored, best of 3.
    full_secs: f64,
    /// 1-in-k blocks monitored, best of 3.
    sampled_secs: f64,
    /// `sampled_secs / scalar_secs` — gated <= 3x by `--check`.
    overhead_vs_scalar: f64,
    /// `full_secs / sampled_secs`, what sampling buys (informative).
    speedup_vs_full: f64,
    /// Findings from the sampled run — must be 0 for the shipped kernel.
    findings: usize,
    /// The sampled run left the output bitwise-identical.
    results_identical: bool,
    /// Self-test fixtures caught by their intended checker when sampling
    /// is requested (the corpus always runs unsampled by design) — must
    /// equal `selftest_total`.
    selftest_caught: usize,
    selftest_total: usize,
    /// SIMD tier of the batched bodies the unmonitored blocks run on.
    simd_dispatch: String,
}

/// Full monitoring riding the batched bulk trace path (PR 8 —
/// `MonitorSink::BULK` consumes per-phase access batches) vs per-access
/// scalar-hook monitoring (pinned via `ForceScalar`) vs the
/// uninstrumented scalar interpreter.
#[derive(serde::Serialize)]
struct SanitizeBatched {
    workload: String,
    /// SIMD tier of the batched bodies the monitored run executes.
    simd_dispatch: String,
    /// Uninstrumented scalar-interpreter baseline, best of 3.
    scalar_secs: f64,
    /// Full monitoring through the per-access scalar hooks
    /// (`ForceScalar` pins the interpreter loop), best of 2.
    monitored_scalar_secs: f64,
    /// Full monitoring riding the batched bulk trace path, best of 3.
    monitored_batched_secs: f64,
    /// `monitored_batched_secs / scalar_secs` — gated <= 8x by `--check`.
    overhead_vs_scalar: f64,
    /// `monitored_scalar_secs / monitored_batched_secs` — what the bulk
    /// path buys over per-access monitoring (informative).
    speedup_vs_scalar_monitoring: f64,
    /// Findings from the batched-monitored run — must be 0 for the
    /// shipped kernel.
    findings: usize,
    /// The batched-monitored findings equal the scalar-monitored findings
    /// exactly (count, order, and content).
    findings_identical: bool,
    /// Both monitored runs left the output bitwise-identical to the
    /// uninstrumented run.
    results_identical: bool,
    /// Self-test fixtures still caught with the bulk-capable sink — must
    /// equal `selftest_total`.
    selftest_caught: usize,
    selftest_total: usize,
}

/// The sweep-serving daemon exercised end-to-end in-process: request
/// bytes must be a pure function of the request (cold compute, warm hit,
/// and a cache-bypassing recomputation all bitwise-equal), and the mixed
/// hot/cold concurrent load must produce hits and identical hot bodies.
#[derive(serde::Serialize)]
struct ServeThroughput {
    workload: String,
    /// Concurrent load-generator clients.
    clients: usize,
    /// Total requests the load generator issued.
    requests: usize,
    /// Requests answered 200 with a well-formed body.
    ok: usize,
    /// Wall-clock of the load run, seconds.
    secs: f64,
    requests_per_sec: f64,
    /// `hits / (hits + misses)` over the load run — gated > 0 by `--check`.
    cache_hit_rate: f64,
    /// `X-Cache: hit` responses in the load run.
    hits: usize,
    /// `X-Cache: miss` responses in the load run.
    misses: usize,
    /// Every hot key's responses were byte-identical across all clients.
    hot_bodies_identical: bool,
    /// A `no_cache` recomputation equals the cached body bitwise — the
    /// cache serves *exact* results, not stale approximations.
    cached_equals_fresh: bool,
    /// The warm cache hit replayed the cold body bitwise.
    hit_equals_cold: bool,
    /// Whether the daemon could run at all, and if not, why (hosts
    /// without loopback sockets skip self-describingly).
    socket_gate: SpeedupGate,
}

#[derive(serde::Serialize)]
struct BenchReport {
    /// Host cores available to the process — the physical ceiling on any
    /// wall-clock parallel speedup reported below.
    host_cores: usize,
    sweep: SweepBench,
    emulator: EmulatorBench,
    emulator_batch: EmulatorBatchBench,
    host_kernels: HostKernelsBench,
    host_kernels_mt: HostKernelsMt,
    fault_smoke: FaultSmoke,
    checkpoint_recovery: CheckpointRecovery,
    sanitize_overhead: SanitizeOverhead,
    sanitize_sampled: SanitizeSampled,
    sanitize_batched: SanitizeBatched,
    static_verify: StaticVerifyBench,
    serve_throughput: ServeThroughput,
}

/// The `static_verify` bench section: the static launch-space verifier's
/// full pipeline (probe-based model learning + the analytic sweep of
/// every fig7/fig8 lattice config) timed against the dynamic
/// `sanitize --all` instrumented sweep, plus the fixture corpus and the
/// closed-form counter cross-validation. Both timed sides run on every
/// host core (`host_parallelism()` workers), independent of `--threads`.
#[derive(serde::Serialize)]
struct StaticVerifyBench {
    /// Workload description.
    workload: String,
    /// Tiny instrumented probe launches the family model learned from.
    probe_launches: usize,
    /// Lattice configurations verified analytically across all four
    /// fig7/fig8 sweeps.
    lattice_configs: usize,
    /// Static findings across the lattice sweep (a clean tree has 0).
    findings: usize,
    /// Static fallbacks across the lattice sweep (0: every config was
    /// actually proven, none silently handed back to the dynamic path).
    fallbacks: usize,
    /// Seeded buggy fixtures flagged statically by exactly the intended
    /// checker.
    fixtures_flagged: usize,
    /// Fixtures whose static diagnostics name the same checker / phase /
    /// buffer as the dynamic sanitizer's findings.
    fixtures_parity: usize,
    /// Fixtures in the corpus.
    fixtures_total: usize,
    /// Executable validation configs whose closed-form event counts
    /// equal the flushed `EmuEvents` bitwise.
    counts_exact: usize,
    /// Executable validation configs run.
    counts_validated: usize,
    /// Model learning wall-clock (probe + fit + verify).
    learn_secs: f64,
    /// Analytic four-lattice sweep wall-clock.
    sweep_secs: f64,
    /// Total static wall-clock (`learn_secs + sweep_secs`).
    static_secs: f64,
    /// Dynamic reference: the `sanitize --all` instrumented sweep.
    dynamic_secs: f64,
    /// `dynamic_secs / static_secs`.
    speedup: f64,
    /// The dynamic reference sweep was itself clean (context for the
    /// zero-findings claim, not a gated value — the `sanitize_overhead`
    /// section owns that gate).
    dynamic_clean: bool,
}

/// Times the Fig. 7 measured workload (K40c, N = 8704 and 10240) serially
/// and in parallel, checks bitwise identity; times the emulator old-vs-new
/// engines on tiled DGEMM (N = 128, or 256 with `full`); writes
/// `BENCH_sweep.json`. With `check`, exits non-zero on a perf regression
/// (see module docs).
fn bench_sweep(
    threads: Option<usize>,
    fault_rate: f64,
    json_dir: Option<&str>,
    check: bool,
    full: bool,
) {
    let host_cores = enprop_par::host_parallelism();

    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let sizes = [8704usize, 10240];
    let serial = SweepExecutor::serial(42);
    let parallel = executor(42, threads);

    let start = Instant::now();
    let serial_pts: Vec<_> = sizes.iter().map(|&n| app.sweep_measured(n, &serial)).collect();
    let serial_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel_pts: Vec<_> = sizes.iter().map(|&n| app.sweep_measured(n, &parallel)).collect();
    let parallel_secs = start.elapsed().as_secs_f64();

    let configs: usize = serial_pts.iter().map(|pts| pts.len()).sum();
    let bitwise_identical = serial_pts == parallel_pts;
    let speedup_gate = if parallel.threads() < 4 {
        SpeedupGate {
            enforced: false,
            skipped: true,
            host_cores,
            reason: Some(format!(
                "gate applies only at >= 4 threads; this run used {}",
                parallel.threads()
            )),
        }
    } else if host_cores < 4 {
        SpeedupGate {
            enforced: false,
            skipped: true,
            host_cores,
            reason: Some(format!(
                "host has {host_cores} core(s), so wall-clock parallel speedup is \
                 physically impossible; bitwise identity is still verified"
            )),
        }
    } else {
        SpeedupGate { enforced: true, skipped: false, host_cores, reason: None }
    };
    let sweep = SweepBench {
        workload: "fig7 measured sweep (K40c, N = 8704 + 10240)".into(),
        configs,
        threads: parallel.threads(),
        serial_secs,
        parallel_secs,
        serial_configs_per_sec: configs as f64 / serial_secs,
        parallel_configs_per_sec: configs as f64 / parallel_secs,
        speedup: serial_secs / parallel_secs,
        bitwise_identical,
        speedup_gate,
    };

    println!(
        "sweep: {} configurations, {} thread(s): serial {:.2}s ({:.0} cfg/s), \
         parallel {:.2}s ({:.0} cfg/s), speedup {:.2}x, identical: {}",
        sweep.configs,
        sweep.threads,
        sweep.serial_secs,
        sweep.serial_configs_per_sec,
        sweep.parallel_secs,
        sweep.parallel_configs_per_sec,
        sweep.speedup,
        sweep.bitwise_identical
    );
    assert!(bitwise_identical, "parallel sweep diverged from serial output");

    let emulator = bench_emulator_engines(full);
    println!(
        "emulator: {} ({} blocks, {}): legacy {:.2}s ({:.0} blk/s), \
         phase {:.3}s ({:.0} blk/s), speedup {:.1}x, identical: {}",
        emulator.workload,
        emulator.blocks,
        emulator.simd_dispatch,
        emulator.legacy_secs,
        emulator.legacy_blocks_per_sec,
        emulator.phase_secs,
        emulator.phase_blocks_per_sec,
        emulator.speedup,
        emulator.results_identical
    );
    assert!(emulator.results_identical, "phase engine diverged from legacy engine");

    let emulator_batch = bench_emulator_batch();
    println!(
        "emulator batch: {} ({} blocks, {}): scalar {:.3}s ({:.0} blk/s), \
         autovec {:.3}s, batched {:.3}s ({:.0} blk/s), speedup {:.2}x \
         (simd {:.2}x), identical: {} (counters: {}, simd: {})",
        emulator_batch.workload,
        emulator_batch.blocks,
        emulator_batch.simd_dispatch,
        emulator_batch.scalar_secs,
        emulator_batch.scalar_blocks_per_sec,
        emulator_batch.autovec_batched_secs,
        emulator_batch.batched_secs,
        emulator_batch.batched_blocks_per_sec,
        emulator_batch.speedup,
        emulator_batch.simd_speedup,
        emulator_batch.results_identical,
        emulator_batch.counters_identical,
        emulator_batch.simd_results_identical
    );
    assert!(emulator_batch.results_identical, "batched path diverged from scalar output");
    assert!(emulator_batch.counters_identical, "batched path diverged from scalar counters");
    assert!(
        emulator_batch.simd_results_identical,
        "explicit-SIMD bodies diverged from the pinned scalar-sse2 batch bodies"
    );

    let host_kernels = bench_host_kernels();
    println!(
        "host kernels: dgemm {}: unpacked {:.3}s ({:.2} GFLOPS), \
         packed {:.3}s ({:.2} GFLOPS), speedup {:.2}x, match: {}; \
         fft2d {}: {:.3}s ({:.2} GFLOPS)",
        host_kernels.dgemm_shape,
        host_kernels.dgemm_unpacked_secs,
        host_kernels.dgemm_unpacked_gflops,
        host_kernels.dgemm_packed_secs,
        host_kernels.dgemm_packed_gflops,
        host_kernels.dgemm_speedup,
        host_kernels.dgemm_results_match,
        host_kernels.fft2d_shape,
        host_kernels.fft2d_secs,
        host_kernels.fft2d_gflops
    );
    assert!(host_kernels.dgemm_results_match, "packed DGEMM diverged from the unpacked baseline");

    let host_kernels_mt = bench_host_kernels_mt(host_cores);
    println!(
        "host kernels mt: {} ({}, {} thread(s)): dgemm serial {:.3}s, \
         mt {:.3}s ({:.2}x), identical across 1/2/8: {}; \
         fft2d serial {:.3}s, mt {:.3}s ({:.2}x), identical across 1/2/8: {}",
        host_kernels_mt.workload,
        host_kernels_mt.simd_dispatch,
        host_kernels_mt.threads,
        host_kernels_mt.dgemm_serial_secs,
        host_kernels_mt.dgemm_mt_secs,
        host_kernels_mt.dgemm_speedup,
        host_kernels_mt.dgemm_identical_across_threads,
        host_kernels_mt.fft2d_serial_secs,
        host_kernels_mt.fft2d_mt_secs,
        host_kernels_mt.fft2d_speedup,
        host_kernels_mt.fft2d_identical_across_threads
    );
    assert!(
        host_kernels_mt.dgemm_identical_across_threads,
        "multi-threaded DGEMM diverged from the serial kernel"
    );
    assert!(
        host_kernels_mt.fft2d_identical_across_threads,
        "parallel 2-D FFT diverged from the serial kernel"
    );

    let fault_smoke = bench_fault_smoke(fault_rate);
    println!(
        "fault smoke: {} at {:.0}% transient rate, {} attempt(s): \
         {} measured + {} failed of {} configs ({} retried), \
         identical across 1/2/8 threads: {}",
        fault_smoke.workload,
        fault_smoke.fault_rate * 100.0,
        fault_smoke.retry_attempts,
        fault_smoke.measured,
        fault_smoke.failed,
        fault_smoke.configs,
        fault_smoke.retried,
        fault_smoke.identical_across_threads
    );
    if !fault_smoke.failed_configs.is_empty() {
        println!("fault smoke: exhausted retries on {}", fault_smoke.failed_configs.join(", "));
    }

    let checkpoint_recovery = bench_checkpoint_recovery(fault_rate);
    println!(
        "checkpoint recovery: {}: plain {:.2}s, journaled {:.2}s ({:.3}x overhead, \
         median of {} pairs, quartiles {:.3}-{:.3}x); \
         crashed after {} record(s) + {} torn byte(s), resume dropped {} torn byte(s), \
         replayed {} + recomputed {} of {} configs, \
         resumed identical across 1/2/8 threads: {}",
        checkpoint_recovery.workload,
        checkpoint_recovery.plain_secs,
        checkpoint_recovery.journaled_secs,
        checkpoint_recovery.journal_overhead_ratio,
        checkpoint_recovery.journal_pairs,
        checkpoint_recovery.journal_ratio_q1,
        checkpoint_recovery.journal_ratio_q3,
        checkpoint_recovery.crash_after_records,
        checkpoint_recovery.torn_bytes_injected,
        checkpoint_recovery.torn_bytes_dropped,
        checkpoint_recovery.replayed,
        checkpoint_recovery.recomputed,
        checkpoint_recovery.configs,
        checkpoint_recovery.resumed_identical_across_threads
    );

    let sanitize_overhead = bench_sanitize_overhead();
    println!(
        "sanitize overhead: {}: uninstrumented {:.3}s, sanitized {:.3}s \
         ({:.1}x), {} finding(s), identical: {}",
        sanitize_overhead.workload,
        sanitize_overhead.uninstrumented_secs,
        sanitize_overhead.sanitized_secs,
        sanitize_overhead.overhead_ratio,
        sanitize_overhead.findings,
        sanitize_overhead.results_identical
    );

    let sanitize_sampled = bench_sanitize_sampled();
    println!(
        "sanitize sampled: {} (k = {}): scalar {:.3}s, full {:.3}s, \
         sampled {:.3}s ({:.2}x over scalar, {:.2}x faster than full), \
         {} of {} block(s) monitored, {} finding(s), identical: {}, \
         self-test {}/{}",
        sanitize_sampled.workload,
        sanitize_sampled.sample_k,
        sanitize_sampled.scalar_secs,
        sanitize_sampled.full_secs,
        sanitize_sampled.sampled_secs,
        sanitize_sampled.overhead_vs_scalar,
        sanitize_sampled.speedup_vs_full,
        sanitize_sampled.monitored_blocks,
        sanitize_sampled.blocks,
        sanitize_sampled.findings,
        sanitize_sampled.results_identical,
        sanitize_sampled.selftest_caught,
        sanitize_sampled.selftest_total
    );

    let sanitize_batched = bench_sanitize_batched();
    println!(
        "sanitize batched: {} ({}): scalar {:.3}s, monitored scalar {:.3}s, \
         monitored batched {:.3}s ({:.2}x over scalar, {:.2}x faster than \
         scalar monitoring), {} finding(s), findings identical: {}, \
         results identical: {}, self-test {}/{}",
        sanitize_batched.workload,
        sanitize_batched.simd_dispatch,
        sanitize_batched.scalar_secs,
        sanitize_batched.monitored_scalar_secs,
        sanitize_batched.monitored_batched_secs,
        sanitize_batched.overhead_vs_scalar,
        sanitize_batched.speedup_vs_scalar_monitoring,
        sanitize_batched.findings,
        sanitize_batched.findings_identical,
        sanitize_batched.results_identical,
        sanitize_batched.selftest_caught,
        sanitize_batched.selftest_total
    );
    assert!(
        sanitize_batched.findings_identical,
        "batched-monitoring findings diverged from the scalar monitored run"
    );
    assert!(
        sanitize_batched.results_identical,
        "a monitored run diverged from the uninstrumented scalar output"
    );

    let static_verify = bench_static_verify();
    println!(
        "static verify: {}: dynamic {:.2}s, static {:.3}s (learn {:.3}s + sweep {:.3}s), \
         speedup {:.1}x; {} lattice config(s), {} finding(s), {} fallback(s); \
         fixtures {}/{} caught ({} parity); counts exact {}/{}",
        static_verify.workload,
        static_verify.dynamic_secs,
        static_verify.static_secs,
        static_verify.learn_secs,
        static_verify.sweep_secs,
        static_verify.speedup,
        static_verify.lattice_configs,
        static_verify.findings,
        static_verify.fallbacks,
        static_verify.fixtures_flagged,
        static_verify.fixtures_total,
        static_verify.fixtures_parity,
        static_verify.counts_exact,
        static_verify.counts_validated
    );

    let serve_throughput = bench_serve_throughput(host_cores);
    if serve_throughput.socket_gate.skipped {
        println!(
            "serve throughput: SKIPPED — {}",
            serve_throughput.socket_gate.reason.as_deref().unwrap_or("unknown reason")
        );
    } else {
        println!(
            "serve throughput: {} ({} clients): {}/{} ok, {:.0} req/s, \
             hit rate {:.2} ({} hits / {} misses), hot identical: {}, \
             cached == fresh: {}, hit == cold: {}",
            serve_throughput.workload,
            serve_throughput.clients,
            serve_throughput.ok,
            serve_throughput.requests,
            serve_throughput.requests_per_sec,
            serve_throughput.cache_hit_rate,
            serve_throughput.hits,
            serve_throughput.misses,
            serve_throughput.hot_bodies_identical,
            serve_throughput.cached_equals_fresh,
            serve_throughput.hit_equals_cold
        );
    }

    let report = BenchReport {
        host_cores,
        sweep,
        emulator,
        emulator_batch,
        host_kernels,
        host_kernels_mt,
        fault_smoke,
        checkpoint_recovery,
        sanitize_overhead,
        sanitize_sampled,
        sanitize_batched,
        static_verify,
        serve_throughput,
    };

    let dir = json_dir.unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/BENCH_sweep.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_sweep.json");
    f.write_all(to_json(&report).as_bytes()).expect("write BENCH_sweep.json");
    eprintln!("wrote {path}");

    if check {
        run_perf_gate(&report);
    }
}

/// Old-vs-new engine comparison: tiled DGEMM at BS = 16 — a grid of
/// 256-thread blocks through the retired OS-thread engine and the phase
/// interpreter, same inputs, results compared bitwise. Defaults to
/// N = 128 (an 8 × 8 grid): the OS-thread engine spawns one OS thread per
/// CUDA thread and used to spend ~15 s of the benchmark's wall-clock on
/// the N = 256 workload; `full` restores that historical size. The
/// workload string names the size actually used.
fn bench_emulator_engines(full: bool) -> EmulatorBench {
    let n = if full { 256usize } else { 128 };
    let bs = 16usize;
    let cfg = TiledDgemmConfig { n, bs, g: 1, r: 1 };
    let blocks = (n / bs) * (n / bs);
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    let emu = EmuDgemm::new(cfg);

    let (a, b, c_legacy) =
        (GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b), GlobalMem::zeroed(n * n));
    let start = Instant::now();
    emu.run_legacy(&a, &b, &c_legacy);
    let legacy_secs = start.elapsed().as_secs_f64();

    // The phase run is fast enough to jitter; take the best of three.
    let mut phase_secs = f64::INFINITY;
    let mut c_phase = GlobalMem::zeroed(n * n);
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        emu.with_wave(WavePlan::auto()).run(&a, &b, &c);
        phase_secs = phase_secs.min(start.elapsed().as_secs_f64());
        c_phase = c;
    }

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    EmulatorBench {
        workload: format!(
            "tiled DGEMM (N = {n}, BS = {bs}, G = 1, R = 1{})",
            if full { "" } else { "; default-reduced, --full restores N = 256" }
        ),
        blocks,
        simd_dispatch: SimdPath::detect().as_str().to_string(),
        legacy_secs,
        phase_secs,
        legacy_blocks_per_sec: blocks as f64 / legacy_secs,
        phase_blocks_per_sec: blocks as f64 / phase_secs,
        speedup: legacy_secs / phase_secs,
        results_identical: bits(&c_legacy) == bits(&c_phase),
    }
}

/// Instrumentation cost of the sanitizer on tiled DGEMM at N = 256,
/// BS = 16: the serial phase interpreter with the no-op sink (which
/// monomorphizes away) vs the same launch under a `LaunchMonitor`. Since
/// PR 8 the monitored side rides the batched bulk trace path
/// (`MonitorSink::BULK` consumes per-phase access batches), so this ratio
/// prices full monitoring against the *batched* fast path — the
/// apples-to-apples cost against the scalar interpreter is in the
/// `sanitize_batched` section. Both sides run serially so the ratio
/// isolates the shadow-memory cost rather than parallelism, and both are
/// best-of-3.
fn bench_sanitize_overhead() -> SanitizeOverhead {
    let n = 256usize;
    let bs = 16usize;
    let cfg = TiledDgemmConfig { n, bs, g: 1, r: 1 };
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    let emu = EmuDgemm::new(cfg).with_wave(WavePlan::fixed(1));

    let (a, b) = (GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b));
    let mut plain_secs = f64::INFINITY;
    let mut c_plain = GlobalMem::zeroed(n * n);
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        emu.run(&a, &b, &c);
        plain_secs = plain_secs.min(start.elapsed().as_secs_f64());
        c_plain = c;
    }

    let mut sanitized_secs = f64::INFINITY;
    let mut c_sanitized = GlobalMem::zeroed(n * n);
    let mut findings = 0usize;
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let mut table = enprop_sanitize::BufferTable::new();
        table.register(a.id(), "A", n * n);
        table.register(b.id(), "B", n * n);
        table.register(c.id(), "C", n * n);
        let monitor = enprop_sanitize::LaunchMonitor::new(table, 2 * bs * bs);
        let start = Instant::now();
        emu.run_monitored(
            &a,
            &b,
            &c,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        );
        sanitized_secs = sanitized_secs.min(start.elapsed().as_secs_f64());
        let out = monitor.finish();
        findings = out.findings.len() + out.suppressed;
        c_sanitized = c;
    }

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    SanitizeOverhead {
        workload: "tiled DGEMM (N = 256, BS = 16, G = 1, R = 1), serial waves".into(),
        simd_dispatch: SimdPath::detect().as_str().to_string(),
        uninstrumented_secs: plain_secs,
        sanitized_secs,
        overhead_ratio: sanitized_secs / plain_secs,
        findings,
        results_identical: bits(&c_plain) == bits(&c_sanitized),
    }
}

/// Batched-vs-scalar comparison on the uninstrumented interpreter: tiled
/// DGEMM at N = 256, BS = 16, serial waves. The scalar side runs through
/// `run_unbatched` (a transparent non-inert sink pins the per-thread phase
/// loop); the batched side is the production `run` path with its
/// explicit-SIMD SoA phase bodies; a third side pins the same batch
/// bodies to the scalar-sse2 tier (PR 7's auto-vectorized loops) to price
/// the explicit SIMD alone. Results and event-counter totals must all
/// match exactly.
fn bench_emulator_batch() -> EmulatorBatchBench {
    let n = 256usize;
    let bs = 16usize;
    let cfg = TiledDgemmConfig { n, bs, g: 1, r: 1 };
    let blocks = (n / bs) * (n / bs);
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    let emu = EmuDgemm::new(cfg).with_wave(WavePlan::fixed(1));
    let (a, b) = (GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b));

    let mut scalar_secs = f64::INFINITY;
    let mut c_scalar = GlobalMem::zeroed(n * n);
    let mut ev_scalar = Default::default();
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        let ev = emu.run_unbatched(&a, &b, &c);
        scalar_secs = scalar_secs.min(start.elapsed().as_secs_f64());
        c_scalar = c;
        ev_scalar = ev;
    }

    let mut batched_secs = f64::INFINITY;
    let mut c_batched = GlobalMem::zeroed(n * n);
    let mut ev_batched = Default::default();
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        let ev = emu.run(&a, &b, &c);
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());
        c_batched = c;
        ev_batched = ev;
    }

    let pinned = EmuDgemm::new(cfg).with_wave(WavePlan::fixed(1)).with_simd(SimdPath::ScalarSse2);
    let mut autovec_batched_secs = f64::INFINITY;
    let mut c_pinned = GlobalMem::zeroed(n * n);
    let mut ev_pinned = Default::default();
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        let ev = pinned.run(&a, &b, &c);
        autovec_batched_secs = autovec_batched_secs.min(start.elapsed().as_secs_f64());
        c_pinned = c;
        ev_pinned = ev;
    }

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    EmulatorBatchBench {
        workload: "tiled DGEMM (N = 256, BS = 16, G = 1, R = 1), serial waves".into(),
        blocks,
        simd_dispatch: emu.simd().as_str().to_string(),
        scalar_secs,
        batched_secs,
        autovec_batched_secs,
        scalar_blocks_per_sec: blocks as f64 / scalar_secs,
        batched_blocks_per_sec: blocks as f64 / batched_secs,
        speedup: scalar_secs / batched_secs,
        simd_speedup: autovec_batched_secs / batched_secs,
        results_identical: bits(&c_scalar) == bits(&c_batched),
        counters_identical: ev_scalar == ev_batched,
        simd_results_identical: bits(&c_batched) == bits(&c_pinned) && ev_batched == ev_pinned,
    }
}

/// Host-kernel throughput: the packed 4x4 register-tiled DGEMM against
/// the retained unpacked blocked baseline (same shape and block size,
/// `2 m k n` flops), plus the serial twiddle-hoisted 2-D FFT by the
/// paper's `5 N^2 log2 N` work measure. All timings best-of-3.
fn bench_host_kernels() -> HostKernelsBench {
    use enprop_kernels::{dgemm_blocked, dgemm_blocked_unpacked, fft2d_serial, Complex};

    let (m, k, n, bs) = (256usize, 256usize, 256usize, 64usize);
    let a: Vec<f64> = (0..m * k).map(|i| ((i % 11) as f64 - 5.0) * 0.25).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i % 13) as f64 - 6.0) * 0.125).collect();
    let c0: Vec<f64> = (0..m * n).map(|i| ((i % 7) as f64 - 3.0) * 0.5).collect();
    let flops = 2.0 * m as f64 * k as f64 * n as f64;

    // The two kernels alternate within each round so scheduler noise on a
    // shared host hits both sides alike; best-of-7 per side.
    let mut unpacked_secs = f64::INFINITY;
    let mut packed_secs = f64::INFINITY;
    let mut c_unpacked = Vec::new();
    let mut c_packed = Vec::new();
    for _ in 0..7 {
        let mut c = c0.clone();
        let start = Instant::now();
        dgemm_blocked_unpacked(1.25, &a, &b, 0.75, &mut c, m, k, n, bs);
        unpacked_secs = unpacked_secs.min(start.elapsed().as_secs_f64());
        c_unpacked = c;

        let mut c = c0.clone();
        let start = Instant::now();
        dgemm_blocked(1.25, &a, &b, 0.75, &mut c, m, k, n, bs);
        packed_secs = packed_secs.min(start.elapsed().as_secs_f64());
        c_packed = c;
    }

    let max_abs_diff = c_unpacked
        .iter()
        .zip(&c_packed)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);

    let fft_n = 512usize;
    let signal: Vec<Complex> = (0..fft_n * fft_n)
        .map(|i| Complex::new(((i % 17) as f64 - 8.0) * 0.1, ((i % 19) as f64 - 9.0) * 0.1))
        .collect();
    let mut fft2d_secs = f64::INFINITY;
    for _ in 0..3 {
        let mut x = signal.clone();
        let start = Instant::now();
        fft2d_serial(&mut x, fft_n);
        fft2d_secs = fft2d_secs.min(start.elapsed().as_secs_f64());
    }
    let fft_work = enprop_kernels::fft2d_work(fft_n);

    HostKernelsBench {
        dgemm_shape: format!("m=k=n={m}, bs={bs}, alpha=1.25, beta=0.75"),
        dgemm_unpacked_secs: unpacked_secs,
        dgemm_packed_secs: packed_secs,
        dgemm_unpacked_gflops: flops / unpacked_secs / 1e9,
        dgemm_packed_gflops: flops / packed_secs / 1e9,
        dgemm_speedup: unpacked_secs / packed_secs,
        dgemm_results_match: max_abs_diff < 1e-8,
        fft2d_shape: format!("{fft_n} x {fft_n}"),
        fft2d_secs,
        fft2d_gflops: fft_work / fft2d_secs / 1e9,
        simd_dispatch: enprop_kernels::simd_dispatch().to_string(),
    }
}

/// Multi-threaded host kernels against their serial forms: the packed
/// DGEMM over cursor-claimed row slabs (`dgemm_blocked_mt`) and the
/// chunk-claiming 2-D FFT (`fft2d_parallel`). Output must be
/// bitwise-identical to the serial kernel at 1, 2, and 8 threads — the
/// slab/row decompositions never reorder any element's arithmetic — and
/// the 8-thread wall-clock is reported. The speedup gate follows the
/// `speedup_gate` convention: on hosts under 4 cores wall-clock speedup
/// is physically impossible, so only identity is gated.
fn bench_host_kernels_mt(host_cores: usize) -> HostKernelsMt {
    use enprop_kernels::{dgemm_blocked, dgemm_blocked_mt, fft2d_parallel, fft2d_serial, Complex};

    let threads = 8usize;
    let fbits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let cbits = |s: &[Complex]| {
        s.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect::<Vec<_>>()
    };

    let (m, k, n, bs) = (256usize, 256usize, 256usize, 64usize);
    let a: Vec<f64> = (0..m * k).map(|i| ((i % 11) as f64 - 5.0) * 0.25).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i % 13) as f64 - 6.0) * 0.125).collect();
    let c0: Vec<f64> = (0..m * n).map(|i| ((i % 7) as f64 - 3.0) * 0.5).collect();

    let mut dgemm_serial_secs = f64::INFINITY;
    let mut c_serial = Vec::new();
    for _ in 0..3 {
        let mut c = c0.clone();
        let start = Instant::now();
        dgemm_blocked(1.25, &a, &b, 0.75, &mut c, m, k, n, bs);
        dgemm_serial_secs = dgemm_serial_secs.min(start.elapsed().as_secs_f64());
        c_serial = c;
    }
    let dgemm_reference = fbits(&c_serial);

    let mut dgemm_mt_secs = f64::INFINITY;
    let mut dgemm_identical_across_threads = true;
    for t in [1usize, 2, threads] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut c = c0.clone();
            let start = Instant::now();
            dgemm_blocked_mt(1.25, &a, &b, 0.75, &mut c, m, k, n, bs, t);
            best = best.min(start.elapsed().as_secs_f64());
            dgemm_identical_across_threads &= fbits(&c) == dgemm_reference;
        }
        if t == threads {
            dgemm_mt_secs = best;
        }
    }

    let fft_n = 512usize;
    let signal: Vec<Complex> = (0..fft_n * fft_n)
        .map(|i| Complex::new(((i % 17) as f64 - 8.0) * 0.1, ((i % 19) as f64 - 9.0) * 0.1))
        .collect();
    let mut fft2d_serial_secs = f64::INFINITY;
    let mut fft_serial = Vec::new();
    for _ in 0..3 {
        let mut x = signal.clone();
        let start = Instant::now();
        fft2d_serial(&mut x, fft_n);
        fft2d_serial_secs = fft2d_serial_secs.min(start.elapsed().as_secs_f64());
        fft_serial = x;
    }
    let fft_reference = cbits(&fft_serial);

    let mut fft2d_mt_secs = f64::INFINITY;
    let mut fft2d_identical_across_threads = true;
    for t in [1usize, 2, threads] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut x = signal.clone();
            let start = Instant::now();
            fft2d_parallel(&mut x, fft_n, t);
            best = best.min(start.elapsed().as_secs_f64());
            fft2d_identical_across_threads &= cbits(&x) == fft_reference;
        }
        if t == threads {
            fft2d_mt_secs = best;
        }
    }

    let speedup_gate = if host_cores < 4 {
        SpeedupGate {
            enforced: false,
            skipped: true,
            host_cores,
            reason: Some(format!(
                "host has {host_cores} core(s), so wall-clock MT-kernel speedup is \
                 physically impossible; bitwise identity is still verified"
            )),
        }
    } else {
        SpeedupGate { enforced: true, skipped: false, host_cores, reason: None }
    };

    HostKernelsMt {
        workload: format!("dgemm m=k=n={m}, bs={bs}; fft2d {fft_n} x {fft_n}"),
        simd_dispatch: enprop_kernels::simd_dispatch().to_string(),
        threads,
        dgemm_serial_secs,
        dgemm_mt_secs,
        dgemm_speedup: dgemm_serial_secs / dgemm_mt_secs,
        dgemm_identical_across_threads,
        fft2d_serial_secs,
        fft2d_mt_secs,
        fft2d_speedup: fft2d_serial_secs / fft2d_mt_secs,
        fft2d_identical_across_threads,
        speedup_gate,
    }
}

/// Sampled-sanitizer cost at k = 8 on tiled DGEMM (N = 256, BS = 16,
/// serial waves): the uninstrumented *scalar* interpreter is the baseline
/// (monitored blocks run on the scalar path, so it is the path sampling
/// dilutes), full monitoring and 1-in-8 sampling are measured against it,
/// and the self-test corpus is re-run with sampling requested to prove
/// the corpus's unsampled-by-design rule keeps every fixture caught.
fn bench_sanitize_sampled() -> SanitizeSampled {
    let n = 256usize;
    let bs = 16usize;
    let sample_k = 8u64;
    let cfg = TiledDgemmConfig { n, bs, g: 1, r: 1 };
    let tiles = n / bs;
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    let emu = EmuDgemm::new(cfg).with_wave(WavePlan::fixed(1));
    let (a, b) = (GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b));

    let mut scalar_secs = f64::INFINITY;
    let mut c_scalar = GlobalMem::zeroed(n * n);
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        emu.run_unbatched(&a, &b, &c);
        scalar_secs = scalar_secs.min(start.elapsed().as_secs_f64());
        c_scalar = c;
    }

    // One monitored run under `spec`, best of 3: (secs, monitored blocks,
    // findings incl. suppressed, output).
    let monitored_run = |spec: enprop_sanitize::SampleSpec| {
        let mut best_secs = f64::INFINITY;
        let mut c_out = GlobalMem::zeroed(n * n);
        let mut monitored = 0usize;
        let mut findings = 0usize;
        for _ in 0..3 {
            let c = GlobalMem::zeroed(n * n);
            let mut table = enprop_sanitize::BufferTable::new();
            table.register(a.id(), "A", n * n);
            table.register(b.id(), "B", n * n);
            table.register(c.id(), "C", n * n);
            let monitor = enprop_sanitize::LaunchMonitor::new(table, 2 * bs * bs);
            let mut count = 0usize;
            let start = Instant::now();
            emu.run_monitored_sampled(
                &a,
                &b,
                &c,
                |bx, by| spec.selects(tiles, bx, by),
                |_, _| {
                    count += 1;
                    monitor.begin_block();
                    monitor.sink()
                },
                |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
            );
            best_secs = best_secs.min(start.elapsed().as_secs_f64());
            let out = monitor.finish();
            findings = out.findings.len() + out.suppressed;
            monitored = count;
            c_out = c;
        }
        (best_secs, monitored, findings, c_out)
    };

    let (full_secs, _, _, _) = monitored_run(enprop_sanitize::SampleSpec::full());
    let spec = enprop_sanitize::SampleSpec::one_in(sample_k, SANITIZE_SAMPLE_SEED);
    let (sampled_secs, monitored_blocks, findings, c_sampled) = monitored_run(spec);

    let corpus = enprop_sanitize::fixtures::self_test();
    let selftest_total = corpus.len();
    let selftest_caught = corpus
        .iter()
        .filter(|(expected, rep)| {
            !rep.findings.is_empty() && rep.findings.iter().all(|f| f.checker == *expected)
        })
        .count();

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    SanitizeSampled {
        workload: "tiled DGEMM (N = 256, BS = 16, G = 1, R = 1), serial waves".into(),
        sample_k,
        blocks: tiles * tiles,
        monitored_blocks,
        scalar_secs,
        full_secs,
        sampled_secs,
        overhead_vs_scalar: sampled_secs / scalar_secs,
        speedup_vs_full: full_secs / sampled_secs,
        findings,
        results_identical: bits(&c_scalar) == bits(&c_sampled),
        selftest_caught,
        selftest_total,
        simd_dispatch: SimdPath::detect().as_str().to_string(),
    }
}

/// Full monitoring on the batched bulk trace path vs per-access
/// scalar-hook monitoring vs the uninstrumented scalar interpreter, all
/// on tiled DGEMM (N = 256, BS = 16, serial waves). `ForceScalar` pins
/// the per-access side; findings are compared rendering-exact, outputs
/// bitwise. This is the section behind the `--check` rule that full
/// monitoring must cost no more than 8x the uninstrumented *scalar*
/// interpreter now that shadow updates ride the batched path.
fn bench_sanitize_batched() -> SanitizeBatched {
    let n = 256usize;
    let bs = 16usize;
    let cfg = TiledDgemmConfig { n, bs, g: 1, r: 1 };
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    let emu = EmuDgemm::new(cfg).with_wave(WavePlan::fixed(1));
    let (a, b) = (GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b));

    let mut scalar_secs = f64::INFINITY;
    let mut c_scalar = GlobalMem::zeroed(n * n);
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let start = Instant::now();
        emu.run_unbatched(&a, &b, &c);
        scalar_secs = scalar_secs.min(start.elapsed().as_secs_f64());
        c_scalar = c;
    }

    let render = |findings: &[enprop_sanitize::Finding]| {
        findings.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>()
    };

    // One fully-monitored run per round: bulk rides `monitor.sink()`
    // straight (MonitorSink::BULK consumes phase batches), scalar wraps it
    // in ForceScalar to pin the per-access interpreter loop.
    let mut monitored_batched_secs = f64::INFINITY;
    let mut batched_findings = Vec::new();
    let mut batched_suppressed = 0usize;
    let mut c_batched = GlobalMem::zeroed(n * n);
    for _ in 0..3 {
        let c = GlobalMem::zeroed(n * n);
        let mut table = enprop_sanitize::BufferTable::new();
        table.register(a.id(), "A", n * n);
        table.register(b.id(), "B", n * n);
        table.register(c.id(), "C", n * n);
        let monitor = enprop_sanitize::LaunchMonitor::new(table, 2 * bs * bs);
        let start = Instant::now();
        emu.run_monitored(
            &a,
            &b,
            &c,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        );
        monitored_batched_secs = monitored_batched_secs.min(start.elapsed().as_secs_f64());
        let out = monitor.finish();
        batched_findings = render(&out.findings);
        batched_suppressed = out.suppressed;
        c_batched = c;
    }

    let mut monitored_scalar_secs = f64::INFINITY;
    let mut scalar_findings = Vec::new();
    let mut scalar_suppressed = 0usize;
    let mut c_mon_scalar = GlobalMem::zeroed(n * n);
    for _ in 0..2 {
        let c = GlobalMem::zeroed(n * n);
        let mut table = enprop_sanitize::BufferTable::new();
        table.register(a.id(), "A", n * n);
        table.register(b.id(), "B", n * n);
        table.register(c.id(), "C", n * n);
        let monitor = enprop_sanitize::LaunchMonitor::new(table, 2 * bs * bs);
        let start = Instant::now();
        emu.run_monitored(
            &a,
            &b,
            &c,
            |_, _| {
                monitor.begin_block();
                ForceScalar(monitor.sink())
            },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        );
        monitored_scalar_secs = monitored_scalar_secs.min(start.elapsed().as_secs_f64());
        let out = monitor.finish();
        scalar_findings = render(&out.findings);
        scalar_suppressed = out.suppressed;
        c_mon_scalar = c;
    }

    let corpus = enprop_sanitize::fixtures::self_test();
    let selftest_total = corpus.len();
    let selftest_caught = corpus
        .iter()
        .filter(|(expected, rep)| rep.findings.iter().any(|f| f.checker == *expected))
        .count();

    let bits = |m: &GlobalMem| m.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    SanitizeBatched {
        workload: "tiled DGEMM (N = 256, BS = 16, G = 1, R = 1), serial waves".into(),
        simd_dispatch: SimdPath::detect().as_str().to_string(),
        scalar_secs,
        monitored_scalar_secs,
        monitored_batched_secs,
        overhead_vs_scalar: monitored_batched_secs / scalar_secs,
        speedup_vs_scalar_monitoring: monitored_scalar_secs / monitored_batched_secs,
        findings: batched_findings.len() + batched_suppressed,
        findings_identical: batched_findings == scalar_findings
            && batched_suppressed == scalar_suppressed,
        results_identical: bits(&c_batched) == bits(&c_scalar)
            && bits(&c_mon_scalar) == bits(&c_scalar),
        selftest_caught,
        selftest_total,
    }
}

/// The fault-injection smoke sweep: the Fig. 7 K40c workload at N = 8704
/// (102 configurations) through a meter that drops `fault_rate` of all
/// reads, with the default 3-attempt retry policy, run at 1, 2, and
/// 8 threads. Every configuration must come back as either a point or a
/// recorded failure, and all three runs must agree exactly — points and
/// failure records both.
fn bench_fault_smoke(fault_rate: f64) -> FaultSmoke {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let n = 8704usize;
    let policy = RetryPolicy::default();
    let plan = FaultPlan::transient(fault_rate);

    let sweeps: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let exec = SweepExecutor::new(42).with_threads(t);
            app.sweep_measured_robust(n, &exec, policy, plan)
        })
        .collect();
    let identical_across_threads = sweeps.windows(2).all(|w| w[0] == w[1]);
    let s = &sweeps[0];

    FaultSmoke {
        workload: format!("fig7 measured sweep (K40c, N = {n})"),
        fault_rate,
        retry_attempts: policy.max_attempts,
        configs: s.total,
        measured: s.points.len(),
        failed: s.failures.len(),
        retried: s.retried,
        failed_configs: s
            .failures
            .iter()
            .map(|f| format!("BS={} G={} R={}", f.config.bs, f.config.g, f.config.r))
            .collect(),
        failures: s.failures.clone(),
        identical_across_threads,
    }
}

/// Pairs of plain and journaled sweeps behind the journal-overhead gate:
/// enough that its median ignores a few stalled pairs, at ~0.13 s a pair.
const JOURNAL_PAIRS: usize = 21;

/// Median of a timing sample (sorts in place; the upper median for even
/// counts).
fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Copies a flat journal directory (MANIFEST.json + segment files) so one
/// crashed journal can seed several independent resume attempts.
fn copy_journal(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create journal copy dir");
    for entry in std::fs::read_dir(src).expect("read journal dir") {
        let entry = entry.expect("read journal dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy journal file");
    }
}

/// The checkpoint-recovery drill behind `BENCH_sweep.json`'s
/// `checkpoint_recovery` section: run the fault-smoke sweep (K40c,
/// N = 8704, 102 configurations) plain and journaled — in
/// [`JOURNAL_PAIRS`] alternating pairs at one thread, median of the
/// per-pair ratios — to price the durability tax, then run it with an
/// injected crash
/// that kills the journal writer mid-sweep — tearing the final record —
/// and resume the crashed journal at 1, 2, and 8 threads, requiring every
/// resume to be bitwise-identical to the uninterrupted sweep.
fn bench_checkpoint_recovery(fault_rate: f64) -> CheckpointRecovery {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let n = 8704usize;
    let policy = RetryPolicy::default();
    let plan = FaultPlan::transient(fault_rate);
    let exec1 = SweepExecutor::new(42).with_threads(1);
    let manifest = app.checkpoint_manifest(n, &exec1, &policy, &plan);

    let root = std::env::temp_dir()
        .join(format!("enprop-bench-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Reference sweep and the durability tax, single-threaded, measured
    // the way `benchmark/README.md` compares two commits: pairs of one
    // plain and one journaled sweep, alternating which runs first, and the
    // median of the per-pair ratios with its quartiles. One plain sweep
    // takes ~0.06 s, so a single scheduler stall moves one pair's ratio by
    // more than the whole budget; the median over pairs does not follow it.
    let mut plain_runs = Vec::with_capacity(JOURNAL_PAIRS);
    let mut journaled_runs = Vec::with_capacity(JOURNAL_PAIRS);
    let mut ratios = Vec::with_capacity(JOURNAL_PAIRS);
    let mut plain = None;
    for pair in 0..JOURNAL_PAIRS {
        let run_plain = || {
            let start = Instant::now();
            let sweep = app.sweep_measured_robust(n, &exec1, policy, plan);
            (start.elapsed().as_secs_f64(), sweep)
        };
        let run_journaled = || {
            let journaled_dir = root.join(format!("journaled-{pair}"));
            let checkpoint = SweepCheckpoint::fresh(&journaled_dir, manifest.clone())
                .expect("fresh journal for the overhead run");
            let start = Instant::now();
            let journaled = app
                .sweep_measured_robust_resumable(n, &exec1, policy, plan, checkpoint)
                .expect("journaled sweep");
            (start.elapsed().as_secs_f64(), journaled)
        };
        let ((plain_secs, sweep), (journaled_secs, journaled)) = if pair % 2 == 0 {
            let p = run_plain();
            (p, run_journaled())
        } else {
            let j = run_journaled();
            (run_plain(), j)
        };
        assert!(journaled.sweep == sweep, "journaled sweep diverged from the plain sweep");
        plain_runs.push(plain_secs);
        journaled_runs.push(journaled_secs);
        ratios.push(journaled_secs / plain_secs);
        plain = Some(sweep);
    }
    let plain = plain.expect("plain sweep ran");
    let configs = plain.total;
    let plain_secs = median(&mut plain_runs);
    let journaled_secs = median(&mut journaled_runs);
    let journal_overhead_ratio = median(&mut ratios);
    // `median` sorted the ratios.
    let (journal_ratio_q1, journal_ratio_q3) =
        (ratios[JOURNAL_PAIRS / 4], ratios[3 * JOURNAL_PAIRS / 4]);

    // Crash mid-journal: kill the writer after about half the records are
    // durable, with a 9-byte torn frame dangling past the last good one.
    let crash_after = configs / 2;
    let torn_bytes = 9usize;
    let crashed_dir = root.join("crashed");
    let mut checkpoint = SweepCheckpoint::fresh(&crashed_dir, manifest.clone())
        .expect("fresh journal for the crash run");
    checkpoint.arm_crash(CrashPlan::kill_after(crash_after).with_torn_bytes(torn_bytes));
    let crashed = app
        .sweep_measured_robust_resumable(n, &exec1, policy, plan, checkpoint)
        .expect("crash-armed sweep");
    assert!(crashed.crashed, "the armed crash plan never fired");

    // Resume the same crashed journal at 1, 2, and 8 threads — each from
    // its own copy, since a successful resume completes the journal.
    let mut replayed = 0usize;
    let mut recomputed = 0usize;
    let mut torn_bytes_dropped = 0u64;
    let mut resumed_identical_across_threads = true;
    for threads in [1usize, 2, 8] {
        let dir = root.join(format!("resume-t{threads}"));
        copy_journal(&crashed_dir, &dir);
        let exec = SweepExecutor::new(42).with_threads(threads);
        let checkpoint = SweepCheckpoint::resume(&dir, &manifest).expect("resume journal");
        let resumed = app
            .sweep_measured_robust_resumable(n, &exec, policy, plan, checkpoint)
            .expect("resumed sweep");
        resumed_identical_across_threads &= resumed.sweep == plain;
        replayed = resumed.replayed;
        recomputed = resumed.executed;
        torn_bytes_dropped = resumed.torn_tail_bytes;
    }

    let _ = std::fs::remove_dir_all(&root);
    CheckpointRecovery {
        workload: format!("fig7 measured sweep (K40c, N = {n}), fault rate {fault_rate}"),
        configs,
        plain_secs,
        journaled_secs,
        journal_pairs: JOURNAL_PAIRS,
        journal_overhead_ratio,
        journal_ratio_q1,
        journal_ratio_q3,
        crash_after_records: crash_after,
        torn_bytes_injected: torn_bytes,
        torn_bytes_dropped,
        replayed,
        recomputed,
        resumed_identical_across_threads,
    }
}

/// The `--check` perf gate. Exits non-zero on regression so a scheduler
/// regression like PR 2's 0.98× sweep "speedup" cannot land silently.
fn run_perf_gate(report: &BenchReport) {
    let mut failures = Vec::new();

    if report.emulator.speedup < 10.0 {
        failures.push(format!(
            "emulator phase-interpreter speedup {:.1}x over the legacy engine is below 10x",
            report.emulator.speedup
        ));
    }

    let batch = &report.emulator_batch;
    if batch.speedup < 2.0 {
        failures.push(format!(
            "batched emulator speedup {:.2}x over the scalar interpreter is below 2x",
            batch.speedup
        ));
    }
    if !batch.results_identical || !batch.counters_identical {
        failures.push(
            "batched emulator path diverged from the scalar interpreter \
             (results or counters)"
                .to_string(),
        );
    }
    if batch.simd_dispatch == "scalar-sse2" {
        eprintln!(
            "check: skipping explicit-SIMD speedup gate — host dispatches scalar-sse2, \
             so the explicit-SIMD bodies and the pinned baseline are the same code"
        );
    } else if batch.simd_speedup < 1.3 {
        failures.push(format!(
            "explicit-SIMD ({}) speedup {:.2}x over the pinned scalar-sse2 batch bodies \
             is below 1.3x",
            batch.simd_dispatch, batch.simd_speedup
        ));
    }
    if !batch.simd_results_identical {
        failures.push(
            "explicit-SIMD batch bodies diverged from the pinned scalar-sse2 bodies \
             (results or counters)"
                .to_string(),
        );
    }

    let host = &report.host_kernels;
    if host.dgemm_speedup < 1.5 {
        failures.push(format!(
            "packed DGEMM speedup {:.2}x over the unpacked blocked baseline is below 1.5x",
            host.dgemm_speedup
        ));
    }
    if !host.dgemm_results_match {
        failures.push("packed DGEMM output diverged from the unpacked baseline".to_string());
    }

    let mt = &report.host_kernels_mt;
    if !mt.dgemm_identical_across_threads {
        failures.push(
            "multi-threaded DGEMM is not bitwise-identical to the serial kernel \
             at 1/2/8 threads"
                .to_string(),
        );
    }
    if !mt.fft2d_identical_across_threads {
        failures.push(
            "parallel 2-D FFT is not bitwise-identical to the serial kernel \
             at 1/2/8 threads"
                .to_string(),
        );
    }
    if mt.speedup_gate.enforced {
        if mt.dgemm_speedup < 1.3 {
            failures.push(format!(
                "multi-threaded DGEMM speedup {:.2}x at {} threads is below 1.3x \
                 (host has {} cores)",
                mt.dgemm_speedup, mt.threads, mt.speedup_gate.host_cores
            ));
        }
        if mt.fft2d_speedup < 1.3 {
            failures.push(format!(
                "parallel 2-D FFT speedup {:.2}x at {} threads is below 1.3x \
                 (host has {} cores)",
                mt.fft2d_speedup, mt.threads, mt.speedup_gate.host_cores
            ));
        }
    } else if let Some(reason) = &mt.speedup_gate.reason {
        eprintln!("check: skipping MT host-kernel speedup gate — {reason}");
    }

    let gate = &report.sweep.speedup_gate;
    if gate.enforced {
        if report.sweep.speedup < 1.5 {
            failures.push(format!(
                "fig7 measured-sweep parallel speedup {:.2}x at {} threads is below 1.5x \
                 (host has {} cores)",
                report.sweep.speedup, report.sweep.threads, gate.host_cores
            ));
        }
    } else if let Some(reason) = &gate.reason {
        eprintln!("check: skipping sweep-speedup gate — {reason}");
    }

    let smoke = &report.fault_smoke;
    if smoke.measured + smoke.failed != smoke.configs {
        failures.push(format!(
            "fault smoke lost configurations: {} measured + {} failed != {} attempted",
            smoke.measured, smoke.failed, smoke.configs
        ));
    }
    if !smoke.identical_across_threads {
        failures.push(
            "fault smoke output differs across 1/2/8 threads — retry seed-splitting \
             is no longer deterministic"
                .to_string(),
        );
    }

    let recovery = &report.checkpoint_recovery;
    if !recovery.resumed_identical_across_threads {
        failures.push(
            "checkpoint recovery: a resumed sweep diverged from the uninterrupted run"
                .to_string(),
        );
    }
    if recovery.replayed + recovery.recomputed != recovery.configs {
        failures.push(format!(
            "checkpoint recovery lost configurations: {} replayed + {} recomputed != {}",
            recovery.replayed, recovery.recomputed, recovery.configs
        ));
    }
    if recovery.torn_bytes_dropped != recovery.torn_bytes_injected as u64 {
        failures.push(format!(
            "checkpoint recovery: crash left {} torn byte(s) but resume dropped {}",
            recovery.torn_bytes_injected, recovery.torn_bytes_dropped
        ));
    }
    if recovery.journal_overhead_ratio > 1.10 {
        failures.push(format!(
            "checkpoint journal overhead {:.3}x (median of {} pairs) exceeds the 1.10x budget",
            recovery.journal_overhead_ratio, recovery.journal_pairs
        ));
    }

    let sanitize = &report.sanitize_overhead;
    if sanitize.findings != 0 {
        failures.push(format!(
            "sanitized DGEMM reported {} finding(s) on the shipped kernel",
            sanitize.findings
        ));
    }
    if !sanitize.results_identical {
        failures
            .push("sanitized DGEMM output diverged from the uninstrumented run".to_string());
    }

    let sampled = &report.sanitize_sampled;
    if sampled.overhead_vs_scalar > 3.0 {
        failures.push(format!(
            "sampled-sanitizer overhead {:.2}x at k = {} exceeds the 3x budget",
            sampled.overhead_vs_scalar, sampled.sample_k
        ));
    }
    if sampled.findings != 0 {
        failures.push(format!(
            "sampled sanitizer reported {} finding(s) on the shipped kernel",
            sampled.findings
        ));
    }
    if !sampled.results_identical {
        failures.push("sampled-sanitizer output diverged from the scalar run".to_string());
    }
    if sampled.selftest_caught != sampled.selftest_total {
        failures.push(format!(
            "sampling cost the self-test corpus {} fixture(s): {}/{} caught",
            sampled.selftest_total - sampled.selftest_caught,
            sampled.selftest_caught,
            sampled.selftest_total
        ));
    }

    let batched_mon = &report.sanitize_batched;
    if batched_mon.overhead_vs_scalar > 8.0 {
        failures.push(format!(
            "batched-monitoring overhead {:.2}x over the uninstrumented scalar \
             interpreter exceeds the 8x budget",
            batched_mon.overhead_vs_scalar
        ));
    }
    if batched_mon.findings != 0 {
        failures.push(format!(
            "batched monitoring reported {} finding(s) on the shipped kernel",
            batched_mon.findings
        ));
    }
    if !batched_mon.findings_identical {
        failures.push(
            "batched-monitoring findings differ from the scalar monitored run".to_string(),
        );
    }
    if !batched_mon.results_identical {
        failures.push(
            "a monitored run diverged from the uninstrumented scalar output".to_string(),
        );
    }
    if batched_mon.selftest_caught != batched_mon.selftest_total {
        failures.push(format!(
            "the bulk-capable sink cost the self-test corpus {} fixture(s): {}/{} caught",
            batched_mon.selftest_total - batched_mon.selftest_caught,
            batched_mon.selftest_caught,
            batched_mon.selftest_total
        ));
    }

    let stat = &report.static_verify;
    if stat.findings != 0 || stat.fallbacks != 0 {
        failures.push(format!(
            "static verifier did not prove the sweep lattice clean: {} finding(s), \
             {} fallback(s) across {} config(s)",
            stat.findings, stat.fallbacks, stat.lattice_configs
        ));
    }
    if stat.fixtures_flagged != stat.fixtures_total || stat.fixtures_parity != stat.fixtures_total
    {
        failures.push(format!(
            "static verifier missed seeded fixtures: {}/{} flagged, {}/{} with dynamic \
             parity",
            stat.fixtures_flagged, stat.fixtures_total, stat.fixtures_parity,
            stat.fixtures_total
        ));
    }
    if stat.counts_exact != stat.counts_validated {
        failures.push(format!(
            "closed-form event counts diverged from flushed counters on {} of {} \
             validation config(s)",
            stat.counts_validated - stat.counts_exact,
            stat.counts_validated
        ));
    }
    if stat.static_secs * 10.0 > stat.dynamic_secs {
        failures.push(format!(
            "static lattice verification ({:.3}s) is not >= 10x faster than the dynamic \
             sanitize --all sweep ({:.2}s): speedup {:.1}x",
            stat.static_secs, stat.dynamic_secs, stat.speedup
        ));
    }

    let serve = &report.serve_throughput;
    if serve.socket_gate.enforced {
        if !serve.cached_equals_fresh {
            failures.push(
                "serve: a cache-bypassing recomputation is not bitwise-identical to \
                 the cached body"
                    .to_string(),
            );
        }
        if !serve.hit_equals_cold {
            failures.push(
                "serve: a warm cache hit did not replay the cold body bitwise".to_string(),
            );
        }
        if !serve.hot_bodies_identical {
            failures.push(
                "serve: concurrent clients saw different bytes for the same hot key"
                    .to_string(),
            );
        }
        if serve.cache_hit_rate <= 0.0 {
            failures.push(format!(
                "serve: cache hit rate {:.2} under the hot/cold load — deduplication \
                 is not happening",
                serve.cache_hit_rate
            ));
        }
        if serve.ok != serve.requests {
            failures.push(format!(
                "serve: only {}/{} load-generator requests succeeded",
                serve.ok, serve.requests
            ));
        }
    } else if let Some(reason) = &serve.socket_gate.reason {
        eprintln!("check: skipping serve-throughput gate — {reason}");
    }

    if failures.is_empty() {
        eprintln!("check: all performance gates passed");
    } else {
        for f in &failures {
            eprintln!("check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// The `serve_throughput` bench section: an in-process daemon on an
/// ephemeral loopback port, the three-way bitwise-identity check (cold
/// miss == warm hit == `no_cache` recomputation), then the mixed hot/cold
/// concurrent load. Hosts where loopback cannot bind record a
/// self-describing skip instead of failing.
fn bench_serve_throughput(host_cores: usize) -> ServeThroughput {
    use enprop_serve::{LoadOptions, ServeConfig, Server, SweepRequest};

    let options = LoadOptions {
        clients: 8,
        requests_per_client: 6,
        hot_keys: 3,
        seed_base: 42,
        arch: "k40c".to_string(),
        n: 512,
        products: 4,
        chunk: 16,
    };
    let workload = format!(
        "gpu-matmul sweep service (k40c, N = {}, {} products, chunk {})",
        options.n, options.products, options.chunk
    );
    let skipped = |reason: String| ServeThroughput {
        workload: workload.clone(),
        clients: options.clients,
        requests: 0,
        ok: 0,
        secs: 0.0,
        requests_per_sec: 0.0,
        cache_hit_rate: 0.0,
        hits: 0,
        misses: 0,
        hot_bodies_identical: false,
        cached_equals_fresh: false,
        hit_equals_cold: false,
        socket_gate: SpeedupGate {
            enforced: false,
            skipped: true,
            host_cores,
            reason: Some(reason),
        },
    };

    let config = ServeConfig { threads: 0, ..ServeConfig::default() };
    let server = match Server::start(config, "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            return skipped(format!(
                "cannot bind a loopback socket ({e}); the serve section needs local \
                 TCP and is skipped, not failed, where the host forbids it"
            ))
        }
    };

    // Three-way bitwise identity on one hot key before the load runs:
    // cold compute (fills the cache), warm hit (replays it), and a
    // `no_cache` recomputation (proves the cached bytes are exact).
    let key_request = |no_cache: bool| SweepRequest {
        arch: options.arch.clone(),
        n: options.n,
        products: options.products,
        seed: options.seed_base,
        chunk: options.chunk,
        no_cache,
    };
    let post = |request: &SweepRequest| {
        enprop_serve::http::http_request(
            server.addr(),
            "POST",
            "/sweep",
            request.to_json().as_bytes(),
        )
    };
    let cold = match post(&key_request(false)) {
        Ok(r) if r.status == 200 => r.body,
        Ok(r) => {
            server.shutdown();
            return skipped(format!("cold sweep request answered status {}", r.status));
        }
        Err(e) => {
            server.shutdown();
            return skipped(format!("cold sweep request failed: {e}"));
        }
    };
    let hit = post(&key_request(false)).map(|r| r.body).unwrap_or_default();
    let fresh = post(&key_request(true)).map(|r| r.body).unwrap_or_default();
    let hit_equals_cold = !cold.is_empty() && hit == cold;
    let cached_equals_fresh = !cold.is_empty() && fresh == cold;

    let load = enprop_serve::run_load(server.addr(), &options);
    for error in &load.errors {
        eprintln!("serve load: {error}");
    }
    let report = ServeThroughput {
        workload,
        clients: options.clients,
        requests: load.requests,
        ok: load.ok,
        secs: load.secs,
        requests_per_sec: load.requests_per_sec,
        cache_hit_rate: load.cache_hit_rate,
        hits: load.hits,
        misses: load.misses,
        hot_bodies_identical: load.hot_identical,
        cached_equals_fresh,
        hit_equals_cold,
        socket_gate: SpeedupGate {
            enforced: true,
            skipped: false,
            host_cores,
            reason: None,
        },
    };
    server.shutdown();
    report
}

/// Common core of the `static_verify` section and the `verify-static`
/// subcommand: learn the DGEMM family model, analytically sweep the four
/// fig7/fig8 lattices, re-verify the fixture corpus, and cross-validate
/// the closed-form counters. The dynamic `sanitize --all` reference
/// sweep is timed first so the speedup compares full coverage against
/// full coverage.
fn bench_static_verify() -> StaticVerifyBench {
    use enprop_staticcheck::dgemm::{validate_counts, validation_set};
    use enprop_staticcheck::fixtures::analyze_fixtures;
    use enprop_staticcheck::{verify_fig_lattices, DgemmStaticModel};

    let start = Instant::now();
    let dynamic_report = enprop_sanitize::sanitize_all(&GpuArch::k40c(), true);
    let dynamic_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let model = DgemmStaticModel::learn();
    let learn_secs = start.elapsed().as_secs_f64();

    let (probe_launches, lattice_configs, findings, fallbacks, sweep_secs) = match &model {
        Ok(m) => {
            let start = Instant::now();
            let sweeps = verify_fig_lattices(m);
            let sweep_secs = start.elapsed().as_secs_f64();
            (
                m.probe_configs.len(),
                sweeps.iter().map(|s| s.configs).sum(),
                sweeps.iter().map(|s| s.findings).sum(),
                sweeps.iter().map(|s| s.fallbacks).sum(),
                sweep_secs,
            )
        }
        // A model that cannot be learned is a fallback of the whole
        // lattice: the gate fails on `fallbacks != 0`.
        Err(_) => (0, 0, 0, 1, 0.0),
    };

    let outcomes = analyze_fixtures();
    let fixtures_flagged = outcomes.iter().filter(|o| o.caught).count();
    let fixtures_parity = outcomes.iter().filter(|o| o.parity).count();

    let vals = validation_set();
    let counts_exact = match &model {
        Ok(m) => vals
            .iter()
            .filter(|cfg| {
                let (stat, dynamic) = validate_counts(m, cfg);
                stat == dynamic
            })
            .count(),
        Err(_) => 0,
    };

    let static_secs = learn_secs + sweep_secs;
    StaticVerifyBench {
        workload: "fig7/fig8 lattice race/OOB/barrier safety + event counts".into(),
        probe_launches,
        lattice_configs,
        findings,
        fallbacks,
        fixtures_flagged,
        fixtures_parity,
        fixtures_total: outcomes.len(),
        counts_exact,
        counts_validated: vals.len(),
        learn_secs,
        sweep_secs,
        static_secs,
        dynamic_secs,
        speedup: dynamic_secs / static_secs,
        dynamic_clean: dynamic_report.clean(),
    }
}

/// The `verify-static` subcommand: proves race / out-of-bounds / barrier
/// safety and closed-form event counts for every fig7/fig8 lattice
/// configuration analytically, re-verifies the seeded buggy fixture
/// corpus statically (with dynamic-diagnostic parity), and exits
/// non-zero on any finding, fallback, missed fixture, or count mismatch.
fn run_verify_static(json_dir: Option<&str>) {
    use enprop_staticcheck::dgemm::{validate_counts, validation_set};
    use enprop_staticcheck::fixtures::analyze_fixtures;
    use enprop_staticcheck::{verify_fig_lattices, DgemmStaticModel};

    let mut failed = false;

    let start = Instant::now();
    let model = match DgemmStaticModel::learn() {
        Ok(m) => m,
        Err(fb) => {
            eprintln!("verify-static: cannot learn the DGEMM family model: {fb}");
            std::process::exit(1);
        }
    };
    let learn_secs = start.elapsed().as_secs_f64();
    println!(
        "verify-static: DGEMM family model learned and verified from {} tiny probe \
         launches in {:.3}s",
        model.probe_configs.len(),
        learn_secs
    );

    let start = Instant::now();
    let sweeps = verify_fig_lattices(&model);
    let sweep_secs = start.elapsed().as_secs_f64();
    for s in &sweeps {
        let clean = s.findings == 0 && s.fallbacks == 0;
        println!(
            "verify-static: {}: {} configuration(s) — {} finding(s), {} fallback(s){}",
            s.label,
            s.configs,
            s.findings,
            s.fallbacks,
            if clean { "; proven race/OOB/barrier-clean" } else { "" }
        );
        for r in &s.dirty {
            for f in &r.findings {
                println!("  {}: {f}", r.label);
            }
            for fb in &r.fallbacks {
                println!("  {}: {fb}", r.label);
            }
        }
        failed |= !clean;
    }
    let total: usize = sweeps.iter().map(|s| s.configs).sum();
    println!(
        "verify-static: analytic sweep of {total} lattice configuration(s) in {sweep_secs:.3}s"
    );

    let outcomes = analyze_fixtures();
    for o in &outcomes {
        let ok = o.caught && o.parity;
        println!(
            "verify-static: {} {} — {} static finding(s) (expected {}), dynamic parity: {}",
            if ok { "caught" } else { "MISSED" },
            o.label,
            o.report.findings.len(),
            o.expected.as_str(),
            o.parity
        );
        if let Some(f) = o.report.findings.first() {
            println!("  {f}");
        }
        for fb in &o.report.fallbacks {
            println!("  {fb}");
        }
        failed |= !ok;
    }

    let vals = validation_set();
    let mut counts_exact = 0usize;
    for cfg in &vals {
        let (stat, dynamic) = validate_counts(&model, cfg);
        if stat == dynamic {
            counts_exact += 1;
        } else {
            println!(
                "verify-static: COUNT MISMATCH at {cfg}: static {stat:?} != flushed {dynamic:?}"
            );
            failed = true;
        }
    }
    println!(
        "verify-static: closed-form event counts bitwise-exact on {counts_exact}/{} \
         executed validation configuration(s)",
        vals.len()
    );

    if let Some(dir) = json_dir {
        #[derive(serde::Serialize)]
        struct LatticeJson {
            label: String,
            configs: usize,
            findings: usize,
            fallbacks: usize,
        }
        #[derive(serde::Serialize)]
        struct FixtureJson {
            label: String,
            expected: &'static str,
            findings: usize,
            caught: bool,
            parity: bool,
        }
        #[derive(serde::Serialize)]
        struct VerifyStaticJson {
            probe_launches: usize,
            learn_secs: f64,
            sweep_secs: f64,
            lattices: Vec<LatticeJson>,
            fixtures: Vec<FixtureJson>,
            counts_exact: usize,
            counts_validated: usize,
            clean: bool,
        }
        let artifact = VerifyStaticJson {
            probe_launches: model.probe_configs.len(),
            learn_secs,
            sweep_secs,
            lattices: sweeps
                .iter()
                .map(|s| LatticeJson {
                    label: s.label.clone(),
                    configs: s.configs,
                    findings: s.findings,
                    fallbacks: s.fallbacks,
                })
                .collect(),
            fixtures: outcomes
                .iter()
                .map(|o| FixtureJson {
                    label: o.label.clone(),
                    expected: o.expected.as_str(),
                    findings: o.report.findings.len(),
                    caught: o.caught,
                    parity: o.parity,
                })
                .collect(),
            counts_exact,
            counts_validated: vals.len(),
            clean: !failed,
        };
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/VERIFY_static.json");
        let mut f = std::fs::File::create(&path).expect("create VERIFY_static.json");
        f.write_all(to_json(&artifact).as_bytes()).expect("write VERIFY_static.json");
        eprintln!("wrote {path}");
    }

    if failed {
        eprintln!("verify-static: FAILED");
        std::process::exit(1);
    }
    println!(
        "verify-static: all {total} lattice configuration(s) proven clean, {}/{} fixtures \
         caught with parity, counts exact",
        outcomes.iter().filter(|o| o.caught && o.parity).count(),
        outcomes.len()
    );
}

/// The `serve` subcommand: runs the sweep daemon in the foreground until
/// killed.
fn run_serve(port: u16, threads: Option<usize>, cache_dir: Option<&str>) {
    use enprop_serve::{ServeConfig, Server};

    let config = ServeConfig {
        threads: threads.unwrap_or(0),
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let addr = format!("127.0.0.1:{port}");
    let server = match Server::start(config, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let report = server.cache_load_report();
    println!("serve: listening on http://{}", server.addr());
    if report.replayed > 0 || report.torn_tail_bytes > 0 {
        println!(
            "serve: cache store replayed {} entr{} ({} torn-tail byte(s) discarded)",
            report.replayed,
            if report.replayed == 1 { "y" } else { "ies" },
            report.torn_tail_bytes
        );
    }
    println!("serve: POST /sweep, GET /stats, GET /healthz (Ctrl-C to stop)");
    server.serve_forever();
}

fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serialize artifact")
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [all|table1|fig1|fig2|fig4|fig6|fig7|fig8|theory|headline|bench-json|\
         sanitize|verify-static|serve] [--json DIR] [--measured [SEED]] [--threads N] [--faults [RATE]] \
         [--check] [--checkpoint DIR] [--resume] [--all] [--full] [--self-test] [--sample K] \
         [--port PORT] [--cache DIR]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
