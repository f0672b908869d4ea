//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|fig1|fig2|fig4|fig6|fig7|fig8|theory|headline|bench-json|sanitize|
//!        verify-static|serve]
//!       [--json DIR] [--measured [SEED]] [--threads N] [--faults [RATE]] [--check]
//!       [--checkpoint DIR] [--resume] [--all] [--self-test] [--port PORT] [--cache DIR]
//! ```
//!
//! At most one subcommand or artifact may be named (default `all`); a
//! second name, or an option this list does not hold, is a usage error
//! (exit 2).
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
//! The `serve` subcommand runs the sweep daemon in the foreground
//! (`--port PORT`, default 7271; `--cache DIR` enables the persistent
//! result store; `--threads N` caps sweep workers).
//!
//! The `sanitize` subcommand runs the `enprop-sanitize` checkers
//! (racecheck / memcheck / synccheck / prelaunch) over every shipped
//! DGEMM and FFT configuration, prints one line per launch plus every
//! diagnostic, and exits non-zero if any launch is not clean. `--all`
//! widens the sweep (N = 128 DGEMM tiles, maximal groups, larger FFTs);
//! every block of every launch runs under the monitor. `--json DIR`
//! writes the machine-readable `SANITIZE_report.json`; `--self-test`
//! instead runs the seeded buggy-kernel corpus and exits non-zero unless
//! each fixture is caught by exactly its intended checker.
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
//! mismatch.
//!
//! The `bench-json` subcommand runs five sections and writes them, with
//! `host_cores`, to `BENCH_sweep.json` (in `--json DIR`, else the current
//! directory), printing each section's JSON as it completes:
//!
//! * `sweep` — the Fig. 7 measured sweep (K40c, N = 8704 + 10240)
//!   serially and on `--threads` workers: bitwise identity, and a
//!   parallel speedup ≥ 1.5× at ≥ 4 threads on a host with ≥ 4 cores;
//! * `emulator_dgemm` — one serial-wave tiled-DGEMM fixture (N = 256,
//!   BS = 16) through the scalar interpreter, the batched SoA bodies and
//!   full monitoring, plus a tiny-block fixture (N = 64, BS = 1) the same
//!   three ways: every output and counter bitwise equal to its fixture's
//!   scalar run, no findings, bulk findings equal to a per-access
//!   monitored run's, every self-test fixture caught by its checker alone;
//!   batched ≥ 2× scalar, monitoring ≤ 8× the scalar run, tiny batched
//!   ≥ 0.9× tiny scalar, tiny monitoring ≤ 4× tiny batched;
//! * `fault_sweep` — the 102-config K40c sweep under `--faults` transient
//!   meter faults (default 5%) with 3-attempt retries: no configuration
//!   lost, identical at 1/2/8 threads, journaling ≤ 1.10× the plain
//!   sweep, and a journal killed mid-record that resumes at 1/2/8 threads
//!   bitwise equal to the uninterrupted run, its torn record dropped;
//! * `static_verify` — the `verify-static` pipeline against the dynamic
//!   `sanitize --all` sweep, both on every core: the lattice proven
//!   clean, every fixture flagged with dynamic parity, counts
//!   bitwise-exact, and ≥ 10× faster;
//! * `serve_throughput` — an in-process daemon on a loopback port: cold
//!   miss, warm hit and `no_cache` recomputation bitwise equal, then an
//!   8-client hot/cold load with identical hot bodies, a non-zero hit
//!   rate and no failed request.
//!
//! Every timed ratio but `static_verify`'s is the median over 21 rounds
//! of its per-round ratio, recorded with its quartiles; a round runs each
//! side once, in reverse order every other round. Once the JSON is
//! written, the command exits non-zero if a correctness check failed
//! (bitwise identity, findings, fixtures, lost configurations, static
//! proofs); `--check` adds the timing bounds. A gate the host cannot run
//! (a speedup on < 4 cores, serving without loopback) never fails, and
//! the JSON says why (`speedup_gate`, `socket_gate`).

use enprop_apps::checkpoint::{CrashPlan, SweepCheckpoint};
use enprop_apps::{GpuMatMulApp, RetryPolicy, SweepExecutor, SweepFailure};
use enprop_bench::figures;
use enprop_gpusim::emulator::{AccessSink, EmuDgemm, EmuEvents, ForceScalar, GlobalMem, WavePlan};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_power::FaultPlan;
use enprop_sanitize::{Checker, KernelReport};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Default transient-failure rate for `--faults` and the smoke sweep.
const DEFAULT_FAULT_RATE: f64 = 0.05;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut measured: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut faults: Option<f64> = None;
    let mut check = false;
    let mut sanitize_all = false;
    let mut self_test = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut port: u16 = 7271;
    let mut serve_cache: Option<String> = None;
    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = Some(it.next().unwrap_or_else(|| usage("missing --json DIR"))),
            "--check" => check = true,
            "--checkpoint" => {
                checkpoint_dir =
                    Some(it.next().unwrap_or_else(|| usage("missing --checkpoint DIR")))
            }
            "--resume" => resume = true,
            "--all" => sanitize_all = true,
            "--self-test" => self_test = true,
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
                serve_cache = Some(it.next().unwrap_or_else(|| usage("missing --cache DIR")))
            }
            "-h" | "--help" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown option '{other}'")),
            other => {
                if let Some(first) = &which {
                    usage(&format!("'{other}' after '{first}': name one artifact or subcommand"));
                }
                which = Some(other.to_string());
            }
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());

    if resume && checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint DIR");
    }
    if checkpoint_dir.is_some() && measured.is_none() {
        usage("--checkpoint only applies to the measured sweeps; add --measured [SEED]");
    }
    let checkpoint = checkpoint_dir.as_deref().map(|dir| (dir, resume));

    if which == "bench-json" {
        bench_json(threads, faults.unwrap_or(DEFAULT_FAULT_RATE), json_dir.as_deref(), check);
        return;
    }

    if which == "sanitize" {
        run_sanitize(sanitize_all, self_test, json_dir.as_deref());
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
            "table1",
            "fig1",
            "fig2",
            "fig4",
            "fig6",
            "fig7",
            "fig8",
            "theory",
            "headline",
            "ablations",
            "sensitivity",
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
/// intended checker firing for every fixture.
fn run_sanitize(all: bool, self_test: bool, json_dir: Option<&str>) {
    if self_test {
        let corpus = enprop_sanitize::fixtures::self_test();
        let mut missed = 0usize;
        for (expected, rep) in &corpus {
            let caught = caught(*expected, rep);
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

    let report = enprop_sanitize::sanitize_all(&GpuArch::k40c(), all);
    for k in &report.kernels {
        if k.clean() {
            println!("clean  {} — {} block(s)", k.kernel, k.blocks);
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
        "sanitize: {} launch(es) on {}, {} of {} block(s) monitored, {} finding(s){}",
        report.kernels.len(),
        report.arch,
        monitored,
        blocks,
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

/// Whether a self-test fixture was caught: a non-empty report in which
/// every finding comes from the intended checker.
fn caught(expected: Checker, report: &KernelReport) -> bool {
    !report.findings.is_empty() && report.findings.iter().all(|f| f.checker == expected)
}

/// Rounds behind every timed gate but `static_verify`'s. A gated ratio is
/// the median of its per-round ratios, so a few stalled rounds on a shared
/// host cannot move a verdict.
const ROUNDS: usize = 21;

/// Per-round seconds of each side of one comparison: `secs[side][round]`.
struct Rounds {
    secs: Vec<Vec<f64>>,
}

/// Runs every side once per round, in order on even rounds and in reverse
/// on odd ones, so a slow stretch of the host lands on each side alike.
/// Each side times its own work and returns the seconds, which keeps its
/// set-up and output checks out of the sample.
fn time_rounds(rounds: usize, sides: &mut [&mut dyn FnMut() -> f64]) -> Rounds {
    let k = sides.len();
    let mut secs = vec![Vec::with_capacity(rounds); k];
    for round in 0..rounds {
        for step in 0..k {
            let side = if round % 2 == 0 { step } else { k - 1 - step };
            secs[side].push(sides[side]());
        }
    }
    Rounds { secs }
}

impl Rounds {
    /// Rounds run.
    fn count(&self) -> usize {
        self.secs[0].len()
    }

    /// Median seconds of one side.
    fn median(&self, side: usize) -> f64 {
        spread(self.secs[side].clone()).median
    }

    /// The per-round ratio `secs[num] / secs[den]`, summarized.
    fn ratio(&self, num: usize, den: usize) -> Spread {
        spread(self.secs[num].iter().zip(&self.secs[den]).map(|(n, d)| n / d).collect())
    }
}

/// Median and quartiles of a gated ratio's per-round values.
#[derive(serde::Serialize, Clone, Copy, Debug, PartialEq)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

/// Order statistics at ranks `n/4`, `n/2` and `3n/4` of the sorted sample
/// (the upper median for even counts).
fn spread(mut sample: Vec<f64>) -> Spread {
    assert!(!sample.is_empty(), "spread of an empty sample");
    sample.sort_by(f64::total_cmp);
    let rank = |quarter: usize| sample[quarter * sample.len() / 4];
    Spread { median: rank(2), q1: rank(1), q3: rank(3) }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}x (quartiles {:.3}-{:.3}x)", self.median, self.q1, self.q3)
    }
}

/// Runs `f` once: its seconds and its value.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Keeps a timed run's value in `slot` and hands back its seconds: the
/// shape of one [`time_rounds`] side whose last output is checked.
fn keep<T>(slot: &mut Option<T>, (secs, value): (f64, T)) -> f64 {
    *slot = Some(value);
    secs
}

/// Self-describing state of a gate that some hosts cannot run, so a JSON
/// consumer can tell an earned pass from a skip.
#[derive(serde::Serialize)]
struct SpeedupGate {
    /// The gate was asserted.
    enforced: bool,
    /// The gate was skipped; `reason` says why.
    skipped: bool,
    /// Cores available to the process when the decision was made.
    host_cores: usize,
    /// Why the gate was skipped, `None` when it was enforced.
    reason: Option<String>,
}

impl SpeedupGate {
    fn enforced(host_cores: usize) -> Self {
        Self { enforced: true, skipped: false, host_cores, reason: None }
    }

    fn skipped(host_cores: usize, reason: String) -> Self {
        Self { enforced: false, skipped: true, host_cores, reason: Some(reason) }
    }

    /// A wall-clock parallel-speedup gate: enforced on hosts with at least
    /// 4 cores, where the speedup is physically possible.
    fn on_cores(host_cores: usize, what: &str) -> Self {
        if host_cores < 4 {
            Self::skipped(
                host_cores,
                format!(
                    "host has {host_cores} core(s), so wall-clock {what} speedup is \
                     physically impossible; bitwise identity is still verified"
                ),
            )
        } else {
            Self::enforced(host_cores)
        }
    }
}

/// One `bench-json` section: a struct built by the function that runs it.
trait Section {
    /// The checks this section failed, one line each. Correctness checks
    /// (bitwise identity, findings, fixtures, lost configurations, static
    /// proofs) fail every run; `check` adds the timing bounds.
    fn failures(&self, check: bool) -> Vec<String>;
}

/// One section's failed checks.
struct Failures {
    check: bool,
    failed: Vec<String>,
}

impl Failures {
    fn new(check: bool) -> Self {
        Self { check, failed: Vec::new() }
    }

    /// A correctness check: fails on every run.
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed.push(what.into());
        }
    }

    /// A timing bound: fails only under `--check`.
    fn bound(&mut self, ok: bool, what: impl Into<String>) {
        if self.check {
            self.require(ok, what);
        }
    }
}

#[derive(serde::Serialize)]
struct BenchReport {
    /// Host cores available to the process — the physical ceiling on any
    /// wall-clock parallel speedup reported below.
    host_cores: usize,
    sweep: SweepBench,
    emulator_dgemm: EmulatorDgemm,
    fault_sweep: FaultSweep,
    static_verify: StaticVerifyBench,
    serve_throughput: ServeThroughput,
}

impl BenchReport {
    /// Every section's failed checks, each prefixed with its section.
    fn failures(&self, check: bool) -> Vec<String> {
        let sections: [(&str, &dyn Section); 5] = [
            ("sweep", &self.sweep),
            ("emulator_dgemm", &self.emulator_dgemm),
            ("fault_sweep", &self.fault_sweep),
            ("static_verify", &self.static_verify),
            ("serve_throughput", &self.serve_throughput),
        ];
        sections
            .iter()
            .flat_map(|(name, s)| {
                s.failures(check).into_iter().map(move |f| format!("{name}: {f}"))
            })
            .collect()
    }
}

/// Prints a finished section's JSON under its name and hands it back.
fn emit<T: serde::Serialize>(name: &str, section: T) -> T {
    println!("{name}: {}", to_json(&section));
    section
}

/// The `bench-json` subcommand: runs the five sections in order, printing
/// each one's JSON as it completes, writes `BENCH_sweep.json`, then exits
/// non-zero if any section failed a check (see the module docs).
fn bench_json(threads: Option<usize>, fault_rate: f64, json_dir: Option<&str>, check: bool) {
    let host_cores = enprop_par::host_parallelism();
    let report = BenchReport {
        host_cores,
        sweep: emit("sweep", bench_sweep(threads, host_cores)),
        emulator_dgemm: emit("emulator_dgemm", bench_emulator_dgemm()),
        fault_sweep: emit("fault_sweep", bench_fault_sweep(fault_rate)),
        static_verify: emit("static_verify", bench_static_verify()),
        serve_throughput: emit("serve_throughput", bench_serve_throughput(host_cores)),
    };

    let dir = json_dir.unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/BENCH_sweep.json");
    std::fs::write(&path, to_json(&report)).expect("write BENCH_sweep.json");
    eprintln!("wrote {path}");

    let failures = report.failures(check);
    if failures.is_empty() {
        let what = if check { "check and timing bound" } else { "correctness check" };
        eprintln!("bench-json: every {what} passed");
    } else {
        for f in &failures {
            eprintln!("bench-json FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// The `sweep` section: the Fig. 7 measured workload (K40c, N = 8704 and
/// 10240) serially and on the `--threads` executor in each round.
#[derive(serde::Serialize)]
struct SweepBench {
    workload: String,
    configs: usize,
    threads: usize,
    rounds: usize,
    /// Median seconds of the serial sweep.
    serial_secs: f64,
    /// Median seconds of the parallel sweep.
    parallel_secs: f64,
    /// `serial / parallel` per round: gated >= 1.5x where `speedup_gate`
    /// is enforced.
    speedup: Spread,
    /// The parallel sweep's points equal the serial sweep's bitwise.
    bitwise_identical: bool,
    speedup_gate: SpeedupGate,
}

impl Section for SweepBench {
    fn failures(&self, check: bool) -> Vec<String> {
        let mut f = Failures::new(check);
        f.require(self.bitwise_identical, "parallel sweep diverged from the serial output");
        f.bound(
            !self.speedup_gate.enforced || self.speedup.median >= 1.5,
            format!(
                "parallel speedup {} at {} threads is below 1.5x (host has {} cores)",
                self.speedup, self.threads, self.speedup_gate.host_cores
            ),
        );
        f.failed
    }
}

fn bench_sweep(threads: Option<usize>, host_cores: usize) -> SweepBench {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let sizes = [8704usize, 10240];
    let serial = SweepExecutor::serial(42);
    let parallel = executor(42, threads);
    let sweep = |exec: &SweepExecutor| timed(|| sizes.map(|n| app.sweep_measured(n, exec)));

    let (mut serial_pts, mut parallel_pts) = (None, None);
    let times = time_rounds(
        ROUNDS,
        &mut [&mut || keep(&mut serial_pts, sweep(&serial)), &mut || {
            keep(&mut parallel_pts, sweep(&parallel))
        }],
    );
    let serial_pts = serial_pts.expect("rounds ran");
    let speedup_gate = if parallel.threads() < 4 {
        SpeedupGate::skipped(
            host_cores,
            format!("gate applies only at >= 4 threads; this run used {}", parallel.threads()),
        )
    } else {
        SpeedupGate::on_cores(host_cores, "parallel")
    };
    SweepBench {
        workload: "fig7 measured sweep (K40c, N = 8704 + 10240)".into(),
        configs: serial_pts.iter().map(Vec::len).sum(),
        threads: parallel.threads(),
        rounds: times.count(),
        serial_secs: times.median(0),
        parallel_secs: times.median(1),
        speedup: times.ratio(0, 1),
        bitwise_identical: parallel_pts == Some(serial_pts),
        speedup_gate,
    }
}

/// The `emulator_dgemm` section: one serial-wave tiled-DGEMM fixture
/// (N = 256, BS = 16: a 16 × 16 grid of 256-thread blocks) run three ways
/// in each round, every ratio taken against the same round's scalar run;
/// and in the same rounds a tiny-block fixture (N = 64, BS = 1: 4096
/// one-thread blocks of 129 phases each), scalar, batched and monitored,
/// where the interpreter's and monitor's fixed costs per phase and per
/// block are most of the time.
#[derive(serde::Serialize)]
struct EmulatorDgemm {
    workload: String,
    blocks: usize,
    rounds: usize,
    /// The scalar per-thread interpreter (`run_unbatched`), median seconds.
    scalar_secs: f64,
    /// The batched SoA bodies (`run`).
    batched_secs: f64,
    /// Every block under the sanitizer's monitor, on the bulk trace path.
    monitored_secs: f64,
    /// `scalar / batched` per round: gated >= 2x.
    batched_speedup: Spread,
    /// `monitored / scalar`: gated <= 8x.
    monitored_overhead: Spread,
    /// Batched output and event counters equal the scalar ones bitwise.
    batched_identical: bool,
    /// The monitored and per-access monitored runs left output and
    /// counters bitwise equal to the scalar run.
    monitored_identical: bool,
    /// Findings, suppressed ones included, of the monitored run: 0 on the
    /// shipped kernel.
    findings: usize,
    /// The bulk-path findings equal, in order, those of one untimed run
    /// monitored access by access (`ForceScalar`).
    findings_identical: bool,
    /// Self-test fixtures caught by their intended checker alone: must
    /// equal `selftest_total`.
    selftest_caught: usize,
    selftest_total: usize,
    tiny_workload: String,
    /// The tiny fixture on the scalar interpreter, median seconds.
    tiny_scalar_secs: f64,
    /// The tiny fixture's batched bodies, uninstrumented.
    tiny_batched_secs: f64,
    /// The tiny fixture with every block under the monitor.
    tiny_monitored_secs: f64,
    /// `tiny scalar / tiny batched` per round: gated >= 0.9x (it read
    /// 1.03-1.10x on a 2-core host), so that a slower batched path shows here
    /// even though the monitored one, which shares it, would lower the
    /// overhead below.
    tiny_batched_speedup: Spread,
    /// `tiny monitored / tiny batched` per round: gated <= 4x.
    tiny_monitored_overhead: Spread,
    /// The tiny batched and monitored runs left output and counters bitwise
    /// equal to the tiny scalar run, and the monitor reported no finding.
    tiny_identical: bool,
}

impl Section for EmulatorDgemm {
    fn failures(&self, check: bool) -> Vec<String> {
        let mut f = Failures::new(check);
        f.require(
            self.batched_identical,
            "batched bodies diverged from the scalar interpreter (results or counters)",
        );
        f.require(
            self.monitored_identical,
            "a monitored run diverged from the uninstrumented scalar run",
        );
        f.require(
            self.findings == 0,
            format!("monitoring reported {} finding(s) on the shipped kernel", self.findings),
        );
        f.require(
            self.findings_identical,
            "bulk-monitoring findings differ from the per-access monitored run",
        );
        f.require(
            self.selftest_caught == self.selftest_total,
            format!(
                "{}/{} self-test fixtures caught by their intended checker alone",
                self.selftest_caught, self.selftest_total
            ),
        );
        f.bound(
            self.batched_speedup.median >= 2.0,
            format!(
                "batched speedup {} over the scalar interpreter is below 2x",
                self.batched_speedup
            ),
        );
        f.bound(
            self.monitored_overhead.median <= 8.0,
            format!(
                "monitoring overhead {} over the scalar interpreter exceeds 8x",
                self.monitored_overhead
            ),
        );
        f.require(
            self.tiny_identical,
            "a tiny-block batched or monitored run diverged from its scalar run, or the \
             monitor reported findings",
        );
        f.bound(
            self.tiny_batched_speedup.median >= 0.9,
            format!(
                "tiny-block batched speedup {} over the scalar interpreter is below 0.9x",
                self.tiny_batched_speedup
            ),
        );
        f.bound(
            self.tiny_monitored_overhead.median <= 4.0,
            format!(
                "tiny-block monitoring overhead {} over the batched bodies exceeds 4x",
                self.tiny_monitored_overhead
            ),
        );
        f.failed
    }
}

/// A DGEMM launch's output: C's bits and the flushed event counts.
type Output = (Vec<u64>, EmuEvents);

/// The bit patterns of a device buffer.
fn bits(m: &GlobalMem) -> Vec<u64> {
    m.to_vec().iter().map(|v| v.to_bits()).collect()
}

/// One monitored DGEMM launch.
struct Monitored {
    output: Output,
    outcome: enprop_sanitize::MonitorOutcome,
}

/// Launches `emu` on a fresh C with every block under a `LaunchMonitor`,
/// through the sink `wrap` makes of the monitor's. The seconds cover the
/// launch alone.
fn monitored_dgemm<S: AccessSink>(
    emu: &EmuDgemm,
    a: &GlobalMem,
    b: &GlobalMem,
    wrap: impl Fn(enprop_sanitize::MonitorSink) -> S,
) -> (f64, Monitored) {
    let TiledDgemmConfig { n, bs, .. } = emu.config();
    let c = GlobalMem::zeroed(n * n);
    let mut table = enprop_sanitize::BufferTable::new();
    table.register(a.id(), "A", n * n);
    table.register(b.id(), "B", n * n);
    table.register(c.id(), "C", n * n);
    let monitor = enprop_sanitize::LaunchMonitor::new(table, 2 * bs * bs);
    let (secs, events) = timed(|| {
        emu.run_monitored(
            a,
            b,
            &c,
            |_, _| {
                monitor.begin_block();
                wrap(monitor.sink())
            },
            |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
        )
    });
    (secs, Monitored { output: (bits(&c), events), outcome: monitor.finish() })
}

/// A serial-wave DGEMM launch of `N = n`, `BS = bs`, `G = R = 1` with its
/// `A` and `B` inputs.
fn dgemm_fixture(n: usize, bs: usize) -> (EmuDgemm, GlobalMem, GlobalMem) {
    let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g: 1, r: 1 }).with_wave(WavePlan::fixed(1));
    let host_a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 - 3.0).collect();
    let host_b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 - 2.0).collect();
    (emu, GlobalMem::from_slice(&host_a), GlobalMem::from_slice(&host_b))
}

/// One uninstrumented launch of `emu` on a fresh C: seconds and output.
fn plain_dgemm(emu: &EmuDgemm, a: &GlobalMem, b: &GlobalMem, batched: bool) -> (f64, Output) {
    let n = emu.config().n;
    let c = GlobalMem::zeroed(n * n);
    let (secs, events) =
        timed(|| if batched { emu.run(a, b, &c) } else { emu.run_unbatched(a, b, &c) });
    (secs, (bits(&c), events))
}

fn bench_emulator_dgemm() -> EmulatorDgemm {
    let (n, bs) = (256usize, 16usize);
    let tiles = n / bs;
    let (emu, a, b) = dgemm_fixture(n, bs);
    let (tiny, tiny_a, tiny_b) = dgemm_fixture(64, 1);

    let (mut scalar, mut batched, mut monitored) = (None, None, None);
    let (mut tiny_scalar, mut tiny_batched, mut tiny_monitored) = (None, None, None);
    let times = time_rounds(
        ROUNDS,
        &mut [
            &mut || keep(&mut scalar, plain_dgemm(&emu, &a, &b, false)),
            &mut || keep(&mut batched, plain_dgemm(&emu, &a, &b, true)),
            &mut || keep(&mut monitored, monitored_dgemm(&emu, &a, &b, |s| s)),
            &mut || keep(&mut tiny_scalar, plain_dgemm(&tiny, &tiny_a, &tiny_b, false)),
            &mut || keep(&mut tiny_batched, plain_dgemm(&tiny, &tiny_a, &tiny_b, true)),
            &mut || keep(&mut tiny_monitored, monitored_dgemm(&tiny, &tiny_a, &tiny_b, |s| s)),
        ],
    );
    let per_access = monitored_dgemm(&emu, &a, &b, ForceScalar).1;
    let [scalar, batched, tiny_scalar, tiny_batched] =
        [scalar, batched, tiny_scalar, tiny_batched].map(|out| out.expect("rounds ran"));
    let [monitored, tiny_monitored] =
        [monitored, tiny_monitored].map(|out| out.expect("rounds ran"));
    let corpus = enprop_sanitize::fixtures::self_test();
    let tiny_cfg = tiny.config();

    EmulatorDgemm {
        workload: format!("tiled DGEMM (N = {n}, BS = {bs}, G = 1, R = 1), serial waves"),
        blocks: tiles * tiles,
        rounds: times.count(),
        scalar_secs: times.median(0),
        batched_secs: times.median(1),
        monitored_secs: times.median(2),
        batched_speedup: times.ratio(0, 1),
        monitored_overhead: times.ratio(2, 0),
        batched_identical: batched == scalar,
        monitored_identical: monitored.output == scalar && per_access.output == scalar,
        findings: monitored.outcome.findings.len() + monitored.outcome.suppressed,
        findings_identical: monitored.outcome.findings == per_access.outcome.findings
            && monitored.outcome.suppressed == per_access.outcome.suppressed,
        selftest_caught: corpus.iter().filter(|(expected, rep)| caught(*expected, rep)).count(),
        selftest_total: corpus.len(),
        tiny_workload: format!(
            "tiled DGEMM (N = {}, BS = {}, G = 1, R = 1), serial waves",
            tiny_cfg.n, tiny_cfg.bs
        ),
        tiny_scalar_secs: times.median(3),
        tiny_batched_secs: times.median(4),
        tiny_monitored_secs: times.median(5),
        tiny_batched_speedup: times.ratio(3, 4),
        tiny_monitored_overhead: times.ratio(5, 4),
        tiny_identical: tiny_batched == tiny_scalar
            && tiny_monitored.output == tiny_scalar
            && tiny_monitored.outcome.findings.is_empty()
            && tiny_monitored.outcome.suppressed == 0,
    }
}

/// The `fault_sweep` section: the Fig. 7 K40c workload at N = 8704 (102
/// configurations) under `fault_rate` transient meter faults with the
/// default 3-attempt retry policy. Each round runs it plain and journaled
/// on one thread; untimed, it runs at 2 and 8 threads, and once journaled
/// with a crash injected mid-journal (the final record torn), whose
/// journal is then resumed at 1, 2 and 8 threads.
#[derive(serde::Serialize)]
struct FaultSweep {
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
    /// The exhausted-retry records: configuration, attempts, final error.
    failures: Vec<SweepFailure<TiledDgemmConfig>>,
    /// The 1-, 2- and 8-thread sweeps are equal, points and failures.
    identical_across_threads: bool,
    rounds: usize,
    /// Median seconds of the plain sweep.
    plain_secs: f64,
    /// Median seconds with every completed configuration journaled.
    journaled_secs: f64,
    /// `journaled / plain` per round, the durability tax: gated <= 1.10x.
    journal_overhead: Spread,
    /// The journaled sweep equals the plain one.
    journaled_identical: bool,
    /// Durable records the crashed run journaled before the kill.
    crash_after_records: usize,
    /// Bytes of the torn final record the injected crash left behind.
    torn_bytes_injected: usize,
    /// Torn bytes the resume detected and dropped: must equal
    /// `torn_bytes_injected`.
    torn_bytes_dropped: u64,
    /// Configurations the resume replayed from the journal.
    replayed: usize,
    /// Configurations the resume measured again.
    recomputed: usize,
    /// Resumes at 1, 2 and 8 threads all equal the uninterrupted sweep.
    resumed_identical_across_threads: bool,
}

impl Section for FaultSweep {
    fn failures(&self, check: bool) -> Vec<String> {
        let mut f = Failures::new(check);
        f.require(
            self.measured + self.failed == self.configs,
            format!(
                "lost configurations: {} measured + {} failed != {} attempted",
                self.measured, self.failed, self.configs
            ),
        );
        f.require(
            self.identical_across_threads,
            "output differs across 1/2/8 threads: retry seed-splitting is no longer deterministic",
        );
        f.require(self.journaled_identical, "the journaled sweep diverged from the plain sweep");
        f.require(
            self.resumed_identical_across_threads,
            "a resumed sweep diverged from the uninterrupted run",
        );
        f.require(
            self.replayed + self.recomputed == self.configs,
            format!(
                "resume lost configurations: {} replayed + {} recomputed != {}",
                self.replayed, self.recomputed, self.configs
            ),
        );
        f.require(
            self.torn_bytes_dropped == self.torn_bytes_injected as u64,
            format!(
                "the crash left {} torn byte(s) but the resume dropped {}",
                self.torn_bytes_injected, self.torn_bytes_dropped
            ),
        );
        f.bound(
            self.journal_overhead.median <= 1.10,
            format!("journal overhead {} exceeds the 1.10x budget", self.journal_overhead),
        );
        f.failed
    }
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

fn bench_fault_sweep(fault_rate: f64) -> FaultSweep {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let n = 8704usize;
    let policy = RetryPolicy::default();
    let plan = FaultPlan::transient(fault_rate);
    let at = |threads| SweepExecutor::new(42).with_threads(threads);
    let exec1 = at(1);
    let manifest = app.checkpoint_manifest(n, &exec1, &policy, &plan);
    let root = std::env::temp_dir().join(format!("enprop-bench-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (mut plain, mut journaled, mut journals) = (None, None, 0);
    let times = time_rounds(
        ROUNDS,
        &mut [
            &mut || keep(&mut plain, timed(|| app.sweep_measured_robust(n, &exec1, policy, plan))),
            &mut || {
                journals += 1;
                let dir = root.join(format!("journaled-{journals}"));
                let checkpoint = SweepCheckpoint::fresh(&dir, manifest.clone())
                    .expect("fresh journal for the overhead run");
                let run = timed(|| {
                    app.sweep_measured_robust_resumable(n, &exec1, policy, plan, checkpoint)
                        .expect("journaled sweep")
                });
                keep(&mut journaled, run)
            },
        ],
    );
    let plain = plain.expect("rounds ran");
    let journaled_identical = journaled.expect("rounds ran").sweep == plain;
    let identical_across_threads =
        [2, 8].iter().all(|&t| app.sweep_measured_robust(n, &at(t), policy, plan) == plain);

    // Crash mid-journal: kill the writer after about half the records are
    // durable, with a 9-byte torn frame dangling past the last good one.
    // A plan that never fired leaves nothing torn, so the resume's
    // torn-byte count fails the check.
    let crash_after = plain.total / 2;
    let torn_bytes = 9usize;
    let crashed_dir = root.join("crashed");
    let mut checkpoint = SweepCheckpoint::fresh(&crashed_dir, manifest.clone())
        .expect("fresh journal for the crash run");
    checkpoint.arm_crash(CrashPlan::kill_after(crash_after).with_torn_bytes(torn_bytes));
    let _ = app
        .sweep_measured_robust_resumable(n, &exec1, policy, plan, checkpoint)
        .expect("crash-armed sweep");

    // Resume the same crashed journal at 1, 2 and 8 threads, each from its
    // own copy, since a successful resume completes the journal.
    let resumes: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let dir = root.join(format!("resume-t{threads}"));
            copy_journal(&crashed_dir, &dir);
            let checkpoint = SweepCheckpoint::resume(&dir, &manifest).expect("resume journal");
            app.sweep_measured_robust_resumable(n, &at(threads), policy, plan, checkpoint)
                .expect("resumed sweep")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    let last = resumes.last().expect("three resumes");

    FaultSweep {
        workload: format!("fig7 measured sweep (K40c, N = {n})"),
        fault_rate,
        retry_attempts: policy.max_attempts,
        configs: plain.total,
        measured: plain.points.len(),
        failed: plain.failures.len(),
        retried: plain.retried,
        failures: plain.failures.clone(),
        identical_across_threads,
        rounds: times.count(),
        plain_secs: times.median(0),
        journaled_secs: times.median(1),
        journal_overhead: times.ratio(1, 0),
        journaled_identical,
        crash_after_records: crash_after,
        torn_bytes_injected: torn_bytes,
        torn_bytes_dropped: last.torn_tail_bytes,
        replayed: last.replayed,
        recomputed: last.executed,
        resumed_identical_across_threads: resumes.iter().all(|r| r.sweep == plain),
    }
}

/// The static verifier's whole pipeline, shared by `verify-static` and the
/// `static_verify` section: learn the DGEMM family model, sweep the four
/// fig7/fig8 lattices analytically, re-verify the fixture corpus
/// statically, and check the closed-form counts against flushed counters.
struct StaticRun {
    model: Result<enprop_staticcheck::DgemmStaticModel, enprop_staticcheck::Fallback>,
    learn_secs: f64,
    /// Empty when the model could not be learned.
    lattices: Vec<enprop_staticcheck::dgemm::LatticeSweep>,
    sweep_secs: f64,
    fixtures: Vec<enprop_staticcheck::fixtures::FixtureOutcome>,
    /// `(config, closed-form counts, flushed counts)` per validation config;
    /// empty when the model could not be learned.
    counts: Vec<(TiledDgemmConfig, EmuEvents, EmuEvents)>,
}

fn static_pipeline() -> StaticRun {
    use enprop_staticcheck::dgemm::{validate_counts, validation_set};

    let (learn_secs, model) = timed(enprop_staticcheck::DgemmStaticModel::learn);
    let (sweep_secs, lattices, counts) = match &model {
        Ok(m) => {
            let (sweep_secs, lattices) = timed(|| enprop_staticcheck::verify_fig_lattices(m));
            let counts = validation_set()
                .into_iter()
                .map(|cfg| {
                    let (stat, flushed) = validate_counts(m, &cfg);
                    (cfg, stat, flushed)
                })
                .collect();
            (sweep_secs, lattices, counts)
        }
        Err(_) => (0.0, Vec::new(), Vec::new()),
    };
    let fixtures = enprop_staticcheck::fixtures::analyze_fixtures();
    StaticRun { model, learn_secs, lattices, sweep_secs, fixtures, counts }
}

/// The `static_verify` section: the static pipeline (model learning + the
/// four-lattice analytic sweep) timed once against the dynamic
/// `sanitize --all` sweep, both on every host core whatever `--threads`
/// says. One pair costs ~4 s and reads far above its 10x bound, so it is
/// not repeated in rounds.
#[derive(serde::Serialize)]
struct StaticVerifyBench {
    workload: String,
    /// Tiny instrumented probe launches the family model learned from.
    probe_launches: usize,
    /// Lattice configurations verified analytically across all four
    /// fig7/fig8 sweeps.
    lattice_configs: usize,
    /// Static findings across the lattice sweep (a clean tree has 0).
    findings: usize,
    /// Static fallbacks across the lattice sweep, plus one if the model
    /// could not be learned (0: every config was proven).
    fallbacks: usize,
    /// Seeded buggy fixtures flagged statically by exactly the intended
    /// checker.
    fixtures_flagged: usize,
    /// Fixtures whose static diagnostics name the same checker / phase /
    /// buffer as the dynamic sanitizer's findings.
    fixtures_parity: usize,
    fixtures_total: usize,
    /// Validation configs whose closed-form event counts equal the flushed
    /// `EmuEvents` bitwise.
    counts_exact: usize,
    counts_validated: usize,
    /// Model learning seconds (probe + fit + verify).
    learn_secs: f64,
    /// Analytic four-lattice sweep seconds.
    sweep_secs: f64,
    /// `learn_secs + sweep_secs`.
    static_secs: f64,
    /// The dynamic `sanitize --all` instrumented sweep.
    dynamic_secs: f64,
    /// `dynamic_secs / static_secs`: gated >= 10x.
    speedup: f64,
    /// The dynamic sweep was itself clean (context, not gated here:
    /// `repro sanitize --all` and its golden test own that).
    dynamic_clean: bool,
}

impl Section for StaticVerifyBench {
    fn failures(&self, check: bool) -> Vec<String> {
        let mut f = Failures::new(check);
        f.require(
            self.findings == 0 && self.fallbacks == 0,
            format!(
                "the lattice is not proven clean: {} finding(s), {} fallback(s) across {} \
                 config(s)",
                self.findings, self.fallbacks, self.lattice_configs
            ),
        );
        f.require(
            self.fixtures_flagged == self.fixtures_total
                && self.fixtures_parity == self.fixtures_total,
            format!(
                "missed seeded fixtures: {}/{} flagged, {}/{} with dynamic parity",
                self.fixtures_flagged,
                self.fixtures_total,
                self.fixtures_parity,
                self.fixtures_total
            ),
        );
        f.require(
            self.counts_exact == self.counts_validated,
            format!(
                "closed-form event counts diverged from flushed counters on {} of {} \
                 validation config(s)",
                self.counts_validated - self.counts_exact,
                self.counts_validated
            ),
        );
        f.bound(
            self.static_secs * 10.0 <= self.dynamic_secs,
            format!(
                "static verification ({:.3}s) is not >= 10x faster than the dynamic \
                 sanitize --all sweep ({:.2}s): speedup {:.1}x",
                self.static_secs, self.dynamic_secs, self.speedup
            ),
        );
        f.failed
    }
}

fn bench_static_verify() -> StaticVerifyBench {
    let (dynamic_secs, dynamic) = timed(|| enprop_sanitize::sanitize_all(&GpuArch::k40c(), true));
    let run = static_pipeline();
    let static_secs = run.learn_secs + run.sweep_secs;
    StaticVerifyBench {
        workload: "fig7/fig8 lattice race/OOB/barrier safety + event counts".into(),
        probe_launches: run.model.as_ref().map_or(0, |m| m.probe_configs.len()),
        lattice_configs: run.lattices.iter().map(|s| s.configs).sum(),
        findings: run.lattices.iter().map(|s| s.findings).sum(),
        fallbacks: run.lattices.iter().map(|s| s.fallbacks).sum::<usize>()
            + usize::from(run.model.is_err()),
        fixtures_flagged: run.fixtures.iter().filter(|o| o.caught).count(),
        fixtures_parity: run.fixtures.iter().filter(|o| o.parity).count(),
        fixtures_total: run.fixtures.len(),
        counts_exact: run.counts.iter().filter(|(_, stat, flushed)| stat == flushed).count(),
        counts_validated: run.counts.len(),
        learn_secs: run.learn_secs,
        sweep_secs: run.sweep_secs,
        static_secs,
        dynamic_secs,
        speedup: dynamic_secs / static_secs,
        dynamic_clean: dynamic.clean(),
    }
}

/// The `serve_throughput` section: the sweep daemon in-process. Request
/// bytes must be a pure function of the request (cold compute, warm hit
/// and a cache-bypassing recomputation bitwise-equal), and the mixed
/// hot/cold concurrent load must produce hits, identical hot bodies and
/// no failed request.
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
    /// `hits / (hits + misses)` over the load run: must be > 0.
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

impl Section for ServeThroughput {
    fn failures(&self, check: bool) -> Vec<String> {
        let mut f = Failures::new(check);
        if !self.socket_gate.enforced {
            return f.failed;
        }
        f.require(
            self.cached_equals_fresh,
            "a cache-bypassing recomputation is not bitwise-identical to the cached body",
        );
        f.require(self.hit_equals_cold, "a warm cache hit did not replay the cold body bitwise");
        f.require(
            self.hot_bodies_identical,
            "concurrent clients saw different bytes for the same hot key",
        );
        f.require(
            self.cache_hit_rate > 0.0,
            format!(
                "cache hit rate {:.2} under the hot/cold load: deduplication is not happening",
                self.cache_hit_rate
            ),
        );
        f.require(
            self.ok == self.requests,
            format!("only {}/{} load-generator requests succeeded", self.ok, self.requests),
        );
        f.failed
    }
}

/// Runs the `serve_throughput` section: an in-process daemon on an
/// ephemeral loopback port, the three-way bitwise-identity check (cold
/// miss == warm hit == `no_cache` recomputation), then the mixed hot/cold
/// concurrent load. Hosts where loopback cannot bind record a skip.
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
        socket_gate: SpeedupGate::skipped(host_cores, reason),
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
        socket_gate: SpeedupGate::enforced(host_cores),
    };
    server.shutdown();
    report
}

/// The `verify-static` subcommand: proves race / out-of-bounds / barrier
/// safety and closed-form event counts for every fig7/fig8 lattice
/// configuration analytically, re-verifies the seeded buggy fixture
/// corpus statically (with dynamic-diagnostic parity), and exits
/// non-zero on any finding, fallback, missed fixture, or count mismatch.
fn run_verify_static(json_dir: Option<&str>) {
    let run = static_pipeline();
    let model = match &run.model {
        Ok(m) => m,
        Err(fb) => {
            eprintln!("verify-static: cannot learn the DGEMM family model: {fb}");
            std::process::exit(1);
        }
    };
    let mut failed = false;
    println!(
        "verify-static: DGEMM family model learned and verified from {} tiny probe \
         launches in {:.3}s",
        model.probe_configs.len(),
        run.learn_secs
    );

    for s in &run.lattices {
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
    let total: usize = run.lattices.iter().map(|s| s.configs).sum();
    println!(
        "verify-static: analytic sweep of {total} lattice configuration(s) in {:.3}s",
        run.sweep_secs
    );

    for o in &run.fixtures {
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

    let mut counts_exact = 0usize;
    for (cfg, stat, dynamic) in &run.counts {
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
        run.counts.len()
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
            learn_secs: run.learn_secs,
            sweep_secs: run.sweep_secs,
            lattices: run
                .lattices
                .iter()
                .map(|s| LatticeJson {
                    label: s.label.clone(),
                    configs: s.configs,
                    findings: s.findings,
                    fallbacks: s.fallbacks,
                })
                .collect(),
            fixtures: run
                .fixtures
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
            counts_validated: run.counts.len(),
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
        run.fixtures.iter().filter(|o| o.caught && o.parity).count(),
        run.fixtures.len()
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
         [--check] [--checkpoint DIR] [--resume] [--all] [--self-test] [--port PORT] \
         [--cache DIR]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A spread whose median and quartiles are all `x`.
    fn flat(x: f64) -> Spread {
        Spread { median: x, q1: x, q3: x }
    }

    fn sweep(gate: SpeedupGate) -> SweepBench {
        SweepBench {
            workload: String::new(),
            configs: 204,
            threads: 8,
            rounds: ROUNDS,
            serial_secs: 0.2,
            parallel_secs: 0.1,
            speedup: flat(2.0),
            bitwise_identical: true,
            speedup_gate: gate,
        }
    }

    fn emulator_dgemm() -> EmulatorDgemm {
        EmulatorDgemm {
            workload: String::new(),
            blocks: 256,
            rounds: ROUNDS,
            scalar_secs: 0.05,
            batched_secs: 0.006,
            monitored_secs: 0.3,
            batched_speedup: flat(8.0),
            monitored_overhead: flat(6.0),
            batched_identical: true,
            monitored_identical: true,
            findings: 0,
            findings_identical: true,
            selftest_caught: 4,
            selftest_total: 4,
            tiny_workload: String::new(),
            tiny_scalar_secs: 0.01,
            tiny_batched_secs: 0.005,
            tiny_monitored_secs: 0.015,
            tiny_batched_speedup: flat(2.0),
            tiny_monitored_overhead: flat(3.0),
            tiny_identical: true,
        }
    }

    fn fault_sweep() -> FaultSweep {
        FaultSweep {
            workload: String::new(),
            fault_rate: 0.05,
            retry_attempts: 3,
            configs: 102,
            measured: 101,
            failed: 1,
            retried: 17,
            failures: Vec::new(),
            identical_across_threads: true,
            rounds: ROUNDS,
            plain_secs: 0.05,
            journaled_secs: 0.052,
            journal_overhead: flat(1.04),
            journaled_identical: true,
            crash_after_records: 51,
            torn_bytes_injected: 9,
            torn_bytes_dropped: 9,
            replayed: 51,
            recomputed: 51,
            resumed_identical_across_threads: true,
        }
    }

    fn static_verify() -> StaticVerifyBench {
        StaticVerifyBench {
            workload: String::new(),
            probe_launches: 20,
            lattice_configs: 408,
            findings: 0,
            fallbacks: 0,
            fixtures_flagged: 4,
            fixtures_parity: 4,
            fixtures_total: 4,
            counts_exact: 3,
            counts_validated: 3,
            learn_secs: 0.02,
            sweep_secs: 0.04,
            static_secs: 0.06,
            dynamic_secs: 4.0,
            speedup: 4.0 / 0.06,
            dynamic_clean: true,
        }
    }

    fn serve(gate: SpeedupGate) -> ServeThroughput {
        ServeThroughput {
            workload: String::new(),
            clients: 8,
            requests: 48,
            ok: 48,
            secs: 1.0,
            requests_per_sec: 48.0,
            cache_hit_rate: 0.5,
            hits: 24,
            misses: 24,
            hot_bodies_identical: true,
            cached_equals_fresh: true,
            hit_equals_cold: true,
            socket_gate: gate,
        }
    }

    /// `section` fails exactly the correctness check naming `identity` on
    /// every run, and the timing bound naming `bound` too under `--check`.
    fn assert_fails(section: &dyn Section, identity: &str, bound: &str) {
        let plain = section.failures(false);
        assert!(plain.len() == 1 && plain[0].contains(identity), "{plain:?}");
        let checked = section.failures(true);
        assert!(
            checked.len() == 2 && checked[0].contains(identity) && checked[1].contains(bound),
            "{checked:?}"
        );
    }

    #[test]
    fn rounds_reverse_the_side_order_every_other_round() {
        let log = RefCell::new(Vec::new());
        let side = |i: usize| {
            let log = &log;
            move || {
                log.borrow_mut().push(i);
                1.0
            }
        };
        let mut sides: Vec<_> = (0..3).map(side).collect();
        let mut sides: Vec<&mut dyn FnMut() -> f64> =
            sides.iter_mut().map(|s| s as &mut dyn FnMut() -> f64).collect();
        let rounds = time_rounds(4, &mut sides);
        assert_eq!(*log.borrow(), [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]);
        assert_eq!(rounds.count(), 4);
    }

    #[test]
    fn a_stalled_round_moves_the_median_and_quartiles_by_one_rank_at_most() {
        // Side 0 takes r seconds in round r (1-based) and side 1 one
        // second, so the per-round ratios are 1..=21, but round 8 stalls
        // side 0 a thousandfold. Sorted: 1..=7, 9..=21, 8000, so ranks 5,
        // 10 and 15 read 6, 12 and 17.
        let mut calls = 0usize;
        let mut stalled = || {
            calls += 1;
            if calls == 8 {
                8000.0
            } else {
                calls as f64
            }
        };
        let mut base = || 1.0;
        let rounds = time_rounds(ROUNDS, &mut [&mut stalled, &mut base]);
        assert_eq!(rounds.count(), ROUNDS);
        assert_eq!(rounds.ratio(0, 1), Spread { median: 12.0, q1: 6.0, q3: 17.0 });
        assert_eq!(rounds.ratio(1, 0).median, 1.0 / 12.0);
        assert_eq!(rounds.median(0), 12.0);
        assert_eq!(rounds.median(1), 1.0);
    }

    #[test]
    fn sweep_fails_identity_always_and_speedup_under_check() {
        let mut s = sweep(SpeedupGate::enforced(8));
        s.speedup = flat(1.2);
        s.bitwise_identical = false;
        assert_fails(&s, "diverged from the serial", "below 1.5x");
    }

    #[test]
    fn emulator_dgemm_fails_identity_always_and_overhead_under_check() {
        let mut e = emulator_dgemm();
        e.monitored_overhead = flat(8.65);
        e.findings_identical = false;
        assert_fails(&e, "per-access", "exceeds 8x");
        let mut e = emulator_dgemm();
        e.tiny_monitored_overhead = flat(4.1);
        e.tiny_identical = false;
        assert_fails(&e, "tiny-block batched or monitored run diverged", "exceeds 4x");
        let mut e = emulator_dgemm();
        e.tiny_batched_speedup = flat(0.85);
        e.tiny_identical = false;
        assert_fails(&e, "tiny-block batched or monitored run diverged", "below 0.9x");
    }

    #[test]
    fn a_slow_tiny_batched_side_fails_under_its_section() {
        // A batched path slowed so that the monitored one, which shares it,
        // reads a lower overhead: only the batched speedup's floor fails.
        let mut report = BenchReport {
            host_cores: 2,
            sweep: sweep(SpeedupGate::on_cores(2, "parallel")),
            emulator_dgemm: emulator_dgemm(),
            fault_sweep: fault_sweep(),
            static_verify: static_verify(),
            serve_throughput: serve(SpeedupGate::enforced(2)),
        };
        report.emulator_dgemm.tiny_batched_speedup = flat(0.8);
        report.emulator_dgemm.tiny_monitored_overhead = flat(2.0);
        assert!(report.failures(false).is_empty());
        let failures = report.failures(true);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("emulator_dgemm: tiny-block batched speedup"));
    }

    #[test]
    fn fault_sweep_fails_identity_always_and_journal_overhead_under_check() {
        let mut f = fault_sweep();
        f.journal_overhead = flat(1.101);
        f.resumed_identical_across_threads = false;
        assert_fails(&f, "resumed sweep", "1.10x budget");
    }

    #[test]
    fn static_verify_fails_counts_always_and_speedup_under_check() {
        let mut s = static_verify();
        s.static_secs = 0.5;
        s.counts_exact = 2;
        assert_fails(&s, "closed-form", "10x faster");
    }

    #[test]
    fn serve_fails_identity_and_hit_rate_on_every_run() {
        let mut s = serve(SpeedupGate::enforced(2));
        s.cache_hit_rate = 0.0;
        s.hit_equals_cold = false;
        for check in [false, true] {
            let failures = s.failures(check);
            assert!(
                failures.len() == 2
                    && failures[0].contains("warm cache hit")
                    && failures[1].contains("hit rate"),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn gates_skipped_on_a_small_host_return_no_failure() {
        let mut s = sweep(SpeedupGate::on_cores(2, "parallel"));
        s.speedup = flat(0.9);
        assert!(s.failures(true).is_empty());
        s.speedup_gate = SpeedupGate::on_cores(4, "parallel");
        assert_eq!(s.failures(true).len(), 1);
        assert!(s.failures(false).is_empty());

        let mut v = serve(SpeedupGate::skipped(2, "no loopback".into()));
        v.ok = 0;
        v.cache_hit_rate = 0.0;
        v.hot_bodies_identical = false;
        assert!(v.failures(true).is_empty());
    }

    #[test]
    fn the_report_names_the_section_of_each_failure() {
        let mut report = BenchReport {
            host_cores: 2,
            sweep: sweep(SpeedupGate::on_cores(2, "parallel")),
            emulator_dgemm: emulator_dgemm(),
            fault_sweep: fault_sweep(),
            static_verify: static_verify(),
            serve_throughput: serve(SpeedupGate::enforced(2)),
        };
        assert!(report.failures(true).is_empty());
        report.fault_sweep.torn_bytes_dropped = 0;
        report.emulator_dgemm.selftest_caught = 3;
        let failures = report.failures(false);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("emulator_dgemm: 3/4 self-test fixtures"));
        assert!(failures[1].starts_with("fault_sweep: the crash left 9 torn byte(s)"));
    }
}
