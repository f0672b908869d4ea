//! End-to-end benchmark of the enprop workspace.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (`sweep-fig`, `sweep-durable`, `serve-mixed`,
//! `verify-kernels`; see `README.md` for why each exists) for `S` seconds
//! with inputs derived from `N`, checks every output, and prints each
//! metric by name with its unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced, with
//! most times scaled to a nominal host speed (see [`speed`]); with
//! `--trace 1` they are the per-layer ones, from spans recorded around the
//! benchmark's calls into each crate (written to
//! `.bench_work/spans/<workload>.json`). The exit code is 1 if any check
//! failed and 2 on a usage error.

mod serve;
mod speed;
mod sweep;
mod trace;
mod verify;

use speed::Gauge;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Attribution;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "sweep-fig",
    "sweep-durable",
    "serve-mixed",
    "verify-kernels",
];

/// End-to-end metrics, `(name, unit)`: what a user of each workload sees.
pub const END_TO_END: [(&str, &str); 3] =
    [("throughput", "1/s"), ("op_p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics, `(name, unit)`. A `*.self_pct` metric is that
/// layer's self time as a share of all traced thread time; a layer a
/// workload never calls reads 0. The `op.*` tail latencies and the peak
/// RSS come from the untraced operations of the traced run: they vary
/// too much between runs on a shared host to carry a bound.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("op.p90_ms", "ms"),
    ("op.p99_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("power.meter.self_pct", "%"),
    ("power.meter.records", "count"),
    ("power.meter.samples", "count"),
    ("power.meter.samples_per_us", "1/us"),
    ("power.baseline.self_pct", "%"),
    ("stats.protocol.self_pct", "%"),
    ("stats.protocol.reps", "count"),
    ("stats.protocol.reps_per_config", "count"),
    ("stats.protocol.nonconverged_pct", "%"),
    ("apps.enumerate.self_pct", "%"),
    ("gpu.model.self_pct", "%"),
    ("apps.parallel.self_pct", "%"),
    ("apps.parallel.items", "count"),
    ("apps.parallel.idle_pct", "%"),
    ("apps.parallel.max_item_pct", "%"),
    ("apps.retry.attempts", "count"),
    ("apps.retry.failed_attempts", "count"),
    ("apps.retry.wasted_pct", "%"),
    ("apps.retry.exhausted", "count"),
    ("apps.checkpoint.self_pct", "%"),
    ("apps.checkpoint.replayed", "count"),
    ("apps.checkpoint.bytes", "bytes"),
    ("apps.checkpoint.torn_bytes_dropped", "bytes"),
    ("apps.checkpoint.overhead_pct", "%"),
    ("pareto.front.self_pct", "%"),
    ("pareto.front.inserts", "count"),
    ("bench.serialize.self_pct", "%"),
    ("bench.serialize.bytes", "bytes"),
    ("serve.queue.self_pct", "%"),
    ("serve.http.self_pct", "%"),
    ("serve.http.hit_time_pct", "%"),
    ("serve.http.body_bytes", "bytes"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.hit_pct", "%"),
    ("serve.cache.entries", "count"),
    ("serve.cache.log_bytes", "bytes"),
    ("serve.generator.backlog_peak", "count"),
    ("gpu.emulator.self_pct", "%"),
    ("gpu.emulator.launches", "count"),
    ("gpu.emulator.blocks", "count"),
    ("gpu.emulator.flops", "count"),
    ("gpu.emulator.shared_accesses", "count"),
    ("gpu.emulator.global_accesses", "count"),
    ("gpu.emulator.events_per_us", "1/us"),
    ("sanitizer.monitor.self_pct", "%"),
    ("sanitizer.monitor.overhead_x", "x"),
    ("sanitizer.monitor.monitored_blocks", "count"),
    ("sanitizer.monitor.findings", "count"),
    ("sanitizer.prelaunch.self_pct", "%"),
    ("staticcheck.learn.self_pct", "%"),
    ("staticcheck.probe_launches", "count"),
    ("staticcheck.lattice.self_pct", "%"),
    ("staticcheck.lattice_configs", "count"),
    ("staticcheck.validate.self_pct", "%"),
    ("staticcheck.fallbacks", "count"),
];

/// Times a workload sets itself up from scratch; `setup_s` is the median.
const SETUPS: u32 = 5;

/// Sweep workers and client connections: the 2 cores the benchmark is
/// sized for, all load generated from this one process.
pub const WORKERS: usize = 2;

/// What a workload is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Run {
    /// Timed operations (passes or requests).
    pub attempted: u64,
    /// Timed operations whose output failed a check.
    pub failed: u64,
    /// Every failed check, one line each.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed beside the metrics.
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Run {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.errors.push(what());
        }
        ok
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the end-to-end metrics from a timed loop's throughput, its
    /// operations' latencies and the set-up times, each scaled to the
    /// nominal host (see [`speed`]) or [`Timed::as_measured`].
    pub fn end_to_end(&mut self, throughput: f64, latency: &Timed, setup: &Timed) {
        self.set("throughput", throughput);
        self.set("op_p50_ms", percentile(&latency.ms, 50.0));
        self.set("setup_s", percentile(&setup.ms, 50.0) / 1e3);
        let scaled = !latency.readings.is_empty();
        self.notes.push(format!(
            "{} operation(s){}: p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms; as measured: p50 {:.3} ms; peak RSS {:.3} MB",
            latency.ms.len(),
            if scaled { ", scaled" } else { "" },
            percentile(&latency.ms, 90.0),
            percentile(&latency.ms, 99.0),
            percentile(&latency.ms, 100.0),
            percentile(&latency.raw_ms, 50.0),
            peak_rss_mb(),
        ));
        for (what, timed) in [("operations", latency), ("set-ups", setup)] {
            if timed.readings.is_empty() {
                continue;
            }
            self.notes.push(format!(
                "reference loop around the {what}: median {:.3} ms, p10 {:.3} ms, p90 {:.3} ms over {} reading(s) (nominal {} ms)",
                percentile(&timed.readings, 50.0),
                percentile(&timed.readings, 10.0),
                percentile(&timed.readings, 90.0),
                timed.readings.len(),
                speed::NOMINAL_MS
            ));
        }
        let round = |v: &[f64]| {
            v.iter()
                .map(|x| (x * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        };
        self.notes.push(format!(
            "set-ups: scaled {:?} ms, as measured {:?} ms",
            round(&setup.ms),
            round(&setup.raw_ms)
        ));
    }

    /// Sets the `op.*` tail latencies and the peak RSS of a traced run
    /// from its untraced operations' latencies.
    pub fn tail(&mut self, untraced_ms: &[f64]) {
        self.set("op.p90_ms", percentile(untraced_ms, 90.0));
        self.set("op.p99_ms", percentile(untraced_ms, 99.0));
        self.set("process.peak_rss_mb", peak_rss_mb());
    }

    /// Sets `trace.*` and every `<layer>.self_pct` from an attribution.
    /// A span name without a `self_pct` metric is a benchmark bug: its
    /// time would silently vanish from the attribution.
    pub fn attribution(&mut self, attribution: &Attribution, spans: usize) {
        self.set("trace.coverage_pct", attribution.coverage_pct());
        self.set("trace.spans", spans as f64);
        for &layer in attribution.self_ns.keys() {
            let metric = PER_LAYER
                .iter()
                .map(|(name, _)| *name)
                .find(|name| name.strip_suffix(".self_pct") == Some(layer))
                .unwrap_or_else(|| panic!("span `{layer}` has no `{layer}.self_pct` metric"));
            self.set(metric, attribution.pct(layer));
        }
    }
}

/// Operation times, scaled to the nominal host and as measured, with the
/// host-speed readings taken around them (see [`speed`]).
#[derive(Default)]
pub struct Timed {
    pub ms: Vec<f64>,
    pub raw_ms: Vec<f64>,
    pub readings: Vec<f64>,
}

impl Timed {
    /// Times reported as measured, unscaled.
    pub fn as_measured(raw_ms: Vec<f64>) -> Self {
        Timed {
            ms: raw_ms.clone(),
            raw_ms,
            readings: Vec::new(),
        }
    }

    fn push(&mut self, gauge: &mut Gauge, raw_ms: f64) {
        self.ms.push(gauge.scale(raw_ms));
        self.raw_ms.push(raw_ms);
    }
}

/// Sets a workload up [`SETUPS`] times from scratch, untraced, returning
/// the last state and every set-up's duration.
pub fn setup<S>(mut make: impl FnMut(u32) -> S) -> (S, Timed) {
    let mut times = Timed::default();
    let mut gauge = Gauge::new();
    let mut state = None;
    for i in 0..SETUPS {
        // Drop the previous state first so set-ups do not overlap.
        drop(state.take());
        let start = Instant::now();
        state = Some(trace::untraced(|| make(i)));
        times.push(&mut gauge, ms(start.elapsed()));
    }
    times.readings = gauge.readings;
    (state.expect("at least one set-up"), times)
}

/// Runs `op(i)` for `i = 0, 1, ...` until `seconds` have passed, reading
/// the host's speed between operations, and hands each output to `check`
/// (untimed). Returns the operations' latencies.
pub fn closed_loop<T>(
    seconds: f64,
    mut op: impl FnMut(u32) -> T,
    mut check: impl FnMut(u32, T),
) -> Timed {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut latencies = Timed::default();
    let mut gauge = Gauge::new();
    let mut i = 0;
    while latencies.ms.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let out = op(i);
        latencies.push(&mut gauge, ms(start.elapsed()));
        check(i, out);
        i += 1;
    }
    latencies.readings = gauge.readings;
    latencies
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Work items per second of a closed loop: the median over operations,
/// so one stalled operation moves it no more than it moves the median
/// latency.
pub fn median_rate(items: &[f64], latency_ms: &[f64]) -> f64 {
    let rates: Vec<f64> = items
        .iter()
        .zip(latency_ms)
        .map(|(n, ms)| n / (ms / 1e3))
        .collect();
    percentile(&rates, 50.0)
}

/// Tracing overhead in percent: median traced operation against median
/// untraced one, the two run alternately.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    100.0 * (percentile(traced_ms, 50.0) / percentile(untraced_ms, 50.0) - 1.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       NAME: sweep-fig | sweep-durable | serve-mixed | verify-kernels";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let bench_work = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: bench_work.join(format!("{}-{}", args.workload, std::process::id())),
    };
    let mut run = match args.workload.as_str() {
        "sweep-fig" => sweep::fig(&ctx),
        "sweep-durable" => sweep::durable(&ctx),
        "serve-mixed" => serve::mixed(&ctx),
        _ => verify::kernels(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if args.trace {
        let path = bench_work
            .join("spans")
            .join(format!("{}.json", args.workload));
        if let Err(e) = trace::write_json(&path, &run.spans) {
            run.errors.push(format!("writing {}: {e}", path.display()));
        }
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in run.metrics.keys() {
        assert!(
            wanted.iter().any(|(w, _)| w == name),
            "workload set `{name}`, which is not a metric of this mode"
        );
    }
    for (name, value) in &run.metrics {
        if !value.is_finite() {
            run.errors
                .push(format!("metric {name} is not finite: {value}"));
        }
    }
    let correct = run.errors.is_empty();

    println!(
        "workload {} (seed {}, {} s, trace {}; host_cores {}, simd_dispatch {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        enprop_gpusim::emulator::SimdPath::detect().as_str()
    );
    for note in &run.notes {
        println!("  {note}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        // A layer this workload never calls reads 0.
        let value = run
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("  {name:<36} {value:>16.6} {unit}");
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("}}");
    for e in &run.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
