//! `verify-kernels`: `repro sanitize` then `repro verify-static` as one
//! pass — every launch of the sanitizer's default kernel grid run under
//! the race/memory/barrier monitor, then the static verifier learning its
//! DGEMM model, proving the 408 Fig. 7/8 lattice configurations and
//! checking its closed-form event counts against executed ones. Only the
//! emulator, the monitor and the static model work here; the meter,
//! protocol, Pareto and serving layers do nothing. The inputs are the
//! shipped grids, so they do not depend on the seed.
//!
//! A traced pass sanitizes launch by launch (what `sanitize_all` does)
//! with a span per launch. Each launch is then run again uninstrumented,
//! and its pre-launch check alone, as reference measurements that split
//! the launch's time into emulator, pre-launch and monitor.

use crate::{closed_loop, median_rate, ms, overhead_pct, setup, trace, Ctx, Run};
use enprop_gpusim::emulator::{EmuDgemm, EmuEvents, EmuRowFft, GlobalMem};
use enprop_gpusim::GpuArch;
use enprop_sanitize::{
    dgemm_grid, fft_grid, prelaunch, sanitize_all, sanitize_dgemm, sanitize_fft,
};
use enprop_sanitize::{Checker, SanitizeReport};
use enprop_staticcheck::dgemm::{validate_counts, validation_set};
use enprop_staticcheck::fixtures::analyze_fixtures;
use enprop_staticcheck::{verify_fig_lattices, DgemmStaticModel};
use std::time::Instant;

/// `repro sanitize`'s default grid (N ≤ 64); `--all` adds N = 128 launches
/// that take seconds each, too long for a pass.
const ALL: bool = false;
/// Configurations in the four Fig. 7/8 lattices.
const LATTICE_CONFIGS: usize = 408;

struct VerifyPass {
    sanitize: SanitizeReport,
    sanitize_json: String,
    /// `None` when the DGEMM model could not be learned.
    statics: Option<StaticPass>,
}

#[derive(Debug, PartialEq)]
struct StaticPass {
    probe_launches: usize,
    /// Per lattice: label, configurations, findings, fallbacks.
    lattices: Vec<(String, usize, usize, usize)>,
    counts_exact: usize,
    counts_checked: usize,
}

impl VerifyPass {
    fn new(sanitize: SanitizeReport, statics: Option<StaticPass>) -> Self {
        let sanitize_json = trace::span("bench.serialize", || serde_json::to_string(&sanitize))
            .expect("serialize sanitize report");
        VerifyPass {
            sanitize,
            sanitize_json,
            statics,
        }
    }

    /// Launches checked: sanitized ones plus statically proven ones.
    fn launches(&self) -> usize {
        self.sanitize.kernels.len()
            + self
                .statics
                .as_ref()
                .map_or(0, |s| s.lattices.iter().map(|l| l.1).sum())
    }
}

fn static_pass() -> Option<StaticPass> {
    let model = trace::span("staticcheck.learn", DgemmStaticModel::learn).ok()?;
    let lattices = trace::span("staticcheck.lattice", || verify_fig_lattices(&model))
        .into_iter()
        .map(|s| (s.label, s.configs, s.findings, s.fallbacks))
        .collect();
    let validation = validation_set();
    let counts_exact = trace::span("staticcheck.validate", || {
        validation
            .iter()
            .filter(|cfg| {
                let (closed_form, executed) = validate_counts(&model, cfg);
                closed_form == executed
            })
            .count()
    });
    Some(StaticPass {
        probe_launches: model.probe_configs.len(),
        lattices,
        counts_exact,
        counts_checked: validation.len(),
    })
}

fn public_pass(arch: &GpuArch) -> VerifyPass {
    VerifyPass::new(sanitize_all(arch, ALL), static_pass())
}

/// `sanitize_all`, one span per launch.
fn traced_pass(arch: &GpuArch) -> VerifyPass {
    let mut kernels: Vec<_> = dgemm_grid(arch, ALL)
        .into_iter()
        .map(|cfg| trace::span("sanitizer.monitor", || sanitize_dgemm(cfg, arch)))
        .collect();
    for (n, rows) in fft_grid(ALL) {
        kernels.push(trace::span("sanitizer.monitor", || {
            sanitize_fft(n, rows, arch)
        }));
    }
    let sanitize = SanitizeReport {
        arch: arch.name.clone(),
        kernels,
    };
    VerifyPass::new(sanitize, static_pass())
}

/// What the uninstrumented reference runs executed.
#[derive(Default)]
struct Emulated {
    launches: usize,
    blocks: usize,
    events: EmuEvents,
}

/// Runs every launch of the grid's pre-launch check and its uninstrumented
/// emulation under one `ref.` root, so their times split the traced
/// launches' without counting as workload time, adding to `out`.
fn reference_runs(op: u32, arch: &GpuArch, out: &mut Emulated) {
    trace::root("ref.launches", op, || {
        for cfg in dgemm_grid(arch, ALL) {
            if !trace::span("sanitizer.prelaunch", || prelaunch::check_dgemm(&cfg, arch)).is_empty()
            {
                continue;
            }
            let mem = || GlobalMem::from_slice(&vec![0.5; cfg.n * cfg.n]);
            let (a, b, c) = (mem(), mem(), mem());
            let events = trace::span("gpu.emulator", || EmuDgemm::new(cfg).run(&a, &b, &c));
            let tiles = cfg.n / cfg.bs;
            out.add(tiles * tiles, events);
        }
        for (n, rows) in fft_grid(ALL) {
            if !trace::span("sanitizer.prelaunch", || {
                prelaunch::check_fft(n, rows, arch)
            })
            .is_empty()
            {
                continue;
            }
            let data = GlobalMem::from_slice(&vec![0.5; 2 * rows * n]);
            let events = trace::span("gpu.emulator", || EmuRowFft::new(n, rows).run(&data));
            out.add(rows, events);
        }
    });
}

impl Emulated {
    fn add(&mut self, blocks: usize, events: EmuEvents) {
        self.launches += 1;
        self.blocks += blocks;
        self.events = self.events.plus(events);
    }
}

/// Every launch clean, the whole lattice proven with no fallback, every
/// closed-form count exact.
fn check_pass(run: &mut Run, pass: &VerifyPass) -> bool {
    let mut ok = run.check(pass.sanitize.clean(), || {
        format!(
            "sanitizer reported {} finding(s) on the shipped kernels",
            pass.sanitize.total_findings()
        )
    });
    let Some(s) = &pass.statics else {
        return run.check(false, || {
            "the static DGEMM model could not be learned".into()
        });
    };
    let configs: usize = s.lattices.iter().map(|l| l.1).sum();
    let dirty: usize = s.lattices.iter().map(|l| l.2 + l.3).sum();
    ok &= run.check(configs == LATTICE_CONFIGS && dirty == 0, || {
        format!("static lattice sweep: {configs} configuration(s), {dirty} finding(s)/fallback(s)")
    });
    ok &= run.check(s.counts_exact == s.counts_checked, || {
        format!(
            "closed-form counts exact on {}/{} configurations",
            s.counts_exact, s.counts_checked
        )
    });
    ok
}

/// Each seeded buggy kernel is caught, dynamically by exactly its checker
/// and statically with matching diagnostics.
fn check_fixtures(run: &mut Run) {
    let corpus = enprop_sanitize::fixtures::self_test();
    let caught = corpus
        .iter()
        .filter(|(checker, r): &&(Checker, _)| {
            !r.findings.is_empty() && r.findings.iter().all(|f| f.checker == *checker)
        })
        .count();
    run.check(caught == 4 && corpus.len() == 4, || {
        format!("sanitizer caught {caught}/4 fixtures")
    });
    let outcomes = analyze_fixtures();
    let caught = outcomes.iter().filter(|o| o.caught && o.parity).count();
    run.check(caught == 4 && outcomes.len() == 4, || {
        format!("static verifier caught {caught}/4 fixtures with dynamic parity")
    });
}

pub fn kernels(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let arch = GpuArch::k40c();
    let ((), setups) = setup(|_| {
        public_pass(&arch);
    });

    if !ctx.trace {
        let mut launches = Vec::new();
        let latency = closed_loop(
            ctx.seconds,
            |_| public_pass(&arch),
            |_, pass| {
                launches.push(pass.launches() as f64);
                run.failed += u64::from(!check_pass(&mut run, &pass));
            },
        );
        run.attempted = latency.ms.len() as u64;
        run.end_to_end(median_rate(&launches, &latency.ms), &latency, &setups);
        check_fixtures(&mut run);
        return run;
    }

    let (mut traced_ms, mut public_ms) = (Vec::new(), Vec::new());
    let mut emulated = Emulated::default();
    let (mut monitored, mut findings, mut probes, mut lattice, mut fallbacks) = (0, 0, 0, 0, 0);
    let passes = closed_loop(
        ctx.seconds,
        |i| {
            let start = Instant::now();
            let traced = trace::root("op.pass", i, || traced_pass(&arch));
            traced_ms.push(ms(start.elapsed()));
            let start = Instant::now();
            let public = trace::untraced(|| public_pass(&arch));
            public_ms.push(ms(start.elapsed()));
            reference_runs(i, &arch, &mut emulated);
            (traced, public)
        },
        |i, (traced, public)| {
            let same = run.check(
                traced.sanitize_json == public.sanitize_json && traced.statics == public.statics,
                || format!("pass {i}: traced pipeline output differs from the public one"),
            );
            run.failed += u64::from(!(check_pass(&mut run, &public) && same));
            monitored += traced
                .sanitize
                .kernels
                .iter()
                .map(|k| k.monitored_blocks)
                .sum::<usize>();
            findings += traced.sanitize.total_findings();
            if let Some(s) = &traced.statics {
                probes += s.probe_launches;
                lattice += s.lattices.iter().map(|l| l.1).sum::<usize>();
                fallbacks += s.lattices.iter().map(|l| l.3).sum::<usize>();
            }
        },
    );
    run.attempted = passes.ms.len() as u64;
    check_fixtures(&mut run);

    let spans = trace::take();
    let mut attribution = trace::Attribution::of(&spans);
    let reference = |name| attribution.reference.get(name).copied().unwrap_or(0);
    let (prelaunch_ns, emulator_ns) = (reference("sanitizer.prelaunch"), reference("gpu.emulator"));
    let monitored_ns = attribution
        .self_ns
        .get("sanitizer.monitor")
        .copied()
        .unwrap_or(0);
    attribution.split(
        "sanitizer.monitor",
        &[
            ("sanitizer.prelaunch", prelaunch_ns),
            ("gpu.emulator", emulator_ns),
        ],
    );
    run.attribution(&attribution, spans.len());
    let e = emulated.events;
    let events = e.flops + e.shared_loads + e.shared_stores + e.global_loads + e.global_stores;
    run.set("trace.overhead_pct", overhead_pct(&traced_ms, &public_ms));
    run.tail(&public_ms);
    run.set("gpu.emulator.launches", emulated.launches as f64);
    run.set("gpu.emulator.blocks", emulated.blocks as f64);
    run.set("gpu.emulator.flops", e.flops as f64);
    run.set(
        "gpu.emulator.shared_accesses",
        (e.shared_loads + e.shared_stores) as f64,
    );
    run.set(
        "gpu.emulator.global_accesses",
        (e.global_loads + e.global_stores) as f64,
    );
    if emulator_ns > 0 {
        run.set(
            "gpu.emulator.events_per_us",
            events as f64 / (emulator_ns as f64 / 1e3),
        );
        run.set(
            "sanitizer.monitor.overhead_x",
            monitored_ns as f64 / emulator_ns as f64,
        );
    }
    run.set("sanitizer.monitor.monitored_blocks", monitored as f64);
    run.set("sanitizer.monitor.findings", findings as f64);
    run.set("staticcheck.probe_launches", probes as f64);
    run.set("staticcheck.lattice_configs", lattice as f64);
    run.set("staticcheck.fallbacks", fallbacks as f64);
    run.spans = spans;
    run
}
