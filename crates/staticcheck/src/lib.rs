//! Static launch-space verifier for the barrier-phase block kernels.
//!
//! `enprop-staticcheck` proves race / out-of-bounds / barrier safety —
//! and closed-form event counts — for entire sweep lattices without
//! executing the swept configs. The pipeline:
//!
//! 1. **Probe** ([`probe`]): a recording [`probe::ProbeSink`] on the
//!    emulator's `AccessSink` seam captures every access of a tiny
//!    structured set of launches.
//! 2. **Fit + verify** ([`affine`], [`solve`]): per-thread access
//!    streams are split into families and fitted as affine forms
//!    `addr = c0 + dk·k + c1·tx + c2·ty + c3·bx + c4·by + e1·τ + e2·m`;
//!    every recorded access must satisfy its form exactly. Anything
//!    non-affine becomes a typed [`report::Fallback`] (the caller keeps
//!    using the dynamic sanitizer there) — never a silent pass.
//! 3. **Check** ([`checks`]): pure arithmetic over the verified forms —
//!    interval maximization for OOB, exact small-domain enumeration for
//!    shared/intra-block hazards, bounded linear-Diophantine solving for
//!    inter-block write-sharing.
//! 4. **Generalize** ([`dgemm`]): for the shipped DGEMM family, probe
//!    configs' coefficients are refitted as integer polynomials in
//!    `(BS, N)` (and event counts in `(T, BS, G, R)`), so any fig7/fig8
//!    lattice config — far too large to execute — is verified and
//!    counted analytically in under a millisecond.
//!
//! [`analyze_launch`] is the concrete entry point (used for the seeded
//! buggy fixtures); [`dgemm::DgemmStaticModel`] is the parametric one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affine;
pub mod checks;
pub mod dgemm;
pub mod fixtures;
pub mod probe;
pub mod report;
pub mod solve;

pub use dgemm::{verify_fig_lattices, DgemmStaticModel};
pub use report::{Fallback, FallbackKind, StaticFinding, StaticReport};

use checks::{run_checks, CheckFamily, CheckGroup, CheckSpace};
use enprop_gpusim::emulator::{BlockExit, BlockKernel, BufId, Dim2};
use enprop_sanitize::report::Checker;

/// Statically analyzes one concrete launch: probes it instrumented,
/// fits and verifies affine summaries, and runs every analytic check
/// with one singleton group per phase.
///
/// `buffers` names the kernel's global allocations (`(id, name, len)`),
/// exactly like the dynamic sanitizer's buffer table.
pub fn analyze_launch<K: BlockKernel>(
    label: &str,
    grid: Dim2,
    kernel: &K,
    buffers: &[(BufId, &'static str, usize)],
) -> StaticReport {
    let mut report = StaticReport::new(label.to_string());
    let (blocks, _events) = probe::probe_grid(grid, kernel);
    for b in &blocks {
        if let BlockExit::Diverged { phase, synced, returned } = &b.exit {
            let first_early = returned.first().copied().unwrap_or((0, 0));
            report.findings.push(StaticFinding {
                checker: Checker::Synccheck,
                phase: Some(*phase),
                space: None,
                buffer: None,
                message: format!(
                    "static synccheck: barrier divergence proven in phase {phase} of block \
                     ({}, {}): {} thread(s) synced while {} returned (first early thread \
                     ({}, {}))",
                    b.bx,
                    b.by,
                    synced.len(),
                    returned.len(),
                    first_early.0,
                    first_early.1,
                ),
            });
        }
    }
    let registry: Vec<(BufId, String, usize)> =
        buffers.iter().map(|&(id, name, len)| (id, name.to_string(), len)).collect();
    let block = kernel.block();
    match affine::summarize_launch(&blocks, (block.x, block.y), (grid.x, grid.y), &registry) {
        Err(fb) => report.fallbacks.push(fb),
        Ok(shape) => {
            let groups = shape
                .phases
                .iter()
                .enumerate()
                .map(|(pi, ph)| CheckGroup {
                    phase: pi,
                    label: format!("phase {pi}"),
                    tau: 1,
                    prod: 1,
                    families: ph
                        .families
                        .iter()
                        .map(|f| CheckFamily {
                            space: f.space,
                            buffer: f.buf.map(|bi| registry[bi].1.clone()),
                            len: match f.buf {
                                Some(bi) => registry[bi].2,
                                None => kernel.shared_len(),
                            },
                            kind: f.kind,
                            k: f.k,
                            co: f.co,
                        })
                        .collect(),
                })
                .collect();
            let cs = CheckSpace {
                groups,
                block: (block.x, block.y),
                grid: (grid.x, grid.y),
                shared_len: kernel.shared_len(),
            };
            let (findings, fallbacks) = run_checks(&cs);
            report.findings.extend(findings);
            report.fallbacks.extend(fallbacks);
        }
    }
    report
}
