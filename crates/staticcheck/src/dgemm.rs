//! Parametric static analysis of the shipped tiled-DGEMM family.
//!
//! The full fig7/fig8 sweep lattice spans configs up to N = 14336 —
//! far beyond anything worth executing, even instrumented. This module
//! closes the gap in three steps:
//!
//! 1. **Probe tiny configs.** A structured set of miniature launches
//!    (BS ≤ 5, 2–3 tiles, a handful of products) runs fully
//!    instrumented; each is summarized into verified affine families
//!    ([`crate::affine`]).
//! 2. **Fit the family schedule and coefficients.** The per-config
//!    phase sequence is matched against the DGEMM *role grammar*
//!    (stage / MAC / separated retire / fused retire+stage, the fusing
//!    rule `m ≡ 0 (mod G)` at run boundaries); per-role family
//!    constants gain per-tile-step and per-product drift terms, and
//!    every coefficient — plus the per-launch event counters — is
//!    fitted as an exact integer polynomial over a fixed monomial basis
//!    in `(BS, N)` resp. `(T, BS, G, R)` ([`crate::solve`]). A fit must
//!    reproduce *every* probe exactly or the family falls back.
//! 3. **Instantiate anywhere.** Any lattice config — executable or not
//!    — instantiates the fitted model into four role groups and runs
//!    the analytic checks ([`crate::checks`]) plus closed-form event
//!    counts, in under a millisecond.
//!
//! Probes (step 1) and lattice configs (step 3) run on every core through
//! [`enprop_par::map_with`], one per claim, with results kept in
//! enumeration order, so neither the model nor any report depends on the
//! core count.
//!
//! Configs whose BS does not divide N are analyzed at the padded
//! geometry `N′ = ⌈N/BS⌉·BS` — the same convention the analytic
//! [`CuptiReport`](enprop_gpusim::CuptiReport) model uses for its
//! `div_ceil` tile counts.

use crate::affine::{summarize_launch, Coeffs, LaunchShape};
use crate::checks::{run_checks, CheckFamily, CheckGroup, CheckSpace};
use crate::probe::probe_grid_dgemm;
use crate::report::{Fallback, FallbackKind, StaticReport};
use crate::solve::{eval_poly, fit_int_poly};
use enprop_gpusim::emulator::{BlockExit, EmuDgemm, EmuEvents, GlobalMem};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_par::host_parallelism;
use enprop_sanitize::report::{AccessKind, MemSpace};
use std::collections::BTreeMap;

/// Per-figure product total (the paper's sweeps fix `G·R = 8`).
pub const TOTAL_PRODUCTS: usize = 8;

/// The four structural roles a DGEMM barrier phase can play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Stage one tile pair into shared memory.
    Stage,
    /// Multiply-accumulate over the staged tiles.
    Mac,
    /// Retire one product (read-modify-write `C`).
    RetireSep,
    /// Retire fused with the next product's first stage (run boundary).
    RetireFused,
}

impl Role {
    fn label(self) -> &'static str {
        match self {
            Role::Stage => "stage",
            Role::Mac => "mac",
            Role::RetireSep => "retire",
            Role::RetireFused => "retire+stage",
        }
    }
}

/// Generates the phase schedule for `(tiles, products, group)`:
/// `(role, τ, m)` per phase, mirroring the kernel's run-boundary fusing
/// (verified, not assumed: every probe config's observed phases must
/// match this schedule exactly or learning fails).
pub fn dgemm_schedule(tiles: usize, products: usize, group: usize) -> Vec<(Role, usize, usize)> {
    let mut v = Vec::with_capacity(2 * tiles * products + products);
    let mut fused_next = false;
    for m in 0..products {
        for tau in 0..tiles {
            if !(tau == 0 && fused_next) {
                v.push((Role::Stage, tau, m));
            }
            v.push((Role::Mac, tau, m));
        }
        let last = m + 1 == products;
        fused_next = !last && (m + 1) % group == 0;
        v.push((if fused_next { Role::RetireFused } else { Role::RetireSep }, 0, m));
    }
    v
}

/// Phase index of the retire phase of product `m` (used only to name a
/// representative phase in diagnostics).
fn phase_of_retire(m: usize, tiles: usize, group: usize) -> usize {
    (m + 1) * (2 * tiles + 1) - 1 - m / group
}

/// Monomial basis for address coefficients, in `(bs, n)`.
fn abasis(bs: i128, n: i128) -> Vec<i128> {
    vec![1, bs, n, bs * bs, n * bs]
}
const ABASIS_LEN: usize = 5;

/// Monomial basis for the inner-repeat count, in `bs`.
fn kbasis(bs: i128) -> Vec<i128> {
    vec![1, bs]
}
const KBASIS_LEN: usize = 2;

/// Monomial basis for per-launch event counts, in `(T, bs, g, r)`.
fn cbasis(t: i128, bs: i128, g: i128, r: i128) -> Vec<i128> {
    let t2 = t * t;
    let gr = g * r;
    vec![
        t2,
        t2 * r,
        t2 * gr,
        t2 * t * gr,
        t2 * bs * gr,
        t2 * bs * bs * gr,
        t2 * bs * bs * bs * gr,
        t2 * t * bs * gr,
        t2 * t * bs * bs * gr,
        t2 * t * bs * bs * bs * gr,
    ]
}
const CBASIS_LEN: usize = 10;

/// The tiny structured probe set: every `(BS, T) ∈ {2..5} × {2, 3}`
/// combination appears with varied `(G, R)` (fused and unfused run
/// boundaries, `R ≥ 3` so per-product drift is identifiable). Total
/// probe work is a few hundred thousand scalar accesses — milliseconds.
fn probe_set() -> Vec<TiledDgemmConfig> {
    let specs: [(usize, usize, usize, usize); 20] = [
        (2, 2, 1, 2),
        (2, 3, 2, 2),
        (2, 2, 4, 1),
        (2, 3, 8, 2),
        (2, 2, 2, 3),
        (2, 3, 1, 3),
        (3, 2, 1, 3),
        (3, 3, 2, 2),
        (3, 2, 4, 2),
        (3, 3, 8, 1),
        (3, 3, 2, 3),
        (4, 2, 2, 3),
        (4, 3, 1, 2),
        (4, 2, 8, 2),
        (4, 3, 2, 3),
        (5, 2, 1, 2),
        (5, 3, 2, 2),
        (5, 2, 4, 4),
        (5, 3, 8, 1),
        (5, 2, 2, 3),
    ];
    specs
        .iter()
        .map(|&(bs, t, g, r)| TiledDgemmConfig { n: bs * t, bs, g, r })
        .collect()
}

/// Structural identity of a family slot (everything except the fitted
/// coefficient values).
type SlotShape = (MemSpace, Option<usize>, AccessKind);

/// One family slot observed in one probe config.
#[derive(Debug, Clone)]
struct SlotObs {
    shape: SlotShape,
    k: usize,
    // c0, dk, c1, c2, c3, c4, e1, e2
    coeffs: [i128; 8],
    e1_known: bool,
    e2_known: bool,
}

/// Per-role family slots of one probe config.
type ConfigRoles = BTreeMap<Role, Vec<SlotObs>>;

/// One family slot of the fitted cross-config model.
#[derive(Debug, Clone)]
struct SlotModel {
    shape: SlotShape,
    k: Vec<i128>,        // polynomial over `kbasis`
    coeffs: [Vec<i128>; 8], // polynomials over `abasis`
}

/// The fitted DGEMM family model: everything needed to verify (and
/// count) any `(N, BS, G, R)` config without executing it.
#[derive(Debug, Clone)]
pub struct DgemmStaticModel {
    roles: Vec<(Role, Vec<SlotModel>)>,
    /// flops, shared_loads, shared_stores, global_loads, global_stores,
    /// barriers — polynomials over `cbasis`.
    counts: [Vec<i128>; 6],
    /// The probe configs the model was learned from.
    pub probe_configs: Vec<TiledDgemmConfig>,
}

/// Registered DGEMM buffer names, in probe registration order.
const BUF_NAMES: [&str; 3] = ["A", "B", "C"];

/// Probes one executable config fully instrumented and returns the
/// verified launch summary plus its flushed event counters.
fn probe_config(cfg: TiledDgemmConfig) -> Result<(LaunchShape, EmuEvents), Fallback> {
    let (blocks, events, registry) = probe_grid_dgemm(cfg);
    for b in &blocks {
        if let BlockExit::Diverged { phase, .. } = &b.exit {
            return Err(Fallback::launch(
                FallbackKind::Unsupported,
                format!("probe block ({}, {}) diverged in phase {phase}", b.bx, b.by),
            ));
        }
    }
    let tiles = cfg.n / cfg.bs;
    let shape = summarize_launch(&blocks, (cfg.bs, cfg.bs), (tiles, tiles), &registry)?;
    Ok((shape, events))
}

/// Fits `c0(τ, m) = base + e1·τ + e2·m` exactly over a slot's observed
/// occurrences.
fn fit_occurrences(occ: &[(i128, i128, i128)]) -> Option<(i128, i128, i128, bool, bool)> {
    let mut e1 = None;
    let mut e2 = None;
    for i in 0..occ.len() {
        for j in (i + 1)..occ.len() {
            let (ti, mi, vi) = occ[i];
            let (tj, mj, vj) = occ[j];
            if mi == mj && ti != tj && e1.is_none() {
                let (d, dt) = (vj - vi, tj - ti);
                if d % dt != 0 {
                    return None;
                }
                e1 = Some(d / dt);
            }
            if ti == tj && mi != mj && e2.is_none() {
                let (d, dm) = (vj - vi, mj - mi);
                if d % dm != 0 {
                    return None;
                }
                e2 = Some(d / dm);
            }
        }
    }
    let (e1v, e2v) = (e1.unwrap_or(0), e2.unwrap_or(0));
    let (t0, m0, v0) = occ[0];
    let base = v0 - e1v * t0 - e2v * m0;
    for &(t, m, v) in occ {
        if v != base + e1v * t + e2v * m {
            return None;
        }
    }
    Some((base, e1v, e2v, e1.is_some(), e2.is_some()))
}

/// Matches one probe config's phases against the role grammar and fits
/// per-slot occurrence drift.
fn roles_of_config(cfg: TiledDgemmConfig, shape: &LaunchShape) -> Result<ConfigRoles, Fallback> {
    let tiles = cfg.n / cfg.bs;
    let sched = dgemm_schedule(tiles, cfg.products(), cfg.g);
    if sched.len() != shape.phases.len() {
        return Err(Fallback::launch(
            FallbackKind::NonAffine,
            format!(
                "{cfg}: observed {} phases where the role grammar predicts {}",
                shape.phases.len(),
                sched.len()
            ),
        ));
    }
    let mut occs: BTreeMap<Role, Vec<(usize, usize, usize)>> = BTreeMap::new();
    for (pi, &(role, tau, m)) in sched.iter().enumerate() {
        occs.entry(role).or_default().push((pi, tau, m));
    }
    let mut roles = ConfigRoles::new();
    for (role, phases) in occs {
        let first = &shape.phases[phases[0].0];
        // Structural agreement across occurrences.
        for &(pi, _, _) in &phases {
            let ph = &shape.phases[pi];
            let same = ph.families.len() == first.families.len()
                && ph.families.iter().zip(&first.families).all(|(a, b)| {
                    (a.space, a.buf, a.kind, a.k, a.co.dk, a.co.c1, a.co.c2, a.co.c3, a.co.c4)
                        == (b.space, b.buf, b.kind, b.k, b.co.dk, b.co.c1, b.co.c2, b.co.c3, b.co.c4)
                });
            if !same {
                return Err(Fallback::launch(
                    FallbackKind::NonAffine,
                    format!(
                        "{cfg}: phase {pi} does not match the {} role's family shape",
                        role.label()
                    ),
                ));
            }
        }
        let mut slots = Vec::with_capacity(first.families.len());
        for (si, fam) in first.families.iter().enumerate() {
            let occ: Vec<(i128, i128, i128)> = phases
                .iter()
                .map(|&(pi, tau, m)| {
                    (tau as i128, m as i128, shape.phases[pi].families[si].co.c0)
                })
                .collect();
            let (base, e1, e2, e1_known, e2_known) =
                fit_occurrences(&occ).ok_or_else(|| {
                    Fallback::new(
                        FallbackKind::NonAffine,
                        Some(phases[0].0),
                        Some(fam.space),
                        fam.buf.map(|b| BUF_NAMES[b]),
                        format!(
                            "{cfg}: {} role base address is not affine in (τ, m)",
                            role.label()
                        ),
                    )
                })?;
            slots.push(SlotObs {
                shape: (fam.space, fam.buf, fam.kind),
                k: fam.k,
                coeffs: [base, fam.co.dk, fam.co.c1, fam.co.c2, fam.co.c3, fam.co.c4, e1, e2],
                e1_known,
                e2_known,
            });
        }
        roles.insert(role, slots);
    }
    Ok(roles)
}

impl DgemmStaticModel {
    /// Learns the model from the structured probe set: probe, fit,
    /// verify — any inconsistency is a typed fallback.
    ///
    /// The probes are run and role-matched on [`host_parallelism`]
    /// workers; the first fallback in probe order is the one returned.
    pub fn learn() -> Result<DgemmStaticModel, Fallback> {
        let probes = probe_set();
        let probe = |_: &mut (), i: usize| -> Result<_, Fallback> {
            let cfg = probes[i];
            let (shape, events) = probe_config(cfg)?;
            let roles = roles_of_config(cfg, &shape)?;
            Ok((cfg, roles, events))
        };
        let per_config: Vec<(TiledDgemmConfig, ConfigRoles, EmuEvents)> =
            enprop_par::map_with(probes.len(), host_parallelism(), || (), probe)
                .into_iter()
                .collect::<Result<_, Fallback>>()?;

        // Cross-config coefficient fit, one role at a time.
        let mut roles = Vec::new();
        for role in [Role::Stage, Role::Mac, Role::RetireSep, Role::RetireFused] {
            let with_role: Vec<&(TiledDgemmConfig, ConfigRoles, EmuEvents)> =
                per_config.iter().filter(|(_, r, _)| r.contains_key(&role)).collect();
            if with_role.is_empty() {
                continue;
            }
            let first_slots = &with_role[0].1[&role];
            for (cfg, r, _) in with_role.iter().skip(1).copied() {
                let slots = &r[&role];
                if slots.len() != first_slots.len()
                    || slots.iter().zip(first_slots).any(|(a, b)| a.shape != b.shape)
                {
                    return Err(Fallback::launch(
                        FallbackKind::NonAffine,
                        format!("{cfg}: {} role family layout varies across configs", role.label()),
                    ));
                }
            }
            let mut slot_models = Vec::with_capacity(first_slots.len());
            for si in 0..first_slots.len() {
                let shape = first_slots[si].shape;
                let buf_name = shape.1.map(|b| BUF_NAMES[b]);
                let fit_err = |what: &str| {
                    Fallback::new(
                        FallbackKind::NonAffine,
                        None,
                        Some(shape.0),
                        buf_name,
                        format!(
                            "{} role: {what} has no exact polynomial fit over the probe set",
                            role.label()
                        ),
                    )
                };
                let k_rows: Vec<(Vec<i128>, i128)> = with_role
                    .iter()
                    .map(|(cfg, r, _)| (kbasis(cfg.bs as i128), r[&role][si].k as i128))
                    .collect();
                let k = fit_int_poly(&k_rows, KBASIS_LEN)
                    .ok_or_else(|| fit_err("inner repeat count"))?;
                let mut coeffs: [Vec<i128>; 8] = Default::default();
                for (ci, slot_coeffs) in coeffs.iter_mut().enumerate() {
                    let rows: Vec<(Vec<i128>, i128)> = with_role
                        .iter()
                        .filter(|(_, r, _)| match ci {
                            6 => r[&role][si].e1_known,
                            7 => r[&role][si].e2_known,
                            _ => true,
                        })
                        .map(|(cfg, r, _)| {
                            (abasis(cfg.bs as i128, cfg.n as i128), r[&role][si].coeffs[ci])
                        })
                        .collect();
                    *slot_coeffs = if rows.is_empty() {
                        // Drift never identifiable ⇒ the dimension is
                        // degenerate in every probe AND every target
                        // where the term could matter would need it —
                        // treat as zero only when no probe disagrees.
                        vec![0; ABASIS_LEN]
                    } else {
                        fit_int_poly(&rows, ABASIS_LEN)
                            .ok_or_else(|| fit_err("address coefficient"))?
                    };
                }
                slot_models.push(SlotModel { shape, k, coeffs });
            }
            roles.push((role, slot_models));
        }

        // Per-launch event-count fit.
        let mut counts: [Vec<i128>; 6] = Default::default();
        let field = |e: &EmuEvents, i: usize| match i {
            0 => e.flops,
            1 => e.shared_loads,
            2 => e.shared_stores,
            3 => e.global_loads,
            4 => e.global_stores,
            _ => e.barriers,
        };
        for (i, c) in counts.iter_mut().enumerate() {
            let rows: Vec<(Vec<i128>, i128)> = per_config
                .iter()
                .map(|(cfg, _, ev)| {
                    let t = (cfg.n / cfg.bs) as i128;
                    (cbasis(t, cfg.bs as i128, cfg.g as i128, cfg.r as i128), field(ev, i) as i128)
                })
                .collect();
            *c = fit_int_poly(&rows, CBASIS_LEN).ok_or_else(|| {
                Fallback::launch(
                    FallbackKind::NonAffine,
                    "event counters have no exact polynomial fit over the probe set".to_string(),
                )
            })?;
        }

        Ok(DgemmStaticModel { roles, counts, probe_configs: probes })
    }

    /// Padded geometry `(n′, tiles)` for a (possibly indivisible) config.
    fn padded(cfg: &TiledDgemmConfig) -> (usize, usize) {
        let tiles = cfg.n.div_ceil(cfg.bs);
        (tiles * cfg.bs, tiles)
    }

    /// Instantiates the model at one config as a [`CheckSpace`] of role
    /// groups (in first-occurrence order).
    fn check_space(&self, cfg: &TiledDgemmConfig) -> CheckSpace {
        let (n_pad, tiles) = Self::padded(cfg);
        let p = cfg.products();
        let (bs, nl) = (cfg.bs as i128, n_pad as i128);
        let shared_len = 2 * cfg.bs * cfg.bs;
        let mut groups = Vec::new();
        for (role, slots) in &self.roles {
            let present = match role {
                Role::Stage | Role::Mac | Role::RetireSep => true,
                Role::RetireFused => cfg.r >= 2,
            };
            if !present {
                continue;
            }
            let phase = match role {
                Role::Stage => 0,
                Role::Mac => 1,
                Role::RetireSep => {
                    let m = if cfg.g == 1 && p > 1 { p - 1 } else { 0 };
                    phase_of_retire(m, tiles, cfg.g)
                }
                Role::RetireFused => phase_of_retire(cfg.g - 1, tiles, cfg.g),
            };
            let (tau, prod) = match role {
                Role::Stage | Role::Mac => (tiles, p),
                Role::RetireSep | Role::RetireFused => (1, p),
            };
            let families = slots
                .iter()
                .map(|s| {
                    let ab = abasis(bs, nl);
                    let c = &s.coeffs;
                    CheckFamily {
                        space: s.shape.0,
                        buffer: s.shape.1.map(|b| BUF_NAMES[b].to_string()),
                        len: if s.shape.0 == MemSpace::Shared {
                            shared_len
                        } else {
                            n_pad * n_pad
                        },
                        kind: s.shape.2,
                        k: eval_poly(&s.k, &kbasis(bs)).max(0) as usize,
                        co: Coeffs {
                            c0: eval_poly(&c[0], &ab),
                            dk: eval_poly(&c[1], &ab),
                            c1: eval_poly(&c[2], &ab),
                            c2: eval_poly(&c[3], &ab),
                            c3: eval_poly(&c[4], &ab),
                            c4: eval_poly(&c[5], &ab),
                            e1: eval_poly(&c[6], &ab),
                            e2: eval_poly(&c[7], &ab),
                        },
                    }
                })
                .collect();
            groups.push(CheckGroup {
                phase,
                label: format!("{} phases", role.label()),
                tau,
                prod,
                families,
            });
        }
        // First-occurrence order drives shared coverage: stage, mac,
        // then retires ordered by their representative phase.
        groups.sort_by_key(|g| g.phase);
        CheckSpace {
            groups,
            block: (cfg.bs, cfg.bs),
            grid: (tiles, tiles),
            shared_len,
        }
    }

    /// Statically verifies one config: race / OOB / barrier safety from
    /// the fitted summaries alone. No kernel code runs.
    pub fn verify_config(&self, cfg: &TiledDgemmConfig) -> StaticReport {
        let cs = self.check_space(cfg);
        let (findings, fallbacks) = run_checks(&cs);
        let mut report = StaticReport::new(format!("{cfg}"));
        report.findings = findings;
        report.fallbacks = fallbacks;
        report
    }

    /// Closed-form event counts for one config (padded geometry when
    /// `BS ∤ N`) — the analytic counterpart of a flushed [`EmuEvents`].
    pub fn counts(&self, cfg: &TiledDgemmConfig) -> EmuEvents {
        let (_, tiles) = Self::padded(cfg);
        let basis = cbasis(tiles as i128, cfg.bs as i128, cfg.g as i128, cfg.r as i128);
        let at = |i: usize| {
            let v = eval_poly(&self.counts[i], &basis);
            debug_assert!(v >= 0);
            v as u64
        };
        EmuEvents {
            flops: at(0),
            shared_loads: at(1),
            shared_stores: at(2),
            global_loads: at(3),
            global_stores: at(4),
            barriers: at(5),
        }
    }
}

/// Cross-validation configs: executable (BS | N), disjoint from the
/// probe set, spanning BS 3..32 including both fused and unfused run
/// boundaries.
pub fn validation_set() -> Vec<TiledDgemmConfig> {
    [
        (24, 3, 2, 1),
        (32, 4, 2, 4),
        (32, 8, 8, 1),
        (36, 6, 1, 2),
        (40, 5, 8, 1),
        (48, 6, 4, 2),
        (48, 12, 2, 2),
        (64, 8, 4, 2),
        (64, 16, 2, 4),
        (64, 32, 1, 8),
    ]
    .iter()
    .map(|&(n, bs, g, r)| TiledDgemmConfig { n, bs, g, r })
    .collect()
}

/// Runs one validation config and compares flushed events against the
/// model's closed forms. Returns the `(static, dynamic)` pair.
pub fn validate_counts(model: &DgemmStaticModel, cfg: &TiledDgemmConfig) -> (EmuEvents, EmuEvents) {
    let zeros = vec![0.0; cfg.n * cfg.n];
    let a = GlobalMem::from_slice(&zeros);
    let b = GlobalMem::from_slice(&zeros);
    let c = GlobalMem::from_slice(&zeros);
    let dynamic = EmuDgemm::new(*cfg).run(&a, &b, &c);
    (model.counts(cfg), dynamic)
}

/// One lattice sweep's outcome.
#[derive(Debug, Clone)]
pub struct LatticeSweep {
    /// `"K40c n=8704"`-style label.
    pub label: String,
    /// Configs analyzed.
    pub configs: usize,
    /// Total findings across the sweep.
    pub findings: usize,
    /// Total fallbacks across the sweep.
    pub fallbacks: usize,
    /// Reports of configs that were not proven clean.
    pub dirty: Vec<StaticReport>,
}

/// The fig7/fig8 lattice specs: `(label, arch, n)`.
pub fn fig_lattice_specs() -> Vec<(String, GpuArch, usize)> {
    let mut v = Vec::new();
    for n in [8704usize, 10240] {
        v.push((format!("K40c n={n}"), GpuArch::k40c(), n));
    }
    for n in [10240usize, 14336] {
        v.push((format!("P100 n={n}"), GpuArch::p100_pcie(), n));
    }
    v
}

/// Analytically sweeps every fig7/fig8 lattice config through the
/// fitted model.
///
/// The configs of all four lattices are verified as one flat list on
/// [`host_parallelism`] workers, then folded back per lattice in
/// enumeration order, so the outcome does not depend on the core count.
pub fn verify_fig_lattices(model: &DgemmStaticModel) -> Vec<LatticeSweep> {
    let lattices: Vec<(String, Vec<TiledDgemmConfig>)> = fig_lattice_specs()
        .into_iter()
        .map(|(label, arch, n)| (label, TiledDgemmConfig::enumerate(&arch, n, TOTAL_PRODUCTS)))
        .collect();
    let flat: Vec<&TiledDgemmConfig> = lattices.iter().flat_map(|(_, cfgs)| cfgs).collect();
    let verify = |_: &mut (), i: usize| model.verify_config(flat[i]);
    let mut reports =
        enprop_par::map_with(flat.len(), host_parallelism(), || (), verify).into_iter();
    lattices
        .into_iter()
        .map(|(label, configs)| {
            let mut sweep = LatticeSweep {
                label,
                configs: configs.len(),
                findings: 0,
                fallbacks: 0,
                dirty: Vec::new(),
            };
            for report in reports.by_ref().take(configs.len()) {
                sweep.findings += report.findings.len();
                sweep.fallbacks += report.fallbacks.len();
                if !report.proven_clean() {
                    sweep.dirty.push(report);
                }
            }
            sweep
        })
        .collect()
}
