//! Analytic safety checks over affine access summaries.
//!
//! Every check here is pure arithmetic over the fitted families — no
//! kernel code runs. The engine consumes a [`CheckSpace`]: phase groups
//! in first-occurrence order, each holding verified families plus the
//! occurrence domains (`τ` tile-steps × `m` products) the group stands
//! for. Concrete launches use one singleton group per phase; the
//! parametric DGEMM analyzer compresses thousands of phases into four
//! role groups.
//!
//! Checks (mirroring the dynamic sanitizer's checkers):
//!
//! * **memcheck / OOB** — interval maximization of each affine form over
//!   its full index domain against the allocation extent.
//! * **memcheck / uninit** — shared-memory coverage: every read cell
//!   must be covered by an earlier (or same-phase) write, tracking the
//!   same deferred-uninit semantics the dynamic monitor uses.
//! * **racecheck (intra-block)** — same-phase conflicting accesses by
//!   distinct threads, by exact enumeration of the (small) thread box.
//! * **racecheck (inter-block)** — global write-sharing across blocks,
//!   decided by bounded linear-Diophantine solving (extended GCD +
//!   interval intersection) on coefficient deltas.
//!
//! Anything outside the decidable fragment becomes a typed
//! [`Fallback`], never a silent pass.
//!
//! The enumerating checks and the Diophantine solver compute addresses in
//! `i64`: a family enters them only after `Co::narrow` has bounded every
//! address it can form over the enumerated box (the lattices' addresses
//! are below N² < 2²⁸), and the solver's own steps are checked. A family
//! or a solve that does not fit is an [`Overflow`](FallbackKind::Overflow)
//! fallback.

use crate::affine::Coeffs;
use crate::report::{hazard_label, Fallback, FallbackKind, StaticFinding};
use crate::solve::{div_ceil, div_floor, ext_gcd};
use enprop_sanitize::report::{AccessKind, Checker, MemSpace};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Findings reported per (group, check) before the engine moves on — a
/// proof needs one witness, not a flood.
const FINDING_CAP: usize = 2;

/// One family inside a check group, with its buffer resolved to a name
/// and extent.
#[derive(Debug, Clone)]
pub struct CheckFamily {
    /// Memory space.
    pub space: MemSpace,
    /// Buffer name (global memory only).
    pub buffer: Option<String>,
    /// Allocation extent the accesses must stay inside.
    pub len: usize,
    /// Load or store.
    pub kind: AccessKind,
    /// Inner repeat count (`k` ∈ [0, K)).
    pub k: usize,
    /// The verified coefficients.
    pub co: Coeffs,
}

/// A group of identically-shaped phases (one phase for concrete
/// launches; a whole role for parametric ones).
#[derive(Debug, Clone)]
pub struct CheckGroup {
    /// Representative phase for diagnostics (first occurrence).
    pub phase: usize,
    /// Display label (`"phase 3"`, `"stage"`, …).
    pub label: String,
    /// Occurrence domain sizes: τ ∈ [0, tau), m ∈ [0, prod).
    pub tau: usize,
    /// See `tau`.
    pub prod: usize,
    /// The group's verified families.
    pub families: Vec<CheckFamily>,
}

/// Everything the checks need about one launch.
#[derive(Debug, Clone)]
pub struct CheckSpace {
    /// Groups in first-occurrence order (drives shared-memory coverage).
    pub groups: Vec<CheckGroup>,
    /// Block dimensions `(width, height)`.
    pub block: (usize, usize),
    /// Grid dimensions `(width, height)`.
    pub grid: (usize, usize),
    /// Shared allocation length per block.
    pub shared_len: usize,
}

/// A family's occurrence-0 coefficients in `i64`, for a box over which no
/// address can overflow (see [`Co::narrow`]).
#[derive(Debug, Clone, Copy)]
struct Co {
    c0: i64,
    dk: i64,
    c1: i64,
    c2: i64,
    c3: i64,
    c4: i64,
}

impl Co {
    /// `co` in `i64` for `k < extents[0]`, `tx < extents[1]`,
    /// `ty < extents[2]`, `bx < extents[3]`, `by < extents[4]` (occurrence
    /// 0): `None` unless `|c0| + Σ |coef|·(extent − 1)`, which bounds every
    /// partial sum of [`at`](Co::at), is at most `i64::MAX / 2`, so that
    /// the difference of two such addresses fits too.
    fn narrow(co: &Coeffs, extents: [usize; 5]) -> Option<Co> {
        let coefs = [co.dk, co.c1, co.c2, co.c3, co.c4];
        let mut bound = co.c0.checked_abs()?;
        for (c, e) in coefs.into_iter().zip(extents) {
            let term = c.checked_abs()?.checked_mul(e.saturating_sub(1) as i128)?;
            bound = bound.checked_add(term)?;
        }
        if bound > (i64::MAX / 2) as i128 {
            return None;
        }
        let [dk, c1, c2, c3, c4] = coefs.map(|c| c as i64);
        Some(Co { c0: co.c0 as i64, dk, c1, c2, c3, c4 })
    }

    /// The address at `(k, tx, ty, bx, by)` of occurrence 0.
    #[inline]
    fn at(&self, k: i64, tx: i64, ty: i64, bx: i64, by: i64) -> i64 {
        self.c0 + self.dk * k + self.c1 * tx + self.c2 * ty + self.c3 * bx + self.c4 * by
    }
}

/// Each family with its coefficients narrowed over the box `extents`
/// gives it, or the first family that does not fit.
fn narrow_all<'f>(
    fams: impl IntoIterator<Item = &'f CheckFamily>,
    extents: impl Fn(&CheckFamily) -> [usize; 5],
) -> Result<Vec<(&'f CheckFamily, Co)>, &'f CheckFamily> {
    fams.into_iter().map(|f| Co::narrow(&f.co, extents(f)).map(|co| (f, co)).ok_or(f)).collect()
}

/// The fallback for a family (or a solve over it) that leaves `i64`.
fn overflow(g: &CheckGroup, f: &CheckFamily, what: &str) -> Fallback {
    Fallback::new(
        FallbackKind::Overflow,
        Some(g.phase),
        Some(f.space),
        f.buffer.as_deref(),
        format!("{}: {what} leaves the 64-bit range of the checks", g.label),
    )
}

/// Interval of an affine form over its box domain, together with the
/// coordinates attaining the maximum (for witness messages).
struct Extremes {
    lo: i128,
    hi: i128,
    hi_thread: (usize, usize),
}

fn term(coef: i128, size: usize) -> (i128, i128) {
    let top = coef * (size.max(1) as i128 - 1);
    if coef >= 0 {
        (0, top)
    } else {
        (top, 0)
    }
}

fn extremes(f: &CheckFamily, g: &CheckGroup, cs: &CheckSpace) -> Extremes {
    let dims = [
        (f.co.dk, f.k),
        (f.co.c1, cs.block.0),
        (f.co.c2, cs.block.1),
        (f.co.c3, cs.grid.0),
        (f.co.c4, cs.grid.1),
        (f.co.e1, g.tau),
        (f.co.e2, g.prod),
    ];
    let mut lo = f.co.c0;
    let mut hi = f.co.c0;
    for (c, s) in dims {
        let (l, h) = term(c, s);
        lo += l;
        hi += h;
    }
    let argmax = |c: i128, s: usize| if c >= 0 { s.max(1) - 1 } else { 0 };
    Extremes { lo, hi, hi_thread: (argmax(f.co.c1, cs.block.0), argmax(f.co.c2, cs.block.1)) }
}

/// Checks every family of every group against its allocation extent.
fn check_oob(cs: &CheckSpace, out: &mut Vec<StaticFinding>) {
    for g in &cs.groups {
        let mut reported = 0usize;
        for f in &g.families {
            if reported >= FINDING_CAP {
                break;
            }
            let e = extremes(f, g, cs);
            if e.hi >= f.len as i128 || e.lo < 0 {
                let (index, side) = if e.hi >= f.len as i128 {
                    (e.hi, "past the end of")
                } else {
                    (e.lo, "before")
                };
                let target = match (&f.buffer, f.space) {
                    (Some(name), _) => name.clone(),
                    (None, MemSpace::Shared) => "shared memory".to_string(),
                    (None, MemSpace::Global) => "an unregistered buffer".to_string(),
                };
                out.push(StaticFinding {
                    checker: Checker::Memcheck,
                    phase: Some(g.phase),
                    space: Some(f.space),
                    buffer: f.buffer.clone(),
                    message: format!(
                        "static memcheck: {} {} of {target} proven out of bounds in {}: \
                         index {index} {side} len {} (witness thread ({}, {}))",
                        f.space.as_str(),
                        f.kind.as_str(),
                        g.label,
                        f.len,
                        e.hi_thread.0,
                        e.hi_thread.1,
                    ),
                });
                reported += 1;
            }
        }
    }
}

/// Whether the group's shared families can be compared at a single
/// occurrence (their per-occurrence drifts are uniform, so address
/// *differences* are occurrence-invariant).
fn shared_drift_uniform(g: &CheckGroup) -> bool {
    let mut drift = None;
    for f in g.families.iter().filter(|f| f.space == MemSpace::Shared) {
        match drift {
            None => drift = Some((f.co.e1, f.co.e2)),
            Some(d) if d == (f.co.e1, f.co.e2) => {}
            Some(_) => return false,
        }
    }
    true
}

/// Enumerates one family's in-range cells at occurrence (τ=0, m=0) of
/// block (0, 0): `(cell, thread)` pairs. `co` is the family's
/// coefficients narrowed over that box.
fn enumerate_shared(
    f: &CheckFamily,
    co: Co,
    cs: &CheckSpace,
    mut visit: impl FnMut(usize, (usize, usize)),
) {
    let (bw, bh) = cs.block;
    for ty in 0..bh {
        for tx in 0..bw {
            for k in 0..f.k {
                let a = co.at(k as i64, tx as i64, ty as i64, 0, 0);
                if a >= 0 && (a as usize) < cs.shared_len {
                    visit(a as usize, (tx, ty));
                }
            }
        }
    }
}

/// Same-phase shared-memory races plus read-before-write coverage.
///
/// Coverage mirrors the dynamic monitor's deferred-uninit semantics: a
/// cell written by *any* thread in the same phase group (or any earlier
/// group) counts as initialized — a missing barrier is therefore a race,
/// not an uninit read, exactly as the dynamic sanitizer reports it.
fn check_shared(cs: &CheckSpace, out: &mut Vec<StaticFinding>, fallbacks: &mut Vec<Fallback>) {
    if cs.shared_len == 0 {
        return;
    }
    let mut covered = vec![false; cs.shared_len];
    for g in &cs.groups {
        let has_shared = g.families.iter().any(|f| f.space == MemSpace::Shared);
        if !has_shared {
            continue;
        }
        if !shared_drift_uniform(g) {
            fallbacks.push(Fallback::new(
                FallbackKind::Unsupported,
                Some(g.phase),
                Some(MemSpace::Shared),
                None,
                format!(
                    "{}: shared families drift differently per occurrence; same-phase \
                     overlap is occurrence-dependent",
                    g.label
                ),
            ));
            continue;
        }
        let families = g.families.iter().filter(|f| f.space == MemSpace::Shared);
        let shared = match narrow_all(families, |f| [f.k, cs.block.0, cs.block.1, 1, 1]) {
            Ok(shared) => shared,
            Err(f) => {
                fallbacks.push(overflow(g, f, "a shared family's addresses"));
                continue;
            }
        };
        // Pass 1: writers.
        let mut writer: Vec<Option<(usize, usize)>> = vec![None; cs.shared_len];
        let mut races = 0usize;
        for &(f, co) in &shared {
            if f.kind != AccessKind::Write {
                continue;
            }
            enumerate_shared(f, co, cs, |cell, t| match writer[cell] {
                None => writer[cell] = Some(t),
                Some(w) if w == t => {}
                Some(w) => {
                    if races < FINDING_CAP {
                        out.push(shared_race(g, cell, t, AccessKind::Write, w));
                        races += 1;
                    }
                }
            });
        }
        // Pass 2: readers vs same-phase writers; coverage check.
        let mut uninit = 0usize;
        for &(f, co) in &shared {
            if f.kind != AccessKind::Read {
                continue;
            }
            enumerate_shared(f, co, cs, |cell, t| {
                match writer[cell] {
                    Some(w) if w != t && races < FINDING_CAP => {
                        out.push(shared_race(g, cell, t, AccessKind::Read, w));
                        races += 1;
                    }
                    _ => {}
                }
                if !covered[cell] && writer[cell].is_none() && uninit < FINDING_CAP {
                    out.push(StaticFinding {
                        checker: Checker::Memcheck,
                        phase: Some(g.phase),
                        space: Some(MemSpace::Shared),
                        buffer: None,
                        message: format!(
                            "static memcheck: uninitialized shared read proven in {}: \
                             cell {cell} read by thread ({}, {}) is never written by any \
                             earlier or same-phase store",
                            g.label, t.0, t.1,
                        ),
                    });
                    uninit += 1;
                }
            });
        }
        // Fold this group's writes into coverage.
        for (cell, w) in writer.iter().enumerate() {
            if w.is_some() {
                covered[cell] = true;
            }
        }
    }
}

fn shared_race(
    g: &CheckGroup,
    cell: usize,
    second: (usize, usize),
    second_kind: AccessKind,
    first: (usize, usize),
) -> StaticFinding {
    StaticFinding {
        checker: Checker::Racecheck,
        phase: Some(g.phase),
        space: Some(MemSpace::Shared),
        buffer: None,
        message: format!(
            "static racecheck: shared {} hazard proven in {}: cell {cell} {} by thread \
             ({}, {}) conflicts with write by thread ({}, {}) with no __syncthreads \
             between them",
            hazard_label(AccessKind::Write, second_kind),
            g.label,
            second_kind.as_str(),
            second.0,
            second.1,
            first.0,
            first.1,
        ),
    }
}

/// Same-phase global races inside one block, by exact enumeration. The
/// families must agree on block strides and occurrence drifts (so the
/// overlap question is block/occurrence-invariant); otherwise each block
/// is enumerated when the grid is small, else the group falls back.
fn check_global_intra(
    cs: &CheckSpace,
    out: &mut Vec<StaticFinding>,
    fallbacks: &mut Vec<Fallback>,
) {
    for g in &cs.groups {
        let bufs: Vec<&String> = {
            let mut v: Vec<&String> = g.families.iter().filter_map(|f| f.buffer.as_ref()).collect();
            v.dedup();
            v
        };
        for buf in bufs {
            let fams: Vec<&CheckFamily> =
                g.families.iter().filter(|f| f.buffer.as_ref() == Some(buf)).collect();
            if !fams.iter().any(|f| f.kind == AccessKind::Write) {
                continue;
            }
            let uniform = fams.windows(2).all(|w| {
                (w[0].co.c3, w[0].co.c4, w[0].co.e1, w[0].co.e2)
                    == (w[1].co.c3, w[1].co.c4, w[1].co.e1, w[1].co.e2)
            });
            if !uniform && cs.grid.0 * cs.grid.1 > 64 {
                fallbacks.push(Fallback::new(
                    FallbackKind::Unsupported,
                    Some(g.phase),
                    Some(MemSpace::Global),
                    Some(buf),
                    format!(
                        "{}: {} families differ in block strides over a large grid",
                        g.label, buf
                    ),
                ));
                continue;
            }
            // With uniform block strides one representative block
            // decides all of them; otherwise enumerate each block.
            let blocks: Vec<(usize, usize)> = if uniform {
                vec![(0, 0)]
            } else {
                (0..cs.grid.1).flat_map(|by| (0..cs.grid.0).map(move |bx| (bx, by))).collect()
            };
            let grid = |f: &CheckFamily| [f.k, cs.block.0, cs.block.1, cs.grid.0, cs.grid.1];
            let narrowed = match narrow_all(fams.iter().copied(), grid) {
                Ok(narrowed) => narrowed,
                Err(f) => {
                    fallbacks.push(overflow(g, f, "a global family's addresses"));
                    continue;
                }
            };
            let accesses: usize = fams.iter().map(|f| cs.block.0 * cs.block.1 * f.k).sum();
            let mut reported = 0usize;
            for (bx, by) in blocks {
                if reported >= FINDING_CAP {
                    break;
                }
                let mut owner: OwnerMap =
                    HashMap::with_capacity_and_hasher(accesses, Default::default());
                for &(f, co) in &narrowed {
                    let (bw, bh) = cs.block;
                    for ty in 0..bh {
                        for tx in 0..bw {
                            for k in 0..f.k {
                                let a = co.at(k as i64, tx as i64, ty as i64, bx as i64, by as i64);
                                match owner.get(&a) {
                                    None => {
                                        owner.insert(a, ((tx, ty), f.kind));
                                    }
                                    Some(&(t, k0)) if t == (tx, ty) => {
                                        // Same thread may both read and
                                        // write its cell (RMW): keep the
                                        // stronger kind.
                                        if k0 == AccessKind::Read && f.kind == AccessKind::Write {
                                            owner.insert(a, (t, f.kind));
                                        }
                                    }
                                    Some(&(t, k0)) => {
                                        if (k0 == AccessKind::Write || f.kind == AccessKind::Write)
                                            && reported < FINDING_CAP
                                        {
                                            out.push(StaticFinding {
                                                checker: Checker::Racecheck,
                                                phase: Some(g.phase),
                                                space: Some(MemSpace::Global),
                                                buffer: Some(buf.clone()),
                                                message: format!(
                                                    "static racecheck: global {} hazard \
                                                     proven in {}: {}[{a}] {} by thread \
                                                     ({tx}, {ty}) conflicts with {} by \
                                                     thread ({}, {}) in the same phase",
                                                    hazard_label(k0, f.kind),
                                                    g.label,
                                                    buf,
                                                    f.kind.as_str(),
                                                    k0.as_str(),
                                                    t.0,
                                                    t.1,
                                                ),
                                            });
                                            reported += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The first thread and strongest kind of each global cell one block
/// touches in a phase, keyed by address.
type OwnerMap = HashMap<i64, ((usize, usize), AccessKind), BuildHasherDefault<AddressHasher>>;

/// Hashes an `i64` address with one multiply, folding the high half into
/// the low bits the table indexes by (a row of a tile is `n` cells from
/// the next, and `n` is often a power of two). The keys are addresses the
/// check computes, not input an adversary picks, so SipHash's flooding
/// resistance buys nothing here; at ~2k keys per block it was ~16% of the
/// static pass.
#[derive(Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A solve whose intermediate values left `i64`.
struct Wide;

/// `v`, or [`Wide`] when a checked step overflowed.
fn fit<T>(v: Option<T>) -> Result<T, Wide> {
    v.ok_or(Wide)
}

/// Is there an integer point of `a·x + b·y = c` inside
/// `[xr.0, xr.1] × [yr.0, yr.1]`, other than `exclude`? Every step is
/// checked: [`Wide`] if one overflows.
fn solve_2var(
    a: i64,
    b: i64,
    c: i64,
    xr: (i64, i64),
    yr: (i64, i64),
    exclude: Option<(i64, i64)>,
) -> Result<Option<(i64, i64)>, Wide> {
    let in_x = |x: i64| x >= xr.0 && x <= xr.1;
    let in_y = |y: i64| y >= yr.0 && y <= yr.1;
    let ok = |p: (i64, i64)| exclude != Some(p);
    if a == 0 && b == 0 {
        if c != 0 {
            return Ok(None);
        }
        for x in [xr.0, xr.1] {
            for y in [yr.0, yr.1] {
                if ok((x, y)) {
                    return Ok(Some((x, y)));
                }
            }
        }
        // Box degenerate to the excluded point.
        return Ok(None);
    }
    if a == 0 {
        if fit(c.checked_rem(b))? != 0 {
            return Ok(None);
        }
        let y = fit(c.checked_div(b))?;
        if !in_y(y) {
            return Ok(None);
        }
        return Ok([xr.0, xr.1, 0].into_iter().find(|&x| in_x(x) && ok((x, y))).map(|x| (x, y)));
    }
    if b == 0 {
        if fit(c.checked_rem(a))? != 0 {
            return Ok(None);
        }
        let x = fit(c.checked_div(a))?;
        if !in_x(x) {
            return Ok(None);
        }
        return Ok([yr.0, yr.1, 0].into_iter().find(|&y| in_y(y) && ok((x, y))).map(|y| (x, y)));
    }
    let (g, x0, y0) = fit(ext_gcd(a, b))?;
    if fit(c.checked_rem(g))? != 0 {
        return Ok(None);
    }
    let q = fit(c.checked_div(g))?;
    let (x0, y0) = (fit(x0.checked_mul(q))?, fit(y0.checked_mul(q))?);
    // x = x0 + sx·t, y = y0 + sy·t
    let (sx, sy) = (fit(b.checked_div(g))?, fit(a.checked_div(g).and_then(i64::checked_neg))?);
    let t_range = |p0: i64, s: i64, lo: i64, hi: i64| -> Result<(i64, i64), Wide> {
        // lo ≤ p0 + s·t ≤ hi
        let (lo, hi) = (fit(lo.checked_sub(p0))?, fit(hi.checked_sub(p0))?);
        let (first, last) = if s > 0 { (lo, hi) } else { (hi, lo) };
        Ok((fit(div_ceil(first, s))?, fit(div_floor(last, s))?))
    };
    let (tx0, tx1) = t_range(x0, sx, xr.0, xr.1)?;
    let (ty0, ty1) = t_range(y0, sy, yr.0, yr.1)?;
    let (t0, t1) = (tx0.max(ty0), tx1.min(ty1));
    if t0 > t1 {
        return Ok(None);
    }
    for t in [t0, t1, t0.saturating_add(1)] {
        if t >= t0 && t <= t1 {
            let x = fit(sx.checked_mul(t).and_then(|v| x0.checked_add(v)))?;
            let y = fit(sy.checked_mul(t).and_then(|v| y0.checked_add(v)))?;
            if ok((x, y)) {
                return Ok(Some((x, y)));
            }
        }
    }
    Ok(None)
}

/// Inter-block global write-sharing: can a store of one family and any
/// access of another land on the same cell from *different* blocks?
///
/// Both families must be occurrence-stationary (or single-occurrence);
/// with equal linear parts the question reduces to a 2-variable linear
/// Diophantine problem on block deltas per enumerated thread delta.
fn check_global_inter(
    cs: &CheckSpace,
    out: &mut Vec<StaticFinding>,
    fallbacks: &mut Vec<Fallback>,
) {
    if cs.grid.0 * cs.grid.1 <= 1 {
        return; // a single block cannot inter-block race
    }
    // Collect (group index, family) pairs for global families.
    let all: Vec<(usize, &CheckGroup, &CheckFamily)> = cs
        .groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| {
            g.families.iter().filter(|f| f.space == MemSpace::Global).map(move |f| (gi, g, f))
        })
        .collect();
    let mut reported = 0usize;
    for (_, ga, fa) in all.iter() {
        if fa.kind != AccessKind::Write {
            continue;
        }
        for (_, gb, fb) in all.iter() {
            if fb.buffer != fa.buffer || reported >= FINDING_CAP {
                continue;
            }
            let stationary = |g: &CheckGroup, f: &CheckFamily| {
                (f.co.e1 == 0 || g.tau <= 1) && (f.co.e2 == 0 || g.prod <= 1)
            };
            if !stationary(ga, fa) || !stationary(gb, fb) {
                fallbacks.push(Fallback::new(
                    FallbackKind::Unsupported,
                    Some(ga.phase),
                    Some(MemSpace::Global),
                    fa.buffer.as_deref(),
                    format!(
                        "{}: occurrence-drifting global write cannot be compared across \
                         blocks analytically",
                        ga.label
                    ),
                ));
                continue;
            }
            let (bw, bh) = (cs.block.0 as i64, cs.block.1 as i64);
            let (gx, gy) = (cs.grid.0 as i64, cs.grid.1 as i64);
            let kk = fa.k.max(fb.k);
            let extents = [kk, cs.block.0, cs.block.1, cs.grid.0, cs.grid.1];
            let (Some(a), Some(b)) = (Co::narrow(&fa.co, extents), Co::narrow(&fb.co, extents))
            else {
                fallbacks.push(overflow(ga, fa, "a global family's addresses"));
                continue;
            };
            let solved = if (a.c1, a.c2, a.dk, a.c3, a.c4) == (b.c1, b.c2, b.dk, b.c3, b.c4) {
                // Equal linear parts: solve on deltas. addrA == addrB ⇔
                // c1·Δtx + c2·Δty + dk·Δk + c3·Δbx + c4·Δby = c0B − c0A
                // with (Δbx, Δby) ≠ (0, 0). Both families are narrowed over
                // the deltas' box, so the right-hand side fits.
                //
                // GCD prefilter: an integer (Δbx, Δby) exists only if
                // g = gcd(c3, c4) divides the right-hand side (for g = 0,
                // only if it is 0). `solve_2var` answers `None` on exactly
                // the deltas skipped here, so the first witness is
                // unchanged; g is computed once per family pair instead of
                // once per delta.
                inter_equal_linear(a, b, kk as i64, (bw, bh), (gx, gy))
            } else if (bw * bh) as u128 * fa.k as u128 * (bw * bh) as u128 * fb.k as u128 <= 200_000
                && gx * gy <= 256
            {
                // Unequal linear parts: small enough to enumerate side A
                // fully (threads × k × blocks), then 2-var solve side B's
                // block for each of side B's thread points.
                inter_enumerated(a, fa.k as i64, b, fb.k as i64, (bw, bh), (gx, gy))
            } else {
                fallbacks.push(Fallback::new(
                    FallbackKind::Unsupported,
                    Some(ga.phase),
                    Some(MemSpace::Global),
                    fa.buffer.as_deref(),
                    format!(
                        "{}: global families with unequal linear parts over a large \
                         launch cannot be enumerated",
                        ga.label
                    ),
                ));
                continue;
            };
            match solved {
                Ok(Some(delta)) => {
                    out.push(inter_block_finding(ga, fa, fb, delta));
                    reported += 1;
                }
                Ok(None) => {}
                Err(Wide) => fallbacks.push(overflow(ga, fa, "an inter-block solve")),
            }
        }
    }
}

/// The first block delta `(Δbx, Δby) ≠ (0, 0)` at which families `a` and
/// `b`, equal in every linear coefficient, meet: thread and `k` deltas
/// enumerated, block deltas solved.
fn inter_equal_linear(
    a: Co,
    b: Co,
    kk: i64,
    (bw, bh): (i64, i64),
    (gx, gy): (i64, i64),
) -> Result<Option<(i64, i64)>, Wide> {
    let (g, _, _) = fit(ext_gcd(a.c3, a.c4))?;
    for dk_ in 1 - kk..kk {
        for dtx in 1 - bw..bw {
            for dty in 1 - bh..bh {
                let rhs = (b.c0 - a.c0) - a.c1 * dtx - a.c2 * dty - a.dk * dk_;
                let divisible = if g == 0 { rhs == 0 } else { rhs % g == 0 };
                if !divisible {
                    continue;
                }
                let hit =
                    solve_2var(a.c3, a.c4, rhs, (1 - gx, gx - 1), (1 - gy, gy - 1), Some((0, 0)))?;
                if hit.is_some() {
                    return Ok(hit);
                }
            }
        }
    }
    Ok(None)
}

/// The first block delta at which families `a` (`ka` repeats) and `b`
/// (`kb` repeats) meet from different blocks, by enumerating every access
/// of `a` and solving for `b`'s block.
fn inter_enumerated(
    a: Co,
    ka: i64,
    b: Co,
    kb: i64,
    (bw, bh): (i64, i64),
    (gx, gy): (i64, i64),
) -> Result<Option<(i64, i64)>, Wide> {
    for tya in 0..bh {
        for txa in 0..bw {
            for ka_ in 0..ka {
                for bya in 0..gy {
                    for bxa in 0..gx {
                        let aa = a.at(ka_, txa, tya, bxa, bya);
                        for tyb in 0..bh {
                            for txb in 0..bw {
                                for kb_ in 0..kb {
                                    let base = b.at(kb_, txb, tyb, 0, 0);
                                    if let Some(p) = solve_2var(
                                        b.c3,
                                        b.c4,
                                        aa - base,
                                        (0, gx - 1),
                                        (0, gy - 1),
                                        Some((bxa, bya)),
                                    )? {
                                        return Ok(Some((p.0 - bxa, p.1 - bya)));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(None)
}

fn inter_block_finding(
    ga: &CheckGroup,
    fa: &CheckFamily,
    fb: &CheckFamily,
    delta: (i64, i64),
) -> StaticFinding {
    StaticFinding {
        checker: Checker::Racecheck,
        phase: None,
        space: Some(MemSpace::Global),
        buffer: fa.buffer.clone(),
        message: format!(
            "static racecheck: inter-block {} hazard proven on {}: blocks separated by \
             (Δbx, Δby) = ({}, {}) share a cell ({} vs {}) — thread blocks cannot \
             synchronize within a launch",
            hazard_label(fa.kind, fb.kind),
            fa.buffer.as_deref().unwrap_or("unregistered buffer"),
            delta.0,
            delta.1,
            ga.label,
            fb.kind.as_str(),
        ),
    }
}

/// Runs every analytic check over the space.
pub fn run_checks(cs: &CheckSpace) -> (Vec<StaticFinding>, Vec<Fallback>) {
    let mut findings = Vec::new();
    let mut fallbacks = Vec::new();
    check_oob(cs, &mut findings);
    check_shared(cs, &mut findings, &mut fallbacks);
    check_global_intra(cs, &mut findings, &mut fallbacks);
    check_global_inter(cs, &mut findings, &mut fallbacks);
    (findings, fallbacks)
}
