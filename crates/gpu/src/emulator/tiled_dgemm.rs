//! The paper's Fig. 5 kernel, executed functionally on the emulator.
//!
//! `dgemmX(C, A, B, N, G, R)` computes `G × R` matrix products
//! `C += A × B` of two dense `N × N` matrices, with per-block
//! shared-memory dimension `BS = X`. Each thread block computes one
//! `BS × BS` sub-matrix `Csub`; each thread one element of it, accumulating
//! tile sub-products staged through shared memory between `__syncthreads`
//! barriers.
//!
//! The kernel is expressed as a barrier-phase state machine for the
//! cooperative interpreter ([`super::exec`]): each phase is one segment of
//! the Fig. 5 body between `__syncthreads` boundaries — a tile *stage*
//! (fill `As`/`Bs`), the unrolled inner *mac* product, and the *retire*
//! segment (the `C += Csub` read-modify-write plus whatever the control
//! flow appends: the inter-group separator barrier, or the first stage of
//! the next run's product). The original closure form survives in
//! [`EmuDgemm::run_legacy`] for old-vs-new equivalence tests.
//!
//! Each phase also has one portable batched body, which runs a whole
//! block at once. Stage and retire go element by element through
//! [`GlobalMem::load`] and [`GlobalMem::store`]: a BS = 1 or 2 block does
//! a few accesses per phase, and per-row helpers cost more than that
//! work (DESIGN.md, "Batched SoA phase execution"). The inner product
//! puts its lanes across *threads*: it carries fixed-size register
//! blocks of 16, then 8, then
//! 4, then 1 threads of a row across the `k` loop, so each emulated
//! thread's accumulation chain keeps the scalar program order, with a
//! separate multiply and add per step (rustc neither reassociates nor
//! contracts floating-point expressions). Results and flushed event
//! counts are therefore bitwise the scalar interpreter's. The body is
//! compiled for the baseline target only and picks no instruction set at
//! run time; DESIGN.md ("One portable batch body") gives the measurements
//! against the hand-written AVX2/AVX-512 bodies it replaced.

use super::exec::{
    run_grid, run_grid_monitored, run_grid_unbatched, AccessSink, BatchCtx, BlockExit, BlockKernel,
    Dim2, LoadRange, PhaseCtx, PhaseOutcome, PhaseTrace, WavePlan,
};
use super::legacy;
use super::mem::{EmuEvents, EventCounters, GlobalMem};
use crate::model::{shared_bytes, TiledDgemmConfig};
use crate::GpuArch;

/// The emulated application: a [`TiledDgemmConfig`] run as a real kernel.
///
/// The emulator requires `BS | N` (the CUDA sample the paper builds on
/// assumes full tiles); the analytic model handles padded tiles instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmuDgemm {
    cfg: TiledDgemmConfig,
    wave: WavePlan,
}

impl EmuDgemm {
    /// Wraps a configuration. Panics unless `BS | N` and the group size is
    /// within the Fig. 5 family limits.
    pub fn new(cfg: TiledDgemmConfig) -> Self {
        assert!(cfg.bs >= 1 && cfg.bs <= 32, "BS out of range: {}", cfg.bs);
        assert!(cfg.n.is_multiple_of(cfg.bs), "emulator requires BS | N ({} % {})", cfg.n, cfg.bs);
        assert!(cfg.g >= 1 && cfg.g <= 8, "G out of range: {}", cfg.g);
        assert!(cfg.r >= 1, "R must be positive");
        Self { cfg, wave: WavePlan::auto() }
    }

    /// Binds the block-wave width to `arch`'s occupancy: at most as many
    /// blocks in flight as the device could hold resident, and never more
    /// than the host has cores.
    pub fn for_arch(cfg: TiledDgemmConfig, arch: &GpuArch) -> Self {
        let emu = Self::new(cfg);
        let wave = WavePlan::for_arch(arch, cfg.bs * cfg.bs, shared_bytes(cfg.bs));
        emu.with_wave(wave)
    }

    /// Overrides the block-wave width (tests; benchmarking).
    pub fn with_wave(mut self, wave: WavePlan) -> Self {
        self.wave = wave;
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> TiledDgemmConfig {
        self.cfg
    }

    /// The launch grid and the phase kernel over `a`, `b`, `c`, after
    /// checking that each buffer holds `N²` elements.
    fn kernel<'a>(
        &self,
        a: &'a GlobalMem,
        b: &'a GlobalMem,
        c: &'a GlobalMem,
    ) -> (Dim2, DgemmKernel<'a>) {
        let TiledDgemmConfig { n, bs, .. } = self.cfg;
        assert_eq!(a.len(), n * n, "A size mismatch");
        assert_eq!(b.len(), n * n, "B size mismatch");
        assert_eq!(c.len(), n * n, "C size mismatch");
        let tiles = n / bs;
        (Dim2::new(tiles, tiles), DgemmKernel { cfg: self.cfg, tiles, a, b, c })
    }

    /// Launches the kernel on the phase interpreter:
    /// `C += (G·R) · A·B`, element count `N²` each. Returns the event
    /// counts of the launch.
    pub fn run(&self, a: &GlobalMem, b: &GlobalMem, c: &GlobalMem) -> EmuEvents {
        let (grid, kernel) = self.kernel(a, b, c);
        let events = EventCounters::new();
        run_grid(grid, &kernel, &events, self.wave);
        events.snapshot()
    }

    /// [`run`](EmuDgemm::run) with the batched fast path disabled
    /// ([`run_grid_unbatched`]): every phase takes the per-thread scalar
    /// loop, exactly the pre-batching interpreter. The baseline of the
    /// batched-vs-scalar benchmark and the oracle of the equivalence
    /// suite; results and event counts are bitwise-identical to
    /// [`run`](EmuDgemm::run) by contract.
    pub fn run_unbatched(&self, a: &GlobalMem, b: &GlobalMem, c: &GlobalMem) -> EmuEvents {
        let (grid, kernel) = self.kernel(a, b, c);
        let events = EventCounters::new();
        run_grid_unbatched(grid, &kernel, &events, self.wave);
        events.snapshot()
    }

    /// Launches the kernel under instrumentation ([`run_grid_monitored`]):
    /// every memory access is reported to a per-block sink from
    /// `make_sink`, blocks run serially in row-major order for
    /// deterministic diagnostics, and each block's sink plus its
    /// [`BlockExit`] are handed back through `collect`. The sanitizer's
    /// entry point; with an inert sink the results are bitwise-identical
    /// to [`run`](EmuDgemm::run).
    pub fn run_monitored<S: AccessSink>(
        &self,
        a: &GlobalMem,
        b: &GlobalMem,
        c: &GlobalMem,
        make_sink: impl FnMut(usize, usize) -> S,
        collect: impl FnMut(usize, usize, S, BlockExit),
    ) -> EmuEvents {
        let (grid, kernel) = self.kernel(a, b, c);
        let events = EventCounters::new();
        run_grid_monitored(grid, &kernel, &events, make_sink, collect);
        events.snapshot()
    }

    /// Launches the kernel on the retired OS-thread engine
    /// ([`super::legacy`]) — the equivalence oracle. Semantics and event
    /// counts are identical to [`run`](EmuDgemm::run); wall-clock is not.
    pub fn run_legacy(&self, a: &GlobalMem, b: &GlobalMem, c: &GlobalMem) -> EmuEvents {
        let TiledDgemmConfig { n, bs, g, r } = self.cfg;
        let (grid, _) = self.kernel(a, b, c);
        let events = EventCounters::new();
        legacy::launch(
            grid,
            Dim2::new(bs, bs),
            2 * bs * bs,
            &events,
            |ctx: &legacy::ThreadCtx<'_>| {
                // `for (int run = 0; run < R; run++) dgemmG{G}(...)`.
                for _run in 0..r {
                    for grp in 0..g {
                        legacy_matrix_product(ctx, a, b, c, n, bs);
                        // Inter-product separator within a group body.
                        if grp + 1 < g {
                            ctx.sync_threads();
                        }
                    }
                }
            },
        );
        events.snapshot()
    }
}

/// The Fig. 5 kernel as a phase state machine.
struct DgemmKernel<'a> {
    cfg: TiledDgemmConfig,
    tiles: usize,
    a: &'a GlobalMem,
    b: &'a GlobalMem,
    c: &'a GlobalMem,
}

/// Which barrier-delimited segment a thread executes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Fill one element of `As` and `Bs` from global memory.
    Stage,
    /// The `#pragma unroll` inner product over the staged tile.
    Mac,
    /// `C[...] += Csub`, then the control flow between products.
    Retire,
}

/// Per-thread registers of the Fig. 5 body, carried across phases.
struct DgemmState {
    csub: f64,
    /// Current A-tile base index (`a` in Fig. 5).
    ai: usize,
    /// Current B-tile base index (`b` in Fig. 5).
    bi: usize,
    /// Tile step within the current product.
    tile: usize,
    /// Products completed so far (of `G × R`).
    product: usize,
    step: Step,
}

impl DgemmKernel<'_> {
    /// Shared tile layout: `As` at `[0, bs²)`, `Bs` at `[bs², 2·bs²)`.
    #[inline]
    fn as_idx(&self, row: usize, col: usize) -> usize {
        row * self.cfg.bs + col
    }

    #[inline]
    fn bs_idx(&self, row: usize, col: usize) -> usize {
        self.cfg.bs * self.cfg.bs + row * self.cfg.bs + col
    }

    /// A fresh product's starting tile indices for block `(bx, by)`.
    #[inline]
    fn product_start(&self, bx: usize, by: usize) -> (usize, usize) {
        (self.cfg.n * self.cfg.bs * by, self.cfg.bs * bx)
    }

    /// One tile stage: fill this thread's element of `As` and `Bs`.
    fn stage<S: AccessSink>(&self, st: &DgemmState, ctx: &mut PhaseCtx<'_, S>) {
        let (n, _bs) = (self.cfg.n, self.cfg.bs);
        let (tx, ty) = (ctx.tx, ctx.ty);
        let av = ctx.global_load(self.a, st.ai + n * ty + tx);
        ctx.shared_store(self.as_idx(ty, tx), av);
        let bv = ctx.global_load(self.b, st.bi + n * ty + tx);
        ctx.shared_store(self.bs_idx(ty, tx), bv);
    }

    /// The unrolled inner product over the staged tile.
    fn mac<S: AccessSink>(&self, st: &mut DgemmState, ctx: &mut PhaseCtx<'_, S>) {
        let bs = self.cfg.bs;
        let (tx, ty) = (ctx.tx, ctx.ty);
        for k in 0..bs {
            st.csub += ctx.shared_load(self.as_idx(ty, k)) * ctx.shared_load(self.bs_idx(k, tx));
            ctx.count_flops(2);
        }
    }

    /// `C[...] += Csub` — a read-modify-write of this thread's element.
    fn retire<S: AccessSink>(&self, st: &DgemmState, ctx: &mut PhaseCtx<'_, S>) {
        let (n, bs) = (self.cfg.n, self.cfg.bs);
        let ci = n * bs * ctx.by + bs * ctx.bx + n * ctx.ty + ctx.tx;
        let prev = ctx.global_load(self.c, ci);
        ctx.global_store(self.c, ci, prev + st.csub);
    }

    /// Batched tile stage: element `(ty, tx)` of `As`/`Bs` comes from
    /// `ai + n·ty + tx` / `bi + n·ty + tx`, in thread order. Events are
    /// counted in bulk: `2·bs²` global loads + shared stores, exactly what
    /// the scalar loop counts one by one.
    #[inline]
    fn batch_stage(&self, states: &[DgemmState], ctx: &mut BatchCtx<'_>) {
        let (n, bs) = (self.cfg.n, self.cfg.bs);
        let (ai, bi) = (states[0].ai, states[0].bi);
        let bs2 = bs * bs;
        let shared = ctx.shared();
        for ty in 0..bs {
            let (a_row, b_row, s_row) = (ai + n * ty, bi + n * ty, ty * bs);
            for tx in 0..bs {
                shared[s_row + tx] = self.a.load(a_row + tx);
                shared[bs2 + s_row + tx] = self.b.load(b_row + tx);
            }
        }
        let counts = ctx.counters();
        counts.global_loads += 2 * bs2 as u64;
        counts.shared_stores += 2 * bs2 as u64;
    }

    /// Batched inner product, one thread row at a time: threads
    /// `tx..tx + L` of the row advance together in `L`-lane register
    /// blocks (`L` = 16, then 8, 4 and 1 for what is left), so BS = 28
    /// runs 16 + 8 + 4 lanes and BS = 31 runs 16 + 8 + 4 + 1 + 1 + 1.
    /// Bulk counts: `2·bs³` flops and shared loads.
    #[inline]
    fn batch_mac(&self, states: &mut [DgemmState], ctx: &mut BatchCtx<'_>) {
        let bs = self.cfg.bs;
        let bs2 = bs * bs;
        let (as_tile, bs_tile) = ctx.shared().split_at(bs2);
        for ty in 0..bs {
            let a_row = &as_tile[ty * bs..][..bs];
            let row = &mut states[ty * bs..][..bs];
            let tx = mac_lanes::<16>(a_row, bs_tile, row, 0);
            let tx = mac_lanes::<8>(a_row, bs_tile, row, tx);
            let tx = mac_lanes::<4>(a_row, bs_tile, row, tx);
            mac_lanes::<1>(a_row, bs_tile, row, tx);
        }
        let counts = ctx.counters();
        let muls = (bs * bs2) as u64;
        counts.flops += 2 * muls;
        counts.shared_loads += 2 * muls;
    }

    /// Batched `C += Csub`: each thread's element read-modify-written as
    /// in the scalar body. Bulk counts: `bs²` global loads and stores.
    fn batch_retire(&self, states: &[DgemmState], ctx: &mut BatchCtx<'_>) {
        let (n, bs) = (self.cfg.n, self.cfg.bs);
        let base = n * bs * ctx.by + bs * ctx.bx;
        for ty in 0..bs {
            let c_row = base + n * ty;
            for (tx, st) in states[ty * bs..][..bs].iter().enumerate() {
                self.c.store(c_row + tx, self.c.load(c_row + tx) + st.csub);
            }
        }
        let counts = ctx.counters();
        counts.global_loads += (bs * bs) as u64;
        counts.global_stores += (bs * bs) as u64;
    }

    // ---- access-trace emission (bulk-sink monitored path) ------------
    //
    // Record streams must match what the scalar loop's per-access hooks
    // would have reported: thread-major within a phase, per-thread
    // accesses in scalar program order, global records grouped into
    // per-buffer runs (each cell here belongs to exactly one thread per
    // phase, so per-cell shadow order is preserved by construction). The
    // record buffers belong to the launch's block scratch and keep their
    // capacity from phase to phase, so emission reserves nothing.

    /// Stage records: global loads of the `A` and `B` tile rows, shared
    /// stores into `As`/`Bs`.
    #[inline]
    fn trace_stage(&self, ai: usize, bi: usize, t: &mut PhaseTrace) {
        let (n, bs) = (self.cfg.n, self.cfg.bs);
        t.global.begin_run(self.a.id(), self.a.len());
        for ty in 0..bs {
            let base = ai + n * ty;
            for tx in 0..bs {
                t.global.push_load(tx, ty, base + tx);
            }
        }
        t.global.begin_run(self.b.id(), self.b.len());
        for ty in 0..bs {
            let base = bi + n * ty;
            for tx in 0..bs {
                t.global.push_load(tx, ty, base + tx);
            }
        }
        for ty in 0..bs {
            for tx in 0..bs {
                t.shared.push_store(tx, ty, self.as_idx(ty, tx));
                t.shared.push_store(tx, ty, self.bs_idx(ty, tx));
            }
        }
    }

    /// Mac records: each thread's interleaved `As`/`Bs` shared loads, `k`
    /// ascending — the exact scalar hook order. When the sink does not want
    /// them (`records` false), the phase, which stores nothing, reports the
    /// `2·bs³` loads as one range over both tiles instead; its last cell,
    /// `Bs[bs − 1][bs − 1]`, is first loaded by thread `(bs − 1, 0)`.
    #[inline]
    fn trace_mac(&self, t: &mut PhaseTrace, records: bool) {
        let bs = self.cfg.bs;
        if !records {
            t.shared.set_load_range(LoadRange { cells: 0..2 * bs * bs, last: (bs - 1, 0) });
            return;
        }
        for ty in 0..bs {
            for tx in 0..bs {
                for k in 0..bs {
                    t.shared.push_load(tx, ty, self.as_idx(ty, k));
                    t.shared.push_load(tx, ty, self.bs_idx(k, tx));
                }
            }
        }
    }

    /// Retire records: one `C` run of load + store per element.
    fn trace_retire(&self, bx: usize, by: usize, t: &mut PhaseTrace) {
        let (n, bs) = (self.cfg.n, self.cfg.bs);
        let base = n * bs * by + bs * bx;
        t.global.begin_run(self.c.id(), self.c.len());
        for ty in 0..bs {
            let row = base + n * ty;
            for tx in 0..bs {
                t.global.push_load(tx, ty, row + tx);
                t.global.push_store(tx, ty, row + tx);
            }
        }
    }
}

impl BlockKernel for DgemmKernel<'_> {
    type State = DgemmState;

    fn block(&self) -> Dim2 {
        Dim2::new(self.cfg.bs, self.cfg.bs)
    }

    fn shared_len(&self) -> usize {
        2 * self.cfg.bs * self.cfg.bs
    }

    fn init(&self, bx: usize, by: usize, _tx: usize, _ty: usize) -> DgemmState {
        let (ai, bi) = self.product_start(bx, by);
        DgemmState { csub: 0.0, ai, bi, tile: 0, product: 0, step: Step::Stage }
    }

    fn run_phase<S: AccessSink>(
        &self,
        _phase: usize,
        st: &mut DgemmState,
        ctx: &mut PhaseCtx<'_, S>,
    ) -> PhaseOutcome {
        let TiledDgemmConfig { n, bs, g, r } = self.cfg;
        match st.step {
            Step::Stage => {
                self.stage(st, ctx);
                st.step = Step::Mac;
                PhaseOutcome::Sync
            }
            Step::Mac => {
                self.mac(st, ctx);
                st.tile += 1;
                st.ai += bs;
                st.bi += bs * n;
                st.step = if st.tile == self.tiles { Step::Retire } else { Step::Stage };
                PhaseOutcome::Sync
            }
            Step::Retire => {
                self.retire(st, ctx);
                st.product += 1;
                if st.product == g * r {
                    return PhaseOutcome::Done;
                }
                // Reset the product registers.
                st.csub = 0.0;
                st.tile = 0;
                (st.ai, st.bi) = self.product_start(ctx.bx, ctx.by);
                if st.product.is_multiple_of(g) {
                    // Run boundary: no separator barrier — Fig. 5 flows
                    // straight from `C += Csub` into the next run's first
                    // tile stage within the same barrier segment.
                    self.stage(st, ctx);
                    st.step = Step::Mac;
                } else {
                    // Intra-group boundary: the segment ends at the
                    // inter-product separator `__syncthreads`.
                    st.step = Step::Stage;
                }
                PhaseOutcome::Sync
            }
        }
    }

    #[inline]
    fn run_phase_batch(
        &self,
        _phase: usize,
        states: &mut [DgemmState],
        ctx: &mut BatchCtx<'_>,
    ) -> Option<PhaseOutcome> {
        let TiledDgemmConfig { n, bs, g, r } = self.cfg;
        // The step register is block-uniform by construction (every thread
        // advances it identically); batch on thread 0's view and write the
        // uniform registers back to every state.
        match states[0].step {
            Step::Stage => {
                if let Some(t) = ctx.trace() {
                    self.trace_stage(states[0].ai, states[0].bi, t);
                }
                self.batch_stage(states, ctx);
                for st in states.iter_mut() {
                    st.step = Step::Mac;
                }
                Some(PhaseOutcome::Sync)
            }
            Step::Mac => {
                let records = ctx.shared_loads_wanted();
                if let Some(t) = ctx.trace() {
                    self.trace_mac(t, records);
                }
                self.batch_mac(states, ctx);
                for st in states.iter_mut() {
                    st.tile += 1;
                    st.ai += bs;
                    st.bi += bs * n;
                    st.step = if st.tile == self.tiles { Step::Retire } else { Step::Stage };
                }
                Some(PhaseOutcome::Sync)
            }
            Step::Retire => {
                let (bx, by) = (ctx.bx, ctx.by);
                if let Some(t) = ctx.trace() {
                    self.trace_retire(bx, by, t);
                }
                self.batch_retire(states, ctx);
                let product = states[0].product + 1;
                if product == g * r {
                    for st in states.iter_mut() {
                        st.product = product;
                    }
                    return Some(PhaseOutcome::Done);
                }
                let (ai, bi) = self.product_start(ctx.bx, ctx.by);
                for st in states.iter_mut() {
                    st.product = product;
                    st.csub = 0.0;
                    st.tile = 0;
                    st.ai = ai;
                    st.bi = bi;
                }
                if product.is_multiple_of(g) {
                    // Run boundary: retire flows straight into the next
                    // run's first stage within the same barrier segment,
                    // exactly as the scalar body does.
                    if let Some(t) = ctx.trace() {
                        self.trace_stage(ai, bi, t);
                    }
                    self.batch_stage(states, ctx);
                    for st in states.iter_mut() {
                        st.step = Step::Mac;
                    }
                } else {
                    for st in states.iter_mut() {
                        st.step = Step::Stage;
                    }
                }
                Some(PhaseOutcome::Sync)
            }
        }
    }
}

/// Advances threads `tx..` of one row (`row`, `BS` states; `a_row` its
/// `As` row, `b_tile` the `BS × BS` `Bs` tile) through the tile's inner
/// product, `L` threads at a time while `L` fit, and returns the first
/// thread not advanced. The `L` accumulators stay in registers across the
/// `k` loop, and each lane adds `a_row[k] * Bs[k][tx + l]` to its own
/// chain in ascending `k`, exactly the scalar thread's operations.
#[inline(always)]
fn mac_lanes<const L: usize>(
    a_row: &[f64],
    b_tile: &[f64],
    row: &mut [DgemmState],
    mut tx: usize,
) -> usize {
    let bs = row.len();
    while tx + L <= bs {
        let lanes = &mut row[tx..tx + L];
        let mut acc: [f64; L] = std::array::from_fn(|l| lanes[l].csub);
        for (k, &a) in a_row.iter().enumerate() {
            for (x, &b) in acc.iter_mut().zip(&b_tile[k * bs + tx..][..L]) {
                *x += a * b;
            }
        }
        for (st, v) in lanes.iter_mut().zip(acc) {
            st.csub = v;
        }
        tx += L;
    }
    tx
}

/// One device matrix product on the legacy engine — the body of `dgemmG1`
/// (Fig. 5 lines 1–21), closure form.
fn legacy_matrix_product(
    ctx: &legacy::ThreadCtx<'_>,
    a: &GlobalMem,
    b: &GlobalMem,
    c: &GlobalMem,
    n: usize,
    bs: usize,
) {
    let (bx, by, tx, ty) = (ctx.bx, ctx.by, ctx.tx, ctx.ty);
    // Shared tiles: As at [0, bs²), Bs at [bs², 2bs²).
    let as_idx = |row: usize, col: usize| row * bs + col;
    let bs_idx = |row: usize, col: usize| bs * bs + row * bs + col;

    let a_begin = n * bs * by;
    let a_end = a_begin + n - 1;
    let a_step = bs;
    let b_step = bs * n;
    let mut csub = 0.0;

    let mut ai = a_begin;
    let mut bi = bs * bx;
    while ai <= a_end {
        // Stage one A tile and one B tile into shared memory.
        ctx.shared_store(as_idx(ty, tx), ctx.global_load(a, ai + n * ty + tx));
        ctx.shared_store(bs_idx(ty, tx), ctx.global_load(b, bi + n * ty + tx));
        ctx.sync_threads();
        // `#pragma unroll` inner product over the tile.
        for k in 0..bs {
            csub += ctx.shared_load(as_idx(ty, k)) * ctx.shared_load(bs_idx(k, tx));
            ctx.count_flops(2);
        }
        ctx.sync_threads();
        ai += a_step;
        bi += b_step;
    }
    // `C[...] += Csub` — a read-modify-write of one element.
    let ci = n * bs * by + bs * bx + n * ty + tx;
    let prev = ctx.global_load(c, ci);
    ctx.global_store(c, ci, prev + csub);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cupti::{CuptiCounter, CuptiReport};
    use crate::emulator::exec::AccessPoint;
    use crate::emulator::mem::BufId;

    /// Deterministic host-side fill (SplitMix64, the kernels crate's
    /// pattern) without a cross-crate dependency.
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

    /// Host reference: `C + k·A·B`.
    fn reference(a: &[f64], b: &[f64], c0: &[f64], n: usize, k: f64) -> Vec<f64> {
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

    fn run_case(n: usize, bs: usize, g: usize, r: usize) -> (Vec<f64>, Vec<f64>, EmuEvents) {
        let av = filled(n * n, 1);
        let bv = filled(n * n, 2);
        let cv = filled(n * n, 3);
        let (a, b, c) =
            (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::from_slice(&cv));
        let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g, r });
        let events = emu.run(&a, &b, &c);
        let expect = reference(&av, &bv, &cv, n, (g * r) as f64);
        (c.to_vec(), expect, events)
    }

    #[test]
    fn kernel_computes_correct_product_across_bs() {
        for &(n, bs) in &[(8usize, 1usize), (8, 2), (8, 4), (8, 8), (12, 3), (16, 4)] {
            let (got, expect, _) = run_case(n, bs, 1, 1);
            assert!(max_err(&got, &expect) < 1e-10, "n={n} bs={bs}");
        }
    }

    #[test]
    fn g_and_r_accumulate_products() {
        for &(g, r) in &[(1usize, 3usize), (3, 1), (2, 2)] {
            let (got, expect, _) = run_case(8, 4, g, r);
            assert!(max_err(&got, &expect) < 1e-9, "g={g} r={r}");
        }
    }

    #[test]
    fn result_is_wave_width_invariant() {
        let run_with = |wave: usize| {
            let av = filled(64, 1);
            let bv = filled(64, 2);
            let (a, b, c) =
                (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::zeroed(64));
            let emu = EmuDgemm::new(TiledDgemmConfig { n: 8, bs: 2, g: 2, r: 2 })
                .with_wave(WavePlan::fixed(wave));
            let ev = emu.run(&a, &b, &c);
            (c.to_vec(), ev)
        };
        let (serial, ev1) = run_with(1);
        for wave in [2usize, 3, 8] {
            let (out, ev) = run_with(wave);
            assert_eq!(serial, out, "wave {wave}");
            assert_eq!(ev1, ev, "wave {wave}");
        }
    }

    #[test]
    fn emulator_events_match_analytic_cupti_model_exactly() {
        for &(n, bs, g, r) in &[(8usize, 4usize, 1usize, 1usize), (8, 2, 2, 2), (12, 4, 3, 1)] {
            let (_, _, ev) = run_case(n, bs, g, r);
            let cfg = TiledDgemmConfig { n, bs, g, r };
            let rep = CuptiReport::of(&cfg);
            let check = |counter, got: u64| {
                assert_eq!(
                    rep.get(counter).true_count,
                    got as u128,
                    "{:?} for n={n} bs={bs} g={g} r={r}",
                    counter
                );
            };
            check(CuptiCounter::FlopCountDp, ev.flops);
            check(CuptiCounter::SharedLoad, ev.shared_loads);
            check(CuptiCounter::SharedStore, ev.shared_stores);
            check(CuptiCounter::GldTransactions, ev.global_loads);
            check(CuptiCounter::GstTransactions, ev.global_stores);
            check(CuptiCounter::BarrierSync, ev.barriers);
        }
    }

    #[test]
    fn event_counts_are_additive_in_workload() {
        // The additivity property, observed on real executions: a compound
        // application (G=2) counts the sum of its two base runs (G=1),
        // modulo the inter-group barrier.
        let (_, _, base) = run_case(8, 4, 1, 1);
        let (_, _, compound) = run_case(8, 4, 2, 1);
        let doubled = base.plus(base);
        assert_eq!(compound.flops, doubled.flops);
        assert_eq!(compound.shared_loads, doubled.shared_loads);
        assert_eq!(compound.global_loads, doubled.global_loads);
        assert_eq!(compound.global_stores, doubled.global_stores);
        // Barriers: one extra per block for the group separator.
        assert_eq!(compound.barriers, doubled.barriers + (8 / 4) * (8 / 4));
    }

    #[test]
    fn arch_bound_wave_runs_correctly() {
        let av = filled(256, 1);
        let bv = filled(256, 2);
        let (a, b, c) =
            (GlobalMem::from_slice(&av), GlobalMem::from_slice(&bv), GlobalMem::zeroed(256));
        let cfg = TiledDgemmConfig { n: 16, bs: 4, g: 1, r: 1 };
        let emu = EmuDgemm::for_arch(cfg, &GpuArch::k40c());
        emu.run(&a, &b, &c);
        let expect = reference(&av, &bv, &vec![0.0; 256], 16, 1.0);
        assert!(max_err(&c.to_vec(), &expect) < 1e-10);
    }

    /// A bulk sink that keeps each phase's shared loads, as records or as
    /// a range, and declines loads when `decline` is set.
    #[derive(Default)]
    struct LoadLog {
        decline: bool,
        records: Vec<Vec<(usize, (usize, usize))>>,
        ranges: Vec<Option<LoadRange>>,
    }

    impl AccessSink for LoadLog {
        const BULK: bool = true;

        fn shared_load(&mut self, _: AccessPoint, _: usize, _: usize) -> bool {
            unreachable!("bulk only")
        }

        fn shared_store(&mut self, _: AccessPoint, _: usize, _: usize) -> bool {
            unreachable!("bulk only")
        }

        fn global_load(&mut self, _: AccessPoint, _: BufId, _: usize, _: usize) -> bool {
            unreachable!("bulk only")
        }

        fn global_store(&mut self, _: AccessPoint, _: BufId, _: usize, _: usize) -> bool {
            unreachable!("bulk only")
        }

        fn wants_shared_loads(&self) -> bool {
            !self.decline
        }

        fn observe_phase(&mut self, _: usize, _: usize, _: usize, _: usize, t: &PhaseTrace) {
            let loads = t.shared.iter().filter(|a| !a.store).map(|a| (a.idx, (a.tx, a.ty)));
            self.records.push(loads.collect());
            self.ranges.push(t.shared.load_range().cloned());
        }
    }

    #[test]
    fn declined_mac_loads_arrive_as_the_range_their_records_span() {
        // Every MAC phase (no shared store) of a G = 2, R = 2 launch: the
        // range covers exactly the cells its records load, and names the
        // first thread to load the last one.
        for bs in [1usize, 2, 3, 4, 8] {
            let n = 2 * bs;
            let v = filled(n * n, 7);
            let log = |decline| {
                let (a, b, c) = (
                    GlobalMem::from_slice(&v),
                    GlobalMem::from_slice(&v),
                    GlobalMem::from_slice(&v),
                );
                let mut logs = Vec::new();
                let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g: 2, r: 2 });
                let events = emu.run_monitored(
                    &a,
                    &b,
                    &c,
                    |_, _| LoadLog { decline, ..LoadLog::default() },
                    |_, _, sink, exit| {
                        assert_eq!(exit, BlockExit::Retired);
                        logs.push(sink);
                    },
                );
                (logs, events, c.to_vec())
            };
            let (records, events, out) = log(false);
            let (ranged, ranged_events, ranged_out) = log(true);
            assert_eq!((events, &out), (ranged_events, &ranged_out), "bs {bs}");
            let mut macs = 0;
            for (rec, rng) in records.iter().zip(&ranged) {
                assert!(rec.ranges.iter().all(Option::is_none), "bs {bs}: a range nobody declined");
                for ((loads, range), ranged_loads) in
                    rec.records.iter().zip(&rng.ranges).zip(&rng.records)
                {
                    let Some(range) = range else {
                        assert_eq!(loads, ranged_loads, "bs {bs}: records of a phase with stores");
                        continue;
                    };
                    macs += 1;
                    assert!(ranged_loads.is_empty(), "bs {bs}: a range and load records");
                    let lo = loads.iter().map(|l| l.0).min().unwrap();
                    let hi = loads.iter().map(|l| l.0).max().unwrap();
                    let last = loads.iter().find(|l| l.0 == hi).unwrap().1;
                    assert_eq!(*range, LoadRange { cells: lo..hi + 1, last }, "bs {bs}");
                }
            }
            // 4 blocks × 2 products per run × 2 runs × 2 tiles.
            assert_eq!(macs, 4 * 2 * 2 * 2, "bs {bs}");
        }
    }

    #[test]
    #[should_panic(expected = "BS | N")]
    fn rejects_ragged_tiles() {
        EmuDgemm::new(TiledDgemmConfig { n: 10, bs: 4, g: 1, r: 1 });
    }
}
