//! A CUDA-style shared-memory FFT kernel on the emulator — the executable
//! counterpart of the CUFFT workload in the paper's strong-EP study
//! (Fig. 1).
//!
//! One thread block transforms one row of the `rows × n` signal: the row
//! is staged into shared memory in bit-reversed order, `log₂ n` butterfly
//! stages run with a `__syncthreads` barrier between them (each of the
//! `n/2` threads owns one butterfly per stage), and the spectrum is
//! written back to global memory. Complex values are stored as
//! interleaved (re, im) doubles.
//!
//! On the phase interpreter the kernel is a three-step state machine —
//! bit-reversed *load*, one *butterfly* phase per stage, *store* — with
//! the stage length carried in per-thread state. The original closure
//! form survives in [`EmuRowFft::run_legacy`] for old-vs-new equivalence.

use super::exec::{
    run_grid, run_grid_monitored, run_grid_unbatched, AccessSink, BatchCtx, BlockExit, BlockKernel,
    Dim2, PhaseCtx, PhaseOutcome, PhaseTrace, WavePlan,
};
use super::legacy;
use super::mem::{EmuEvents, EventCounters, GlobalMem};

/// The emulated batched row FFT: `rows` independent transforms of length
/// `n` (a power of two ≥ 2), the row pass of a 2-D FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmuRowFft {
    /// Transform length (power of two ≥ 2).
    pub n: usize,
    /// Number of rows (thread blocks).
    pub rows: usize,
    wave: WavePlan,
}

impl EmuRowFft {
    /// Creates the kernel. Panics unless `n` is a power of two ≥ 2.
    pub fn new(n: usize, rows: usize) -> Self {
        assert!(n >= 2 && n.is_power_of_two(), "FFT length must be a power of two >= 2");
        assert!(rows >= 1, "need at least one row");
        Self { n, rows, wave: WavePlan::auto() }
    }

    /// Overrides the block-wave width (tests; benchmarking).
    pub fn with_wave(mut self, wave: WavePlan) -> Self {
        self.wave = wave;
        self
    }

    /// The launch grid (one block per row) and the phase kernel over
    /// `data`, after checking that `data` holds `rows × n` complexes.
    fn kernel<'a>(&self, data: &'a GlobalMem) -> (Dim2, FftKernel<'a>) {
        let (n, rows) = (self.n, self.rows);
        assert_eq!(data.len(), 2 * rows * n, "signal size mismatch");
        (Dim2::new(1, rows), FftKernel { n, stages: n.trailing_zeros() as usize, data })
    }

    /// Launches the kernel over `data`: `rows × n` complex values as
    /// interleaved doubles (`2 · rows · n` cells), transformed in place.
    /// Returns the launch's event counts.
    pub fn run(&self, data: &GlobalMem) -> EmuEvents {
        let (grid, kernel) = self.kernel(data);
        let events = EventCounters::new();
        run_grid(grid, &kernel, &events, self.wave);
        events.snapshot()
    }

    /// [`run`](EmuRowFft::run) with the batched fast path disabled
    /// ([`run_grid_unbatched`]): every phase takes the per-thread scalar
    /// loop, exactly the pre-batching interpreter. The benchmark baseline
    /// and equivalence oracle; bitwise-identical to [`run`](EmuRowFft::run)
    /// by contract.
    pub fn run_unbatched(&self, data: &GlobalMem) -> EmuEvents {
        let (grid, kernel) = self.kernel(data);
        let events = EventCounters::new();
        run_grid_unbatched(grid, &kernel, &events, self.wave);
        events.snapshot()
    }

    /// Launches the kernel under instrumentation ([`run_grid_monitored`]):
    /// per-block sinks observe every access, blocks run serially for
    /// deterministic diagnostics, and each block's sink plus its
    /// [`BlockExit`] come back through `collect`. With an inert sink the
    /// results are bitwise-identical to [`run`](EmuRowFft::run).
    pub fn run_monitored<S: AccessSink>(
        &self,
        data: &GlobalMem,
        make_sink: impl FnMut(usize, usize) -> S,
        collect: impl FnMut(usize, usize, S, BlockExit),
    ) -> EmuEvents {
        let (grid, kernel) = self.kernel(data);
        let events = EventCounters::new();
        run_grid_monitored(grid, &kernel, &events, make_sink, collect);
        events.snapshot()
    }

    /// Launches the kernel on the retired OS-thread engine
    /// ([`super::legacy`]) — the equivalence oracle. Semantics and event
    /// counts are identical to [`run`](EmuRowFft::run).
    pub fn run_legacy(&self, data: &GlobalMem) -> EmuEvents {
        let (grid, FftKernel { n, stages, .. }) = self.kernel(data);
        let events = EventCounters::new();
        legacy::launch(
            grid,
            Dim2::new(n / 2, 1),
            2 * n, // one complex row in shared memory
            &events,
            |ctx: &legacy::ThreadCtx<'_>| {
                let row = ctx.by;
                let base = 2 * row * n;
                let tid = ctx.tx;

                // Stage the row into shared memory in bit-reversed order;
                // each thread loads two elements.
                for idx in [tid, tid + n / 2] {
                    let j = (idx.reverse_bits() >> (usize::BITS - stages as u32)) & (n - 1);
                    let re = ctx.global_load(data, base + 2 * idx);
                    let im = ctx.global_load(data, base + 2 * idx + 1);
                    ctx.shared_store(2 * j, re);
                    ctx.shared_store(2 * j + 1, im);
                }
                ctx.sync_threads();

                // Butterfly stages.
                let mut len = 2usize;
                while len <= n {
                    let half = len / 2;
                    // Thread `tid` owns butterfly `tid`: group g, offset k.
                    let g = tid / half;
                    let k = tid % half;
                    let i0 = g * len + k;
                    let i1 = i0 + half;
                    let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                    let (w_re, w_im) = (ang.cos(), ang.sin());

                    let u_re = ctx.shared_load(2 * i0);
                    let u_im = ctx.shared_load(2 * i0 + 1);
                    let v_re0 = ctx.shared_load(2 * i1);
                    let v_im0 = ctx.shared_load(2 * i1 + 1);
                    let v_re = v_re0 * w_re - v_im0 * w_im;
                    let v_im = v_re0 * w_im + v_im0 * w_re;
                    ctx.count_flops(10); // complex mul (6) + 2 complex adds (4)

                    ctx.shared_store(2 * i0, u_re + v_re);
                    ctx.shared_store(2 * i0 + 1, u_im + v_im);
                    ctx.shared_store(2 * i1, u_re - v_re);
                    ctx.shared_store(2 * i1 + 1, u_im - v_im);
                    ctx.sync_threads();
                    len <<= 1;
                }

                // Write the spectrum back; each thread stores two elements.
                for idx in [tid, tid + n / 2] {
                    let re = ctx.shared_load(2 * idx);
                    let im = ctx.shared_load(2 * idx + 1);
                    ctx.global_store(data, base + 2 * idx, re);
                    ctx.global_store(data, base + 2 * idx + 1, im);
                }
            },
        );
        events.snapshot()
    }
}

/// The row FFT as a phase state machine: one block per row, `n/2` threads.
struct FftKernel<'a> {
    n: usize,
    stages: usize,
    data: &'a GlobalMem,
}

/// Which barrier-delimited segment a thread executes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FftStep {
    /// Bit-reversed staging of the row into shared memory.
    Load,
    /// One butterfly stage of length `len` (2, 4, …, n).
    Butterfly {
        /// Current stage length.
        len: usize,
    },
    /// Spectrum write-back to global memory.
    Store,
}

impl BlockKernel for FftKernel<'_> {
    type State = FftStep;

    fn block(&self) -> Dim2 {
        Dim2::new(self.n / 2, 1)
    }

    fn shared_len(&self) -> usize {
        2 * self.n // one complex row
    }

    fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) -> FftStep {
        FftStep::Load
    }

    fn run_phase<S: AccessSink>(
        &self,
        _phase: usize,
        st: &mut FftStep,
        ctx: &mut PhaseCtx<'_, S>,
    ) -> PhaseOutcome {
        let n = self.n;
        let base = 2 * ctx.by * n;
        let tid = ctx.tx;
        match *st {
            FftStep::Load => {
                // Stage the row into shared memory in bit-reversed order;
                // each thread loads two elements.
                for idx in [tid, tid + n / 2] {
                    let j =
                        (idx.reverse_bits() >> (usize::BITS - self.stages as u32)) & (n - 1);
                    let re = ctx.global_load(self.data, base + 2 * idx);
                    let im = ctx.global_load(self.data, base + 2 * idx + 1);
                    ctx.shared_store(2 * j, re);
                    ctx.shared_store(2 * j + 1, im);
                }
                *st = FftStep::Butterfly { len: 2 };
                PhaseOutcome::Sync
            }
            FftStep::Butterfly { len } => {
                let half = len / 2;
                // Thread `tid` owns butterfly `tid`: group g, offset k.
                let g = tid / half;
                let k = tid % half;
                let i0 = g * len + k;
                let i1 = i0 + half;
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                let (w_re, w_im) = (ang.cos(), ang.sin());

                let u_re = ctx.shared_load(2 * i0);
                let u_im = ctx.shared_load(2 * i0 + 1);
                let v_re0 = ctx.shared_load(2 * i1);
                let v_im0 = ctx.shared_load(2 * i1 + 1);
                let v_re = v_re0 * w_re - v_im0 * w_im;
                let v_im = v_re0 * w_im + v_im0 * w_re;
                ctx.count_flops(10); // complex mul (6) + 2 complex adds (4)

                ctx.shared_store(2 * i0, u_re + v_re);
                ctx.shared_store(2 * i0 + 1, u_im + v_im);
                ctx.shared_store(2 * i1, u_re - v_re);
                ctx.shared_store(2 * i1 + 1, u_im - v_im);
                *st = if len == n { FftStep::Store } else { FftStep::Butterfly { len: len << 1 } };
                PhaseOutcome::Sync
            }
            FftStep::Store => {
                // Write the spectrum back; each thread stores two elements.
                for idx in [tid, tid + n / 2] {
                    let re = ctx.shared_load(2 * idx);
                    let im = ctx.shared_load(2 * idx + 1);
                    ctx.global_store(self.data, base + 2 * idx, re);
                    ctx.global_store(self.data, base + 2 * idx + 1, im);
                }
                PhaseOutcome::Done
            }
        }
    }

    fn run_phase_batch(
        &self,
        _phase: usize,
        states: &mut [FftStep],
        ctx: &mut BatchCtx<'_>,
    ) -> Option<PhaseOutcome> {
        let n = self.n;
        let base = 2 * ctx.by * n;
        // The step register is block-uniform by construction.
        match states[0] {
            FftStep::Load => {
                if let Some(t) = ctx.trace() {
                    self.trace_load(base, t);
                }
                self.batch_load(base, ctx);
                for st in states.iter_mut() {
                    *st = FftStep::Butterfly { len: 2 };
                }
                Some(PhaseOutcome::Sync)
            }
            FftStep::Butterfly { len } => {
                if let Some(t) = ctx.trace() {
                    self.trace_butterfly(len, t);
                }
                self.batch_butterfly(len, ctx);
                let next =
                    if len == n { FftStep::Store } else { FftStep::Butterfly { len: len << 1 } };
                for st in states.iter_mut() {
                    *st = next;
                }
                Some(PhaseOutcome::Sync)
            }
            FftStep::Store => {
                if let Some(t) = ctx.trace() {
                    self.trace_store(base, t);
                }
                self.batch_store(base, ctx);
                Some(PhaseOutcome::Done)
            }
        }
    }
}

impl FftKernel<'_> {
    /// Bit-reversed staging as one pass over the row. Each idx's target
    /// `j` is a permutation, so writes are disjoint and the cross-thread
    /// reorder is unobservable.
    fn batch_load(&self, base: usize, ctx: &mut BatchCtx<'_>) {
        let n = self.n;
        let shared = ctx.shared();
        for idx in 0..n {
            let j = (idx.reverse_bits() >> (usize::BITS - self.stages as u32)) & (n - 1);
            shared[2 * j] = self.data.load(base + 2 * idx);
            shared[2 * j + 1] = self.data.load(base + 2 * idx + 1);
        }
        let counts = ctx.counters();
        counts.global_loads += 2 * n as u64;
        counts.shared_stores += 2 * n as u64;
    }

    /// One butterfly stage over the whole row, `k`-outer so the twiddle
    /// for each `(k, len)` is computed once and reused across all `n/len`
    /// groups — bitwise the same value every scalar thread recomputed.
    fn batch_butterfly(&self, len: usize, ctx: &mut BatchCtx<'_>) {
        let n = self.n;
        let half = len / 2;
        let groups = n / len;
        let shared = ctx.shared();
        for k in 0..half {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
            let (w_re, w_im) = (ang.cos(), ang.sin());
            let mut g = 0;
            while g + 2 <= groups {
                butterfly(shared, g * len + k, half, w_re, w_im);
                butterfly(shared, (g + 1) * len + k, half, w_re, w_im);
                g += 2;
            }
            while g < groups {
                butterfly(shared, g * len + k, half, w_re, w_im);
                g += 1;
            }
        }
        // 10 flops and 4 shared loads + stores per butterfly, `n/2`
        // butterflies.
        let counts = ctx.counters();
        let butterflies = (n / 2) as u64;
        counts.flops += 10 * butterflies;
        counts.shared_loads += 4 * butterflies;
        counts.shared_stores += 4 * butterflies;
    }

    /// Spectrum write-back: a straight contiguous copy.
    fn batch_store(&self, base: usize, ctx: &mut BatchCtx<'_>) {
        let n = self.n;
        let shared = ctx.shared();
        for idx in 0..n {
            self.data.store(base + 2 * idx, shared[2 * idx]);
            self.data.store(base + 2 * idx + 1, shared[2 * idx + 1]);
        }
        let counts = ctx.counters();
        counts.shared_loads += 2 * n as u64;
        counts.global_stores += 2 * n as u64;
    }

    // ---- access-trace emission (bulk-sink monitored path) ------------
    //
    // Streams match the scalar loop's per-access hook order: thread-major
    // within a phase, each thread's accesses in scalar program order.
    // Every cell belongs to exactly one thread per phase, so per-cell
    // shadow order is preserved.

    /// Load records: each thread `tid` reads complexes `tid` and
    /// `tid + n/2` from global and stores them bit-reversed into shared.
    fn trace_load(&self, base: usize, t: &mut PhaseTrace) {
        let n = self.n;
        t.shared.reserve(2 * n);
        t.global.reserve(2 * n);
        t.global.begin_run(self.data.id(), self.data.len());
        for tid in 0..n / 2 {
            for idx in [tid, tid + n / 2] {
                t.global.push_load(tid, 0, base + 2 * idx);
                t.global.push_load(tid, 0, base + 2 * idx + 1);
            }
        }
        for tid in 0..n / 2 {
            for idx in [tid, tid + n / 2] {
                let j = (idx.reverse_bits() >> (usize::BITS - self.stages as u32)) & (n - 1);
                t.shared.push_store(tid, 0, 2 * j);
                t.shared.push_store(tid, 0, 2 * j + 1);
            }
        }
    }

    /// Butterfly records: thread `tid` owns butterfly `tid` — four shared
    /// loads (u, v) then four shared stores, in scalar order.
    fn trace_butterfly(&self, len: usize, t: &mut PhaseTrace) {
        let n = self.n;
        let half = len / 2;
        t.shared.reserve(8 * (n / 2));
        for tid in 0..n / 2 {
            let g = tid / half;
            let k = tid % half;
            let i0 = g * len + k;
            let i1 = i0 + half;
            t.shared.push_load(tid, 0, 2 * i0);
            t.shared.push_load(tid, 0, 2 * i0 + 1);
            t.shared.push_load(tid, 0, 2 * i1);
            t.shared.push_load(tid, 0, 2 * i1 + 1);
            t.shared.push_store(tid, 0, 2 * i0);
            t.shared.push_store(tid, 0, 2 * i0 + 1);
            t.shared.push_store(tid, 0, 2 * i1);
            t.shared.push_store(tid, 0, 2 * i1 + 1);
        }
    }

    /// Store records: each thread reads complexes `tid` and `tid + n/2`
    /// from shared and writes them back to global.
    fn trace_store(&self, base: usize, t: &mut PhaseTrace) {
        let n = self.n;
        t.shared.reserve(2 * n);
        t.global.reserve(2 * n);
        for tid in 0..n / 2 {
            for idx in [tid, tid + n / 2] {
                t.shared.push_load(tid, 0, 2 * idx);
                t.shared.push_load(tid, 0, 2 * idx + 1);
            }
        }
        t.global.begin_run(self.data.id(), self.data.len());
        for tid in 0..n / 2 {
            for idx in [tid, tid + n / 2] {
                t.global.push_store(tid, 0, base + 2 * idx);
                t.global.push_store(tid, 0, base + 2 * idx + 1);
            }
        }
    }
}

/// One radix-2 butterfly over interleaved shared memory, in exactly the
/// scalar phase body's operation order (so results stay bit-identical).
#[inline(always)]
fn butterfly(shared: &mut [f64], i0: usize, half: usize, w_re: f64, w_im: f64) {
    let i1 = i0 + half;
    let u_re = shared[2 * i0];
    let u_im = shared[2 * i0 + 1];
    let v_re0 = shared[2 * i1];
    let v_im0 = shared[2 * i1 + 1];
    let v_re = v_re0 * w_re - v_im0 * w_im;
    let v_im = v_re0 * w_im + v_im0 * w_re;
    shared[2 * i0] = u_re + v_re;
    shared[2 * i0 + 1] = u_im + v_im;
    shared[2 * i1] = u_re - v_re;
    shared[2 * i1 + 1] = u_im - v_im;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host reference DFT of one interleaved row.
    fn dft_row(row: &[f64]) -> Vec<f64> {
        let n = row.len() / 2;
        let mut out = vec![0.0; 2 * n];
        for k in 0..n {
            let (mut re, mut im) = (0.0, 0.0);
            for j in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += row[2 * j] * c - row[2 * j + 1] * s;
                im += row[2 * j] * s + row[2 * j + 1] * c;
            }
            out[2 * k] = re;
            out[2 * k + 1] = im;
        }
        out
    }

    fn signal(rows: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..2 * rows * n)
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

    #[test]
    fn kernel_matches_dft_across_sizes() {
        for &n in &[2usize, 4, 8, 16, 32] {
            let host = signal(1, n, 7);
            let dev = GlobalMem::from_slice(&host);
            EmuRowFft::new(n, 1).run(&dev);
            let got = dev.to_vec();
            let expect = dft_row(&host);
            for (a, b) in got.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "n = {n}");
            }
        }
    }

    #[test]
    fn rows_are_independent() {
        let rows = 4;
        let n = 8;
        let host = signal(rows, n, 3);
        let dev = GlobalMem::from_slice(&host);
        EmuRowFft::new(n, rows).run(&dev);
        let got = dev.to_vec();
        for r in 0..rows {
            let expect = dft_row(&host[2 * r * n..2 * (r + 1) * n]);
            for (a, b) in got[2 * r * n..2 * (r + 1) * n].iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "row {r}");
            }
        }
    }

    #[test]
    fn result_is_wave_width_invariant() {
        let (n, rows) = (16usize, 6usize);
        let host = signal(rows, n, 9);
        let run_with = |wave: usize| {
            let dev = GlobalMem::from_slice(&host);
            let ev = EmuRowFft::new(n, rows).with_wave(WavePlan::fixed(wave)).run(&dev);
            (dev.to_vec(), ev)
        };
        let (serial, ev1) = run_with(1);
        for wave in [2usize, 4, 16] {
            let (out, ev) = run_with(wave);
            assert_eq!(serial, out, "wave {wave}");
            assert_eq!(ev1, ev, "wave {wave}");
        }
    }

    #[test]
    fn event_counts_match_structure() {
        let (n, rows) = (16usize, 3usize);
        let dev = GlobalMem::from_slice(&signal(rows, n, 1));
        let ev = EmuRowFft::new(n, rows).run(&dev);
        let stages = 4u64; // log2(16)
        // 10 flops per butterfly, n/2 butterflies per stage, per row.
        assert_eq!(ev.flops, rows as u64 * stages * (n as u64 / 2) * 10);
        // Global traffic: every element read once and written once.
        assert_eq!(ev.global_loads, (2 * rows * n) as u64);
        assert_eq!(ev.global_stores, (2 * rows * n) as u64);
        // Barriers: one after staging + one per stage, per block.
        assert_eq!(ev.barriers, rows as u64 * (1 + stages));
    }

    #[test]
    fn agrees_with_host_fft_library() {
        // Cross-validate against the real host FFT from enprop-kernels.
        let n = 64;
        let host = signal(1, n, 11);
        let dev = GlobalMem::from_slice(&host);
        EmuRowFft::new(n, 1).run(&dev);
        let got = dev.to_vec();

        let mut x: Vec<enprop_kernels::Complex> =
            (0..n).map(|i| enprop_kernels::Complex::new(host[2 * i], host[2 * i + 1])).collect();
        enprop_kernels::fft_inplace(&mut x);
        for (i, c) in x.iter().enumerate() {
            assert!((got[2 * i] - c.re).abs() < 1e-9);
            assert!((got[2 * i + 1] - c.im).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        EmuRowFft::new(12, 1);
    }
}
