//! The retired OS-thread kernel engine, kept as the equivalence oracle.
//!
//! This is the emulator's original execution strategy: one real OS thread
//! per CUDA thread (up to 32 × 32 = 1024 per block), synchronized by a
//! [`std::sync::Barrier`], with every event bumped on a shared atomic
//! counter. It is semantically faithful but catastrophically slow — thread
//! spawns and barrier convoys dominate — which is why the phase
//! interpreter in [`super::exec`] replaced it as the production engine.
//!
//! It stays in the tree for exactly one purpose: old-vs-new equivalence.
//! Each kernel keeps a `run_legacy` adapter over this engine, and the
//! equivalence suite asserts both engines produce bitwise-identical
//! memory contents and event counts. Nothing else should call it; it is
//! not exported from the crate root.

use super::exec::Dim2;
use super::mem::{EventCounters, GlobalMem, SharedMem};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

/// Per-thread execution context handed to a closure kernel body — the
/// mirror of [`super::exec::PhaseCtx`] for the OS-thread engine, with an
/// explicit [`sync_threads`](ThreadCtx::sync_threads) instead of phase
/// outcomes.
pub struct ThreadCtx<'a> {
    /// This thread's `threadIdx.x`.
    pub tx: usize,
    /// This thread's `threadIdx.y`.
    pub ty: usize,
    /// This block's `blockIdx.x`.
    pub bx: usize,
    /// This block's `blockIdx.y`.
    pub by: usize,
    shared: &'a SharedMem,
    barrier: &'a Barrier,
    events: &'a EventCounters,
}

impl ThreadCtx<'_> {
    /// `__syncthreads()`: every thread of the block must reach the barrier.
    /// Counted once per block (thread (0,0) does the accounting), matching
    /// the per-block CUPTI barrier semantics.
    pub fn sync_threads(&self) {
        if self.tx == 0 && self.ty == 0 {
            self.events.barriers.fetch_add(1, Ordering::Relaxed);
        }
        self.barrier.wait();
    }

    /// Shared-memory load with event accounting.
    #[inline]
    pub fn shared_load(&self, idx: usize) -> f64 {
        self.events.shared_loads.fetch_add(1, Ordering::Relaxed);
        self.shared.load(idx)
    }

    /// Shared-memory store with event accounting.
    #[inline]
    pub fn shared_store(&self, idx: usize, v: f64) {
        self.events.shared_stores.fetch_add(1, Ordering::Relaxed);
        self.shared.store(idx, v);
    }

    /// Global-memory load with event accounting.
    #[inline]
    pub fn global_load(&self, mem: &GlobalMem, idx: usize) -> f64 {
        self.events.global_loads.fetch_add(1, Ordering::Relaxed);
        mem.load(idx)
    }

    /// Global-memory store with event accounting.
    #[inline]
    pub fn global_store(&self, mem: &GlobalMem, idx: usize, v: f64) {
        self.events.global_stores.fetch_add(1, Ordering::Relaxed);
        mem.store(idx, v);
    }

    /// Records `n` double-precision flops.
    #[inline]
    pub fn count_flops(&self, n: u64) {
        self.events.flops.fetch_add(n, Ordering::Relaxed);
    }
}

/// Block-concurrency width of the legacy engine (the old `WAVE_WIDTH`).
/// Kept small and fixed: this engine only runs in equivalence tests,
/// where its throughput does not matter.
const LEGACY_WAVE: usize = 4;

/// Launches a closure kernel over `grid` blocks of `block` threads each,
/// with `shared_len` doubles of per-block shared memory, on the OS-thread
/// engine: each block's threads are real OS threads synchronized by a
/// [`Barrier`] (so `__syncthreads` misuse deadlocks), blocks execute in
/// concurrent waves of [`LEGACY_WAVE`].
pub fn launch<K>(grid: Dim2, block: Dim2, shared_len: usize, events: &EventCounters, kernel: K)
where
    K: Fn(&ThreadCtx<'_>) + Sync,
{
    let threads = block.count();
    let block_ids: Vec<(usize, usize)> =
        (0..grid.y).flat_map(|by| (0..grid.x).map(move |bx| (bx, by))).collect();

    for wave in block_ids.chunks(LEGACY_WAVE) {
        enprop_par::join(wave.iter().copied(), |(bx, by)| {
            let shared = SharedMem::zeroed(shared_len);
            let barrier = Barrier::new(threads);
            let thread_ids = (0..block.y).flat_map(|ty| (0..block.x).map(move |tx| (tx, ty)));
            enprop_par::join(thread_ids, |(tx, ty)| {
                let (shared, barrier) = (&shared, &barrier);
                kernel(&ThreadCtx { tx, ty, bx, by, shared, barrier, events });
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_thread_runs_once() {
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(4 * 9); // 2×2 grid of 3×3 blocks
        launch(Dim2::new(2, 2), Dim2::new(3, 3), 0, &events, |ctx| {
            let block_id = ctx.by * 2 + ctx.bx;
            let thread_id = ctx.ty * 3 + ctx.tx;
            ctx.global_store(&out, block_id * 9 + thread_id, 1.0);
        });
        assert_eq!(out.to_vec(), vec![1.0; 36]);
        assert_eq!(events.snapshot().global_stores, 36);
    }

    #[test]
    fn barrier_orders_shared_memory_phases() {
        // Phase 1: each thread writes its id to shared; barrier; phase 2:
        // each thread reads its neighbour's slot. Without a real barrier
        // this reads stale zeros.
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(8);
        launch(Dim2::new(1, 1), Dim2::new(8, 1), 8, &events, |ctx| {
            ctx.shared_store(ctx.tx, ctx.tx as f64 + 1.0);
            ctx.sync_threads();
            let neighbour = (ctx.tx + 1) % 8;
            let v = ctx.shared_load(neighbour);
            ctx.global_store(&out, ctx.tx, v);
        });
        let expect: Vec<f64> = (0..8).map(|i| ((i + 1) % 8) as f64 + 1.0).collect();
        assert_eq!(out.to_vec(), expect);
        // One barrier, counted once per block.
        assert_eq!(events.snapshot().barriers, 1);
    }

    #[test]
    fn barriers_counted_per_block() {
        let events = EventCounters::new();
        launch(Dim2::new(3, 2), Dim2::new(2, 2), 0, &events, |ctx| {
            ctx.sync_threads();
            ctx.sync_threads();
        });
        // 6 blocks × 2 barriers.
        assert_eq!(events.snapshot().barriers, 12);
    }

    #[test]
    fn flop_accounting() {
        let events = EventCounters::new();
        launch(Dim2::new(1, 1), Dim2::new(4, 1), 0, &events, |ctx| {
            ctx.count_flops(10);
        });
        assert_eq!(events.snapshot().flops, 40);
    }

    #[test]
    fn shared_memory_is_per_block() {
        // Each block increments its shared slot once; if shared memory
        // leaked across blocks the final value would accumulate.
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(4);
        launch(Dim2::new(4, 1), Dim2::new(1, 1), 1, &events, |ctx| {
            let v = ctx.shared_load(0) + 1.0;
            ctx.shared_store(0, v);
            ctx.global_store(&out, ctx.bx, v);
        });
        assert_eq!(out.to_vec(), vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "kernel failed in block 1")]
    fn a_kernel_panic_keeps_its_message() {
        // Block 1's threads panic before any barrier, so no sibling is left
        // waiting; the message must survive both levels of joins.
        let events = EventCounters::new();
        launch(Dim2::new(2, 1), Dim2::new(2, 1), 0, &events, |ctx| {
            assert!(ctx.bx != 1, "kernel failed in block {}", ctx.bx);
        });
    }
}
