//! A functional CUDA-style execution emulator.
//!
//! The emulator runs kernels the way the paper's GPUs do, structurally: a
//! grid of thread blocks, each block a 2-D array of threads that share a
//! per-block scratch memory and synchronize with barrier semantics
//! (`__syncthreads`). Kernels are expressed as barrier-phase state
//! machines ([`exec::BlockKernel`]) and interpreted cooperatively: one
//! host thread runs all threads of a block in lockstep phase order, blocks
//! execute in parallel waves sized by [`exec::WavePlan`] (host
//! parallelism, optionally capped by the modeled device's occupancy) and
//! claimed in chunks through `enprop_par::for_chunks`. Memories are
//! relaxed atomic `f64` cells ([`mem`]); event counts accumulate in
//! per-block plain counters flushed once per block. The original
//! OS-thread-per-CUDA-thread engine survives in [`legacy`] purely as the
//! equivalence oracle; its threads come from `enprop_par::join`.
//!
//! Its purpose is *semantic ground truth* at small N:
//!
//! * the tiled DGEMM of the paper's Fig. 5 ([`tiled_dgemm`]) is executed
//!   for every `(BS, G, R)` and validated against a reference matmul;
//! * every memory access, flop and barrier is counted ([`mem::EventCounters`]),
//!   and the counts cross-validate the analytic CUPTI model
//!   ([`crate::cupti::CuptiReport`]) exactly.

pub mod exec;
pub mod fft_kernel;
pub mod legacy;
pub mod mem;
pub mod simd;
pub mod tiled_dgemm;

pub use exec::{
    run_grid, run_grid_monitored, run_grid_unbatched, AccessPoint, AccessSink, BatchAccess,
    BatchCtx, BlockExit, BlockKernel, Dim2, ForceScalar, GlobalBatch, GlobalRun, LoadRange, NoSink,
    PhaseCtx, PhaseOutcome, PhaseTrace, SharedBatch, WavePlan,
};
pub use fft_kernel::EmuRowFft;
pub use mem::{BlockCounters, BufId, EmuEvents, EventCounters, GlobalMem, SharedMem};
pub use simd::SimdPath;
pub use tiled_dgemm::EmuDgemm;
