#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! GPU simulator: the substitute for the paper's Nvidia K40c and P100 PCIe.
//!
//! The physical GPUs are unavailable, so this crate provides two
//! complementary stand-ins (see `DESIGN.md` §2 for the substitution
//! rationale):
//!
//! 1. A **functional emulator** ([`emulator`]) that executes CUDA-style
//!    kernels — grids of blocks of threads with per-block shared memory and
//!    `__syncthreads` barriers — on OS threads, with full event counting.
//!    The paper's tiled matrix-multiplication kernel (Fig. 5) is
//!    implemented on it and validated against a reference matmul. This is
//!    the ground truth for kernel *semantics* and *event counts*.
//!
//! 2. An **analytic performance/power model** ([`model`]) that predicts
//!    kernel time and steady-state dynamic power at the paper's full
//!    problem sizes (N up to 18432) from first-order architectural
//!    mechanisms: occupancy ([`occupancy`]), memory coalescing/alignment,
//!    padded-tile waste, latency hiding, auto-boost clocking and the 58 W
//!    warm-up component of Fig. 6. Architecture descriptions live in
//!    [`arch`]; per-architecture power constants are *calibrated* to the
//!    published Pareto geometry.
//!
//! CUPTI-style performance-event readings, including the u32 overflow the
//! paper reports for N > 2048, are modeled in [`cupti`]; an analytic 2-D
//! FFT model for the strong-EP study (Fig. 1) is in [`fft_model`].

pub mod arch;
pub mod cupti;
pub mod emulator;
pub mod fft_model;
pub mod model;
pub mod occupancy;

pub use arch::{GpuArch, PowerModel};
pub use cupti::{CuptiCounter, CuptiReading, CuptiReport};
pub use model::{KernelEstimate, ProductProfile, TiledDgemm, TiledDgemmConfig};
pub use occupancy::Occupancy;
