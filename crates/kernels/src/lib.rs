#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Real compute kernels backing the paper's applications.
//!
//! The paper's CPU experiments run Intel-MKL / OpenBLAS DGEMM inside a
//! carefully structured multithreaded harness (Fig. 3), and its strong-EP
//! study runs a 2-D FFT. This crate provides genuine Rust implementations
//! of both so the toolkit has an executable, testable ground truth for the
//! work accounting (`2 N³` flops for DGEMM, `5 N² log₂ N` for the FFT):
//!
//! * [`matrix`] — dense row-major matrices with deterministic fills;
//! * [`dgemm`] — blocked `C ← α A B + β C`, serial and multi-threaded
//!   (row slabs claimed in chunks, bitwise-identical at any thread count);
//! * [`threadgroup`] — the paper's Fig. 3 decomposition: `p` threadgroups ×
//!   `t` threads, A and C horizontally partitioned, B shared, no
//!   inter-thread communication;
//! * [`fft`] — iterative radix-2 complex FFT;
//! * [`fft2d`] — parallel row–column 2-D FFT.
//!
//! Every threaded kernel fans out through `enprop-par`, the workspace's
//! one fan-out primitive: `dgemm_blocked_mt` and `fft2d_parallel` take
//! disjoint `&mut` row bands from `for_chunks`, and `dgemm_threadgroups`
//! runs one thread per band through `join`. The `unsafe` left in this
//! crate is the AVX2 dispatch alone.
//!
//! These kernels run at laptop-scale sizes; the simulators in
//! `enprop-cpusim`/`enprop-gpusim` extrapolate timing and power to the
//! paper's N (up to 44000, far beyond available memory).

pub mod dgemm;
pub mod fft;
pub mod fft2d;
pub mod matrix;
pub mod threadgroup;

pub use dgemm::{dgemm_blocked, dgemm_blocked_mt, dgemm_blocked_unpacked, dgemm_naive, simd_dispatch};
pub use fft::{fft_inplace, ifft_inplace, Complex, Twiddles};
pub use fft2d::{fft2d_parallel, fft2d_serial, fft2d_work};
pub use matrix::Matrix;
pub use threadgroup::{dgemm_threadgroups, ThreadgroupConfig, ThreadgroupRun};
