#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Real compute kernels backing the paper's applications.
//!
//! The paper's CPU experiments run Intel-MKL / OpenBLAS DGEMM inside a
//! carefully structured multithreaded harness (Fig. 3), and its strong-EP
//! study runs a 2-D FFT. The CPU figures themselves come from the
//! `enprop-cpusim` model, so these kernels are references, not a product:
//! genuine Rust implementations that give the toolkit an executable,
//! testable ground truth for the work accounting (`2 N³` flops for DGEMM,
//! `5 N² log₂ N` for the FFT) and for the emulator's results:
//!
//! * [`matrix`] — dense row-major matrices with deterministic fills;
//! * [`dgemm`] — the naive reference and one cache-blocked
//!   `C ← α A B + β C`, bitwise-identical at any block size and row split;
//! * [`threadgroup`] — the paper's Fig. 3 decomposition: `p` threadgroups ×
//!   `t` threads, A and C horizontally partitioned, B shared, no
//!   inter-thread communication, one thread per band through
//!   `enprop_par::join`;
//! * [`fft`] — iterative radix-2 complex FFT;
//! * [`fft2d`] — serial row–column 2-D FFT.
//!
//! These kernels run at laptop-scale sizes; the simulators in
//! `enprop-cpusim`/`enprop-gpusim` extrapolate timing and power to the
//! paper's N (up to 44000, far beyond available memory).

pub mod dgemm;
pub mod fft;
pub mod fft2d;
pub mod matrix;
pub mod threadgroup;

pub use dgemm::{dgemm_blocked, dgemm_naive};
pub use fft::{fft_inplace, ifft_inplace, Complex, Twiddles};
pub use fft2d::{fft2d_serial, fft2d_work};
pub use matrix::Matrix;
pub use threadgroup::{dgemm_threadgroups, ThreadgroupConfig, ThreadgroupRun};
