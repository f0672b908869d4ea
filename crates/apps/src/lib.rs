#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The paper's benchmark applications as configuration-sweep drivers.
//!
//! This crate glues the substrates together: an application enumerates its
//! configuration space, asks the CPU/GPU simulator for each configuration's
//! execution profile, renders that profile as a [`enprop_power::PowerSource`],
//! measures it through the simulated WattsUp meter with the paper's
//! repeat-until-confidence protocol, and emits [`DataPoint`]s ready for
//! Pareto/EP analysis.
//!
//! * [`runner`] — the measurement pipeline (meter + statistics protocol);
//! * [`parallel`] — the deterministic parallel sweep executor
//!   (seed-splitting keeps output bitwise-identical at any thread count);
//! * [`checkpoint`] — the durable journal that makes long sweeps
//!   crash-safe and resumable without breaking that bitwise contract;
//! * [`gpu_matmul`] — the Fig. 5 tiled matrix multiplication over
//!   `(BS, G, R)` (Figs. 2, 6, 7, 8);
//! * [`cpu_dgemm`] — the threadgroup DGEMM over (partitioning, p, t,
//!   flavor) (Fig. 4);
//! * [`fft2d`] — the 2-D FFT size sweep for the strong-EP study (Fig. 1);
//! * [`sizes`] — the paper's workload grids.

pub mod checkpoint;
pub mod cpu_dgemm;
pub mod energy_model;
pub mod fft2d;
pub mod gpu_matmul;
pub mod parallel;
pub mod point;
pub mod runner;
pub mod sizes;

pub use checkpoint::{
    CheckpointError, CrashPlan, JournalRecord, ReplayStats, SweepCheckpoint, SweepManifest,
};
pub use cpu_dgemm::CpuDgemmApp;
pub use energy_model::{cpu_qualitative_model, gpu_energy_model};
pub use fft2d::{Fft2dApp, FftPoint, Processor};
pub use gpu_matmul::GpuMatMulApp;
pub use parallel::{
    split_seed, ResumableSweep, RetryPolicy, RobustSweep, SweepExecutor, SweepFailure,
    SweepOutcome,
};
pub use point::DataPoint;
pub use runner::MeasurementRunner;
