#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # enprop-sanitize — a compute-sanitizer for the GPU emulator
//!
//! A deterministic analysis layer over the emulator's barrier-phase
//! interpreter, modeled on NVIDIA's `compute-sanitizer`. Where the real
//! tool binary-patches loads and stores on hardware, this crate attaches
//! to the [`AccessSink`] seam of `enprop-gpusim`: every emulated shared-
//! and global-memory access flows through a [`MonitorSink`] with full
//! block/thread/phase attribution, at zero cost to the uninstrumented
//! hot path (the default `NoSink` monomorphizes away).
//!
//! Three dynamic checkers plus a static one:
//!
//! * **racecheck** ([`monitor`]) — the barrier-phase structure *is* the
//!   happens-before relation: two same-phase accesses to one cell by
//!   different threads with at least one write are unordered, hence a
//!   hazard. Across blocks nothing synchronizes, so any write-sharing of
//!   a global cell between blocks is a hazard.
//! * **memcheck** ([`monitor`]) — out-of-bounds accesses (vetoed, so the
//!   run survives to report them) and reads of shared cells no thread of
//!   the block ever writes.
//! * **synccheck** ([`monitor`]) — barrier divergence, generalizing the
//!   plain interpreter's panic into a structured [`Finding`] naming the
//!   phase and the early-retired threads.
//! * **prelaunch** ([`prelaunch`]) — launch-geometry validation (tile
//!   divisibility, shared-memory footprint, thread budget, occupancy)
//!   before any thread runs.
//!
//! [`driver`] sweeps every shipped kernel configuration into a
//! machine-readable [`SanitizeReport`] (the `repro sanitize` subcommand);
//! [`fixtures`] holds seeded buggy kernels, each caught by exactly one
//! checker, snapshot-tested and re-verified by `repro sanitize
//! --self-test`.
//!
//! [`AccessSink`]: enprop_gpusim::emulator::AccessSink

pub mod driver;
pub mod fixtures;
pub mod monitor;
pub mod prelaunch;
pub mod report;

pub use driver::{
    dgemm_grid, fft_grid, sanitize_all, sanitize_dgemm, sanitize_fft, sanitize_kernel,
    KernelReport, SanitizeReport,
};
pub use monitor::{BufferTable, LaunchMonitor, MonitorOutcome, MonitorSink, DEFAULT_FINDING_CAP};
pub use report::{AccessKind, Checker, Finding, FindingKind, MemSpace};
