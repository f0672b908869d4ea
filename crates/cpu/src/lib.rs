#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Multicore CPU simulator: the substitute for the paper's dual-socket
//! Intel Haswell E5-2670 v3 node.
//!
//! The paper's CPU study (§III, Fig. 4) runs Intel-MKL and OpenBLAS DGEMM
//! under a threadgroup harness and observes that dynamic power is a
//! *non-functional* relation of average CPU utilization: configurations
//! with the same mean utilization draw different power because their
//! per-core utilization *distributions* differ — precisely the mechanism
//! the paper's two-core theorem formalizes.
//!
//! The simulator reproduces that generating mechanism:
//!
//! * [`topology`] — sockets / physical cores / SMT, clocks and caches
//!   (Table I's Haswell preset);
//! * [`procstat`] — a faithful `/proc/stat` emulation (jiffies per logical
//!   CPU, render + parse + utilization-between-snapshots), because that is
//!   the interface the paper measures utilization through;
//! * [`config`] — the application configuration space: matrix partitioning
//!   × number of threadgroups × threads per group × BLAS flavor;
//! * [`sim`] — the execution model: per-thread throughput with SMT and
//!   memory-roofline contention, per-core utilization synthesis, and the
//!   dynamic-power aggregation including the dTLB page-walk term that
//!   Khokhriakov et al. identify as the energy-nonproportional component;
//! * [`fft_model`] — the CPU side of the strong-EP study (Fig. 1).

pub mod config;
pub mod dvfs;
pub mod fft_model;
pub mod procstat;
pub mod sim;
pub mod topology;

pub use config::{BlasFlavor, CpuDgemmConfig, Partitioning, Pinning};
pub use dvfs::{account_trace, DvfsTable, Governor, GovernorSim, PState, TraceSummary};
pub use procstat::{CpuTimes, ProcStat};
pub use sim::{CpuRunEstimate, CpuSimulator};
pub use topology::{CpuPowerModel, CpuTopology};
