#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Power-measurement substrate.
//!
//! The paper's energy numbers come from a **WattsUp Pro** wall-socket power
//! meter sitting between the A/C outlet and the node, read over serial USB
//! by the **HCLWATTSUP** tool, which subtracts the node's idle (static)
//! power from the integrated total to obtain *dynamic* energy. Neither the
//! meter nor the instrumented node is available here, so this crate
//! simulates the whole chain faithfully:
//!
//! * [`source`] — things that draw power over time: constant and piecewise
//!   loads, and composition of loads on a node with an idle floor;
//! * [`trace`] — timestamped power samples with trapezoidal energy
//!   integration;
//! * [`wattsup`] — the simulated meter: finite sample rate (1 Hz like the
//!   real device), 0.1 W quantization, Gaussian sensor noise;
//! * [`session`] — the HCLWATTSUP-style measurement session: capture an
//!   idle baseline, run the application, report total / static / dynamic
//!   energy;
//! * [`rapl`] — the real-hardware bridge: Intel RAPL energy counters via
//!   the Linux powercap sysfs, for metering the toolkit's real kernels on
//!   machines that expose them;
//! * [`error`] — the typed failure taxonomy ([`MeasureError`]) every layer
//!   of the pipeline propagates instead of panicking;
//! * [`meter`] — the [`Meter`] seam sessions measure through, so fallible
//!   meters slot in where the infallible simulation used to be hardwired;
//! * [`fault`] — a deterministic, seed-driven [`FaultInjectingMeter`]
//!   (dropouts, glitches, baseline drift, transient read failures) so the
//!   failure handling is testable without hardware.
//!
//! The simulation's purpose is *methodological* fidelity: measurement noise
//! and finite sampling force the statistics machinery (repetition until a
//! Student-t confidence interval is met) to do the same work it does in the
//! paper.

pub mod error;
pub mod fault;
pub mod meter;
pub mod rapl;
pub mod session;
pub mod source;
mod splitmix;
pub mod trace;
pub mod wattsup;

pub use error::MeasureError;
pub use fault::{FaultInjectingMeter, FaultPlan, GLITCH_POWER};
pub use meter::Meter;
pub use rapl::{RaplDomain, RaplReader};
pub use session::{EnergyReading, EnergySession, PLAUSIBLE_POWER_CAP};
pub use source::{CompositeLoad, ConstantLoad, PiecewiseLoad, PowerSource};
pub use trace::{PowerSample, PowerTrace};
pub use wattsup::{MeterSpec, SimulatedWattsUp};
