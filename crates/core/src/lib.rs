#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The paper's primary contribution: a formalization of energy
//! proportionality (EP) and the machinery to test, quantify and explain
//! its violation.
//!
//! * [`strong`] — **strong EP**: dynamic energy grows linearly with work,
//!   `E_d = c × W`. Tested by a through-origin fit and its worst relative
//!   residual (Fig. 1's question).
//! * [`weak`] — **weak EP**: dynamic energy is a *constant* across all
//!   load-balanced application configurations solving the same workload.
//!   Tested by the spread of per-configuration energies (Figs. 2, 7, 8's
//!   question).
//! * [`two_core`] — the paper's §III theorem: two homogeneous cores obeying
//!   the simple EP model (`P = a·U`, `t = b/U`) *necessarily* consume more
//!   dynamic energy whenever their utilizations diverge, with the exact
//!   Eqs. (1)–(3) and an n-core generalization.
//! * [`metrics`] — EP metrics from the literature the paper surveys
//!   (Ryckbosch et al.'s area metric, Barroso & Hölzle's dynamic range).
//! * [`additivity`] — the energy-predictive-model theory: the additivity
//!   property for selecting performance events as model variables, and
//!   linear dynamic-energy model construction on top of them.
//! * [`partition`] — the bi-objective workload-partitioning solver of the
//!   methodology lineage the paper builds on (§II-A): exact
//!   Pareto-optimal workload distributions over heterogeneous processors.
//! * [`audit`] — one-call bi-objective EP audits of configuration clouds.

pub mod additivity;
pub mod audit;
pub mod metrics;
pub mod partition;
pub mod strong;
pub mod two_core;
pub mod weak;

pub use additivity::{additivity_error, fixed_component_fit, AdditivityReport, EnergyModelBuilder};
pub use audit::BiObjectiveAudit;
pub use partition::{DiscreteProfile, Distribution, Partitioner};
pub use metrics::{dynamic_range, ep_metric_area, ep_metric_hsu_poole, proportionality_gap};
pub use strong::{StrongEpReport, StrongEpTest};
pub use two_core::{SimpleEpCore, TwoCoreAnalysis};
pub use weak::{WeakEpReport, WeakEpTest};
