#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Bi-objective (performance/dynamic-energy) optimization tooling.
//!
//! The paper turns energy *non*proportionality into an opportunity: since
//! different application configurations solving the same workload have
//! different (execution-time, dynamic-energy) points, one can compute the
//! **Pareto front** of that cloud and trade performance for energy. This
//! crate provides:
//!
//! * [`front`] — minimizing 2-D Pareto fronts in `O(n log n)`, general
//!   k-objective fronts, and successive non-dominated *layers* (the paper's
//!   "local Pareto fronts contain solutions that are less optimal than the
//!   solutions in the global Pareto front");
//! * [`tradeoff`] — the paper's headline statistics: *"X% dynamic energy
//!   savings while tolerating a performance degradation of Y%"*;
//! * [`epsilon`] — ε-dominance fronts for thinning/subsampled sweeps and
//!   Zitzler's coverage metric;
//! * [`incremental`] — online front maintenance and the patience-based
//!   budgeted search the paper's "expensive exhaustive sweeps" remark
//!   motivates;
//! * [`hypervolume`] — the dominated-hypervolume quality indicator;
//! * [`knee`] — knee-point selection on a front.
//!
//! All functions operate on plain `(time, energy)` pairs (both minimized)
//! and return indices into the input, so callers can keep arbitrary
//! configuration payloads alongside.

pub mod epsilon;
pub mod front;
pub mod incremental;
pub mod hypervolume;
pub mod knee;
pub mod tradeoff;

pub use epsilon::{coverage, epsilon_dominates, epsilon_front};
pub use front::{front_layers, is_non_dominated, pareto_front, pareto_front_kd, BiPoint};
pub use incremental::{adaptive_front, FrontTracker, SearchResult};
pub use hypervolume::hypervolume_2d;
pub use knee::knee_point;
pub use tradeoff::{Tradeoff, TradeoffAnalysis};
