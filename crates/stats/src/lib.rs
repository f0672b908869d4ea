#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Statistical substrate for energy-proportionality experiments.
//!
//! Everything the paper's methodology needs, implemented from scratch:
//!
//! * **Special functions** ([`special`]): ln-gamma, regularized incomplete
//!   gamma/beta, error function — the numerical bedrock for the
//!   distributions.
//! * **Distributions** ([`dist`]): Normal, Student-t and χ² with CDFs and
//!   quantiles.
//! * **The measurement protocol** ([`protocol`]): the paper runs every
//!   experiment "repeatedly until the sample mean lies in the 95% confidence
//!   interval and a precision of 0.025 (2.5%) is achieved" using Student's
//!   t-test, then validates normality with Pearson's χ² test. That loop is
//!   [`protocol::measure_until_ci`].
//! * **Regression** ([`regress`], [`linalg`]): ordinary least squares —
//!   simple, polynomial and multiple (for linear energy-predictive models) —
//!   on top of a small dense LU solver.
//! * **Trend analysis** ([`trend`]): linear and concave-polynomial trend
//!   lines (the green/blue lines of Fig. 4), plateau detection, and the
//!   *functional-relationship* test that formalizes "the dynamic power is a
//!   non-functional relation of average utilization".
//! * **Descriptive statistics** ([`describe`]) and correlation ([`corr`]).

pub mod corr;
pub mod describe;
pub mod dist;
pub mod linalg;
pub mod protocol;
pub mod regress;
pub mod running;
pub mod special;
pub mod trend;

pub use describe::Summary;
pub use dist::{ChiSquared, Normal, StudentT};
pub use protocol::{
    measure_until_ci, try_measure_until_ci, MeasureConfig, Measurement, PearsonChiSquared,
};
pub use regress::{LinearFit, MultiLinearFit, PolyFit};
pub use running::Running;
pub use trend::{FunctionalTest, Plateau, TrendLine};
