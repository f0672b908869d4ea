#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The reproduction harness: one generator per paper table/figure.
//!
//! Every generator returns a plain serializable struct holding exactly the
//! rows/series the paper's artifact reports, so that
//!
//! * the `repro` binary can print them (and dump JSON for EXPERIMENTS.md),
//! * the end-to-end benchmark in `benchmark/` can time the measured
//!   Fig. 7/8 generators,
//! * the integration tests can assert the paper's qualitative claims.
//!
//! | Generator | Paper artifact |
//! |---|---|
//! | [`figures::table1`] | Table I (platform specifications) |
//! | [`figures::fig1`] | Fig. 1 (strong EP: `E_d` vs `W`, three processors) |
//! | [`figures::fig2`] | Fig. 2 (P100 weak EP + Pareto regions, N = 18432) |
//! | [`figures::fig4`] | Fig. 4 (CPU power/performance vs utilization, N = 17408) |
//! | [`figures::fig6`] | Fig. 6 (dynamic-energy non-additivity in G) |
//! | [`figures::fig7`] | Fig. 7 (K40c local Pareto fronts, N = 8704/10240) |
//! | [`figures::fig8`] | Fig. 8 (P100 global Pareto fronts, N = 10240/14336) |
//! | [`figures::theory`] | §III Eqs. 1–3 (two-core nonproportionality) |
//! | [`figures::headline`] | §I/§V headline savings/degradation pairs |

pub mod figures;
pub mod render;
pub mod scatter;

pub use figures::{ablations, fig1, fig2, fig4, fig6, fig7, fig8, headline, sensitivity, table1, theory};
