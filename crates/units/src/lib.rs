#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Type-safe physical quantities for energy-proportionality analysis.
//!
//! Energy/performance studies juggle joules, watts, seconds, flop counts and
//! utilization fractions; mixing them up silently is the classic source of
//! wrong conclusions ("energy" plotted where "power" was meant). This crate
//! provides thin `f64` newtypes with only the physically meaningful
//! arithmetic implemented, so `Watts * Seconds` yields [`Joules`] but
//! `Joules + Watts` does not compile.
//!
//! The types are deliberately minimal: `Copy`, ordered, serializable, with
//! human-friendly [`std::fmt::Display`] implementations using engineering
//! prefixes.
//!
//! # Example
//! ```
//! use enprop_units::{Watts, Seconds, Joules};
//! let p = Watts(58.0);
//! let t = Seconds(2.5);
//! let e: Joules = p * t;
//! assert_eq!(e, Joules(145.0));
//! assert_eq!(e / t, p);
//! ```

mod display;
mod quantities;
mod utilization;

pub use display::EngFormat;
pub use quantities::{
    BytesPerSecond, Flops, FlopsPerSecond, Hertz, Joules, MemBytes, Seconds, Watts, Work,
};
pub use utilization::Utilization;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        assert_eq!(Watts(100.0) * Seconds(3.0), Joules(300.0));
        assert_eq!(Seconds(3.0) * Watts(100.0), Joules(300.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joules(300.0) / Seconds(3.0), Watts(100.0));
    }

    #[test]
    fn flops_over_time_is_rate() {
        let r = Flops(2.0e9) / Seconds(2.0);
        assert_eq!(r, FlopsPerSecond(1.0e9));
        assert!((r.gflops() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_dimensionless() {
        assert_eq!(Joules(10.0).ratio(Joules(40.0)), 0.25);
        assert_eq!(Seconds(1.0).ratio(Seconds(4.0)), 0.25);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(Joules(1500.0).to_string(), "1.500 kJ");
        assert_eq!(Watts(0.25).to_string(), "250.000 mW");
        assert_eq!(Seconds(90.0).to_string(), "90.000 s");
        assert_eq!(FlopsPerSecond(7.0e11).to_string(), "700.000 Gflop/s");
    }
}
