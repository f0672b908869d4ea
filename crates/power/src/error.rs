//! Typed errors of the measurement pipeline.
//!
//! Real meters fail: RAPL counters report stale ranges, wall-socket meters
//! drop samples mid-run, transient serial hiccups lose whole readings, and
//! idle baselines drift between capture and run. The seed code answered
//! every one of those with a panic (`expect("baseline window too short")`,
//! a debug-underflow in `RaplDomain::delta`), which turns one bad reading
//! into an aborted 10k-configuration sweep. [`MeasureError`] names each
//! failure mode so sessions, runners, and sweep drivers can propagate,
//! retry, and finally record a failure instead of dying on it.

use enprop_units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Everything that can go wrong between "run the app" and "here is its
/// dynamic energy".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MeasureError {
    /// The baseline-capture window is shorter than the meter can resolve
    /// (fewer than two samples, or shorter than one sample period), or is
    /// not a finite length at all (NaN or infinite).
    BaselineTooShort {
        /// The requested capture window.
        window: Seconds,
        /// The meter's sampling period.
        sample_period: Seconds,
    },
    /// A measurement was requested before any idle baseline was captured
    /// (a [`cold`](crate::session::EnergySession::cold) session that was
    /// never successfully reseeded, or whose last reseed failed).
    BaselineNotCaptured,
    /// The meter lost the whole reading (serial timeout, dropped
    /// connection, EAGAIN from the counter file) — worth retrying.
    TransientReadFailure,
    /// So many samples were dropped that the trace cannot be integrated
    /// (fewer than two samples survived).
    TraceTooShort {
        /// Samples that did survive.
        samples: usize,
    },
    /// A sample is physically implausible — the signature of a wrapped or
    /// stale hardware counter leaking through as a bogus power reading.
    ImplausibleSample {
        /// Timestamp of the offending sample.
        at: Seconds,
        /// The implausible reading.
        power: Watts,
    },
    /// A RAPL counter reading exceeds the domain's advertised
    /// `max_energy_range_uj` — the range file is stale or misreported, so
    /// wraparound correction is meaningless.
    CounterRangeAnomaly {
        /// Domain name (e.g. `package-0`).
        domain: String,
        /// The reading that exceeded the range.
        reading_uj: u64,
        /// The advertised wraparound range.
        max_energy_range_uj: u64,
    },
    /// An I/O error from a hardware counter interface, carried as text so
    /// the error stays cloneable and comparable.
    Io {
        /// Human-readable context (`read energy_uj: ...`).
        context: String,
    },
    /// One measurement attempt overran its per-config watchdog budget. The
    /// sweep's retry policy converts hung or pathologically slow configs
    /// into this error instead of letting one config stall the campaign.
    DeadlineExceeded {
        /// The per-attempt wall-clock budget that was in force.
        budget: Seconds,
        /// How long the attempt actually took.
        elapsed: Seconds,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::BaselineTooShort { window, sample_period } if !window.is_finite() => {
                write!(
                    f,
                    "baseline window {window} is not a finite length (meter samples every \
                     {sample_period})"
                )
            }
            MeasureError::BaselineTooShort { window, sample_period } => write!(
                f,
                "baseline window {window} is too short for a meter sampling every {sample_period}"
            ),
            MeasureError::BaselineNotCaptured => {
                write!(f, "no idle baseline captured; reseed the session before measuring")
            }
            MeasureError::TransientReadFailure => {
                write!(f, "transient meter read failure (reading lost)")
            }
            MeasureError::TraceTooShort { samples } => {
                write!(f, "power trace too short to integrate ({samples} sample(s) survived)")
            }
            MeasureError::ImplausibleSample { at, power } => {
                write!(f, "implausible sample {power} at t = {at} (wrapped/stale counter?)")
            }
            MeasureError::CounterRangeAnomaly { domain, reading_uj, max_energy_range_uj } => {
                write!(
                    f,
                    "RAPL domain {domain}: reading {reading_uj} uJ exceeds advertised range \
                     {max_energy_range_uj} uJ (stale max_energy_range_uj?)"
                )
            }
            MeasureError::Io { context } => write!(f, "counter I/O error: {context}"),
            MeasureError::DeadlineExceeded { budget, elapsed } => {
                write!(f, "measurement took {elapsed}, exceeding the {budget} deadline budget")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<std::io::Error> for MeasureError {
    fn from(e: std::io::Error) -> Self {
        MeasureError::Io { context: e.to_string() }
    }
}

impl MeasureError {
    /// True for failures that a bounded re-measure has a real chance of
    /// clearing (the retry policy's filter is deliberately permissive:
    /// everything except programmer-level misuse is worth one more try).
    pub fn is_transient(&self) -> bool {
        !matches!(self, MeasureError::BaselineTooShort { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = MeasureError::BaselineTooShort {
            window: Seconds(0.5),
            sample_period: Seconds(1.0),
        };
        let s = e.to_string();
        assert!(s.contains("baseline window"), "{s}");
        let e = MeasureError::CounterRangeAnomaly {
            domain: "package-0".into(),
            reading_uj: 10,
            max_energy_range_uj: 5,
        };
        assert!(e.to_string().contains("package-0"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::TimedOut, "serial timeout");
        let e: MeasureError = io.into();
        assert!(matches!(e, MeasureError::Io { .. }));
        assert!(e.to_string().contains("serial timeout"));
    }

    #[test]
    fn transience_classification() {
        assert!(MeasureError::TransientReadFailure.is_transient());
        assert!(MeasureError::BaselineNotCaptured.is_transient());
        // A blown deadline is worth retrying: the next attempt reseeds and
        // may simply not hit the slow path again.
        assert!(MeasureError::DeadlineExceeded {
            budget: Seconds(0.1),
            elapsed: Seconds(0.5)
        }
        .is_transient());
        assert!(!MeasureError::BaselineTooShort {
            window: Seconds(0.0),
            sample_period: Seconds(1.0)
        }
        .is_transient());
    }

    #[test]
    fn errors_round_trip_through_json() {
        let e = MeasureError::ImplausibleSample { at: Seconds(3.0), power: Watts(1e9) };
        let json = serde_json::to_string(&e).unwrap();
        let back: MeasureError = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        let e = MeasureError::DeadlineExceeded { budget: Seconds(0.25), elapsed: Seconds(1.5) };
        let json = serde_json::to_string(&e).unwrap();
        let back: MeasureError = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
