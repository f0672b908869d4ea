//! Timestamped power traces and energy integration.

use enprop_units::{Joules, Seconds, Watts};

/// No real node draws a megawatt: any sample above this is treated as a
/// wrapped/stale counter leaking through and rejected as
/// [`MeasureError::ImplausibleSample`](crate::MeasureError::ImplausibleSample).
pub const PLAUSIBLE_POWER_CAP: Watts = Watts(1.0e6);

/// One meter reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sample timestamp (relative to the trace start).
    pub at: Seconds,
    /// Measured power.
    pub power: Watts,
}

/// A time-ordered sequence of power samples, as produced by a meter
/// polled at a fixed rate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with room for `samples` samples.
    pub(crate) fn with_capacity(samples: usize) -> Self {
        Self { samples: Vec::with_capacity(samples) }
    }

    /// Appends samples that are in time order and no earlier than the last
    /// one: the meter's bulk path, whose timestamps are ordered by
    /// construction, so it skips [`push`](Self::push)'s per-sample check.
    pub(crate) fn extend_ordered(&mut self, samples: impl Iterator<Item = PowerSample>) {
        let from = self.samples.len().saturating_sub(1);
        self.samples.extend(samples);
        debug_assert!(
            self.samples[from..].windows(2).all(|w| w[0].at <= w[1].at),
            "samples must be time-ordered"
        );
    }

    /// Appends a sample; panics if timestamps go backwards.
    pub fn push(&mut self, at: Seconds, power: Watts) {
        if let Some(last) = self.samples.last() {
            assert!(at >= last.at, "samples must be time-ordered");
        }
        self.samples.push(PowerSample { at, power });
    }

    /// The samples in time order.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time span covered by the trace (0 for < 2 samples).
    pub fn duration(&self) -> Seconds {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => Seconds::ZERO,
        }
    }

    /// Energy by trapezoidal integration over the whole trace.
    pub fn energy(&self) -> Joules {
        self.summary().energy()
    }

    /// Mean power: energy divided by duration; `None` for traces shorter
    /// than two samples.
    pub fn mean_power(&self) -> Option<Watts> {
        self.summary().mean_power()
    }

    /// Everything a measurement reads from the trace: the sample count,
    /// duration, trapezoidal energy and first implausible sample.
    pub(crate) fn summary(&self) -> TraceSummary {
        let samples = &self.samples;
        let mut energy = 0.0;
        if let Some((&first, rest)) = samples.split_first() {
            // One trapezoid per pair of neighbours, summed in time order.
            let mut last = first;
            for &s in rest {
                energy += 0.5 * (last.power.value() + s.power.value()) * (s.at - last.at).value();
                last = s;
            }
        }
        let implausible =
            |s: &PowerSample| !s.power.value().is_finite() || s.power > PLAUSIBLE_POWER_CAP;
        // A branch-free scan first: readings almost never hold one.
        let first_implausible = if samples.iter().fold(false, |any, s| any | implausible(s)) {
            samples.iter().copied().find(implausible)
        } else {
            None
        };
        TraceSummary {
            samples: samples.len(),
            duration: self.duration(),
            energy: Joules(energy),
            first_implausible,
        }
    }

    /// Peak sampled power; `None` for an empty trace.
    pub fn peak_power(&self) -> Option<Watts> {
        self.samples
            .iter()
            .map(|s| s.power)
            .fold(None, |acc: Option<Watts>, p| Some(acc.map_or(p, |m| m.max(p))))
    }
}

/// What a measurement reads from a [`PowerTrace`], taken in one call to
/// [`PowerTrace::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TraceSummary {
    samples: usize,
    duration: Seconds,
    energy: Joules,
    first_implausible: Option<PowerSample>,
}

impl TraceSummary {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Time span covered by the trace (0 for < 2 samples).
    pub fn duration(&self) -> Seconds {
        self.duration
    }

    /// Energy by trapezoidal integration over the whole trace.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Mean power: energy divided by duration; `None` when the duration is
    /// not positive (fewer than two samples).
    pub fn mean_power(&self) -> Option<Watts> {
        let d = self.duration;
        if d.value() <= 0.0 {
            return None;
        }
        Some(self.energy / d)
    }

    /// The first sample that is not finite or exceeds
    /// [`PLAUSIBLE_POWER_CAP`] (a wrapped-counter artifact), if any.
    pub fn first_implausible(&self) -> Option<PowerSample> {
        self.first_implausible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(f64, f64)]) -> PowerTrace {
        let mut t = PowerTrace::new();
        for &(at, p) in points {
            t.push(Seconds(at), Watts(p));
        }
        t
    }

    #[test]
    fn empty_trace() {
        let t = PowerTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.energy(), Joules::ZERO);
        assert_eq!(t.duration(), Seconds::ZERO);
        assert!(t.mean_power().is_none());
        assert!(t.peak_power().is_none());
        assert_eq!(t.summary().len(), 0);
        assert_eq!(t.summary().duration(), Seconds::ZERO);
    }

    #[test]
    fn summary_matches_the_trace_and_finds_the_first_implausible_sample() {
        let t = trace(&[(0.0, 10.0), (0.5, 2.0e6), (1.5, f64::NAN), (2.0, 10.0)]);
        let s = t.summary();
        assert_eq!((s.len(), s.duration()), (4, t.duration()));
        assert_eq!(s.first_implausible(), Some(t.samples()[1]));
        let t = trace(&[(0.25, 10.0), (0.5, 30.0), (2.0, 10.0)]);
        let s = t.summary();
        assert_eq!(s.first_implausible(), None);
        assert_eq!(s.duration(), Seconds(1.75));
        assert_eq!(s.energy(), Joules(35.0));
        assert_eq!(s.mean_power(), Some(Watts(20.0)));
        let one = trace(&[(3.0, 10.0)]).summary();
        assert_eq!((one.len(), one.duration(), one.mean_power()), (1, Seconds::ZERO, None));
    }

    #[test]
    fn constant_power_integration() {
        let t = trace(&[(0.0, 100.0), (1.0, 100.0), (2.0, 100.0)]);
        assert_eq!(t.energy(), Joules(200.0));
        assert_eq!(t.mean_power().unwrap(), Watts(100.0));
        assert_eq!(t.peak_power().unwrap(), Watts(100.0));
        assert_eq!(t.duration(), Seconds(2.0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn trapezoid_on_ramp() {
        // Power ramps 0→100 over 2 s: energy = 100 J.
        let t = trace(&[(0.0, 0.0), (2.0, 100.0)]);
        assert_eq!(t.energy(), Joules(100.0));
        assert_eq!(t.mean_power().unwrap(), Watts(50.0));
        assert_eq!(t.peak_power().unwrap(), Watts(100.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_unordered_samples() {
        let mut t = PowerTrace::new();
        t.push(Seconds(1.0), Watts(10.0));
        t.push(Seconds(0.5), Watts(10.0));
    }

    #[test]
    fn uneven_sampling_intervals() {
        let t = trace(&[(0.0, 10.0), (0.5, 10.0), (2.0, 10.0)]);
        assert!((t.energy().value() - 20.0).abs() < 1e-12);
    }
}
