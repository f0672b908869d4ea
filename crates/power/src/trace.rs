//! Timestamped power traces and energy integration.

use enprop_units::{Joules, Seconds, Watts};

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
        let mut acc = 0.0;
        for w in self.samples.windows(2) {
            let dt = (w[1].at - w[0].at).value();
            acc += 0.5 * (w[0].power.value() + w[1].power.value()) * dt;
        }
        Joules(acc)
    }

    /// Mean power: energy divided by duration; `None` for traces shorter
    /// than two samples.
    pub fn mean_power(&self) -> Option<Watts> {
        let d = self.duration();
        if d.value() <= 0.0 {
            return None;
        }
        Some(self.energy() / d)
    }

    /// Peak sampled power; `None` for an empty trace.
    pub fn peak_power(&self) -> Option<Watts> {
        self.samples
            .iter()
            .map(|s| s.power)
            .fold(None, |acc: Option<Watts>, p| Some(acc.map_or(p, |m| m.max(p))))
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
