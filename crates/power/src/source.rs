//! Power sources: time-varying power draws that a meter can observe.

use enprop_units::{Seconds, Watts};

/// Something that draws power over a finite duration.
///
/// `power_at(t)` must be defined on `0 ≤ t ≤ duration()`; the draw outside
/// that window is zero by convention (the node's idle floor is modeled
/// separately by the measurement session).
pub trait PowerSource {
    /// Instantaneous power draw at time `t` from the start of the run.
    fn power_at(&self, t: Seconds) -> Watts;
    /// Length of the run.
    fn duration(&self) -> Seconds;

    /// The draw at each time in `at` (seconds from the start of the run),
    /// in watts: `out[i]` equals `power_at(Seconds(at[i]))` bit for bit.
    /// It exists so that a meter makes one dynamic call per chunk of
    /// samples instead of one per sample; inside this provided body
    /// `power_at` is a static call the compiler can inline. Panics unless
    /// `at` and `out` have the same length.
    fn power_at_each(&self, at: &[f64], out: &mut [f64]) {
        assert_eq!(at.len(), out.len(), "one output per time");
        for (p, &t) in out.iter_mut().zip(at) {
            *p = self.power_at(Seconds(t)).value();
        }
    }

    /// Exact energy over the run by analytic/fine integration.
    ///
    /// Default implementation integrates `power_at` with a fine trapezoid
    /// (1 ms steps, at least 1000 of them); implementors with closed forms
    /// should override.
    fn energy(&self) -> enprop_units::Joules {
        let d = self.duration();
        let steps = ((d.value() / 1.0e-3).ceil() as usize).clamp(1000, 10_000_000);
        let h = d.value() / steps as f64;
        let mut acc = 0.5 * (self.power_at(Seconds(0.0)).value() + self.power_at(d).value());
        for i in 1..steps {
            acc += self.power_at(Seconds(i as f64 * h)).value();
        }
        enprop_units::Joules(acc * h)
    }
}

/// A constant draw for a fixed duration — the shape of a steady kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantLoad {
    /// The constant power level.
    pub power: Watts,
    /// The run length.
    pub duration: Seconds,
}

impl ConstantLoad {
    /// Creates a constant load. Panics on negative power, or on a duration
    /// that is not positive and finite.
    pub fn new(power: Watts, duration: Seconds) -> Self {
        assert!(power.value() >= 0.0, "power must be non-negative");
        assert!(
            duration.value() > 0.0 && duration.is_finite(),
            "duration must be positive and finite"
        );
        Self { power, duration }
    }
}

impl PowerSource for ConstantLoad {
    fn power_at(&self, t: Seconds) -> Watts {
        if t.value() < 0.0 || t > self.duration {
            Watts::ZERO
        } else {
            self.power
        }
    }

    fn duration(&self) -> Seconds {
        self.duration
    }

    fn energy(&self) -> enprop_units::Joules {
        self.power * self.duration
    }
}

/// A sequence of constant segments — e.g. a warm-up phase at elevated power
/// followed by steady state, or the per-kernel phases of a compound
/// application.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PiecewiseLoad {
    /// `(segment length, power)` pairs in execution order.
    segments: Vec<(Seconds, Watts)>,
}

impl PiecewiseLoad {
    /// Creates an empty piecewise load; add segments with `push`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a constant segment. Panics on negative power, or on a length
    /// that is not positive and finite.
    pub fn push(&mut self, len: Seconds, power: Watts) -> &mut Self {
        assert!(len.value() > 0.0 && len.is_finite(), "segment length must be positive and finite");
        assert!(power.value() >= 0.0, "power must be non-negative");
        self.segments.push((len, power));
        self
    }

    /// Builds from segments directly.
    pub fn from_segments(segments: Vec<(Seconds, Watts)>) -> Self {
        let mut p = Self::new();
        for (len, w) in segments {
            p.push(len, w);
        }
        p
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments have been added.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

impl PowerSource for PiecewiseLoad {
    fn power_at(&self, t: Seconds) -> Watts {
        if t.value() < 0.0 {
            return Watts::ZERO;
        }
        let mut elapsed = 0.0;
        for &(len, w) in &self.segments {
            elapsed += len.value();
            if t.value() <= elapsed {
                return w;
            }
        }
        Watts::ZERO
    }

    fn duration(&self) -> Seconds {
        Seconds(self.segments.iter().map(|(l, _)| l.value()).sum())
    }

    fn energy(&self) -> enprop_units::Joules {
        self.segments.iter().map(|&(l, w)| w * l).sum()
    }
}

/// Two sources drawing power simultaneously (e.g. compute plus the paper's
/// 58 W "energy-expensive component"). The composite lasts as long as the
/// longer of the two.
#[derive(Debug, Clone)]
pub struct CompositeLoad<A, B> {
    /// First component.
    pub a: A,
    /// Second component.
    pub b: B,
}

impl<A: PowerSource, B: PowerSource> CompositeLoad<A, B> {
    /// Combines two sources.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }
}

impl<A: PowerSource, B: PowerSource> PowerSource for CompositeLoad<A, B> {
    fn power_at(&self, t: Seconds) -> Watts {
        self.a.power_at(t) + self.b.power_at(t)
    }

    fn duration(&self) -> Seconds {
        self.a.duration().max(self.b.duration())
    }

    fn energy(&self) -> enprop_units::Joules {
        self.a.energy() + self.b.energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_units::Joules;

    #[test]
    fn constant_load_energy() {
        let l = ConstantLoad::new(Watts(100.0), Seconds(2.5));
        assert_eq!(l.energy(), Joules(250.0));
        assert_eq!(l.power_at(Seconds(1.0)), Watts(100.0));
        assert_eq!(l.power_at(Seconds(3.0)), Watts::ZERO);
    }

    #[test]
    fn piecewise_lookup_and_energy() {
        let mut p = PiecewiseLoad::new();
        p.push(Seconds(1.0), Watts(50.0)).push(Seconds(2.0), Watts(100.0));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.duration(), Seconds(3.0));
        assert_eq!(p.energy(), Joules(250.0));
        assert_eq!(p.power_at(Seconds(0.5)), Watts(50.0));
        assert_eq!(p.power_at(Seconds(1.5)), Watts(100.0));
        assert_eq!(p.power_at(Seconds(5.0)), Watts::ZERO);
    }

    #[test]
    fn composite_adds_power_and_energy() {
        let a = ConstantLoad::new(Watts(100.0), Seconds(2.0));
        let b = ConstantLoad::new(Watts(58.0), Seconds(1.0));
        let c = CompositeLoad::new(a, b);
        assert_eq!(c.duration(), Seconds(2.0));
        assert_eq!(c.power_at(Seconds(0.5)), Watts(158.0));
        assert_eq!(c.power_at(Seconds(1.5)), Watts(100.0));
        assert_eq!(c.energy(), Joules(258.0));
    }

    #[test]
    fn default_energy_integration_close_to_exact() {
        // Piecewise already overrides; check the default path via a custom
        // ramp source instead.
        struct Ramp;
        impl PowerSource for Ramp {
            fn power_at(&self, t: Seconds) -> Watts {
                Watts(10.0 * t.value())
            }
            fn duration(&self) -> Seconds {
                Seconds(2.0)
            }
        }
        // ∫₀² 10 t dt = 20.
        let e = Ramp.energy();
        assert!((e.value() - 20.0).abs() < 1e-6, "{e}");
    }

    #[test]
    #[should_panic(expected = "duration must be positive and finite")]
    fn infinite_constant_load_is_rejected() {
        ConstantLoad::new(Watts(100.0), Seconds(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "segment length must be positive and finite")]
    fn infinite_segment_is_rejected() {
        PiecewiseLoad::new()
            .push(Seconds(1.0), Watts(50.0))
            .push(Seconds(f64::INFINITY), Watts(50.0));
    }
}
