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
    /// `power_at` is a static call the compiler can inline. The times must
    /// be non-negative and non-decreasing, as a meter's timestamps are, so
    /// that a source may fill each run of times with one draw at once.
    /// Panics unless they are, and unless `at` and `out` have the same
    /// length.
    fn power_at_each(&self, at: &[f64], out: &mut [f64]) {
        check_times(at, out);
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

/// [`PowerSource::power_at_each`]'s contract: one output per time, and
/// times that are non-negative and non-decreasing (so never NaN), checked
/// in one branch-free pass.
fn check_times(at: &[f64], out: &[f64]) {
    assert_eq!(at.len(), out.len(), "one output per time");
    let ordered = at.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
    assert!(
        ordered & at.first().is_none_or(|&t| t >= 0.0),
        "times must be non-negative and non-decreasing"
    );
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

    /// One `fill` per segment. The times are non-decreasing, so those at or
    /// before a segment's end are a prefix of the ones not yet filled; the
    /// prefix is counted against the end accumulated exactly as
    /// [`power_at`](Self::power_at) accumulates it, and times past the last
    /// end draw nothing.
    fn power_at_each(&self, at: &[f64], out: &mut [f64]) {
        check_times(at, out);
        let mut filled = 0;
        let mut elapsed = 0.0;
        for &(len, w) in &self.segments {
            if filled == at.len() {
                break;
            }
            elapsed += len.value();
            let run = at[filled..].iter().filter(|&&t| t <= elapsed).count();
            out[filled..filled + run].fill(w.value());
            filled += run;
        }
        out[filled..].fill(Watts::ZERO.value());
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

    /// `power_at_each` over `at` equals `power_at` at each time, bit for bit.
    fn assert_fill_matches(load: &PiecewiseLoad, at: &[f64]) {
        let mut out = vec![f64::NAN; at.len()];
        load.power_at_each(at, &mut out);
        for (&t, &p) in at.iter().zip(&out) {
            assert_eq!(p.to_bits(), load.power_at(Seconds(t)).value().to_bits(), "t = {t:e}");
        }
    }

    /// Times from 0 in steps of `period`, accumulated as a meter does.
    fn accumulated(period: f64, count: usize) -> Vec<f64> {
        let mut t = 0.0;
        (0..count)
            .map(|_| {
                let at = t;
                t += period;
                at
            })
            .collect()
    }

    #[test]
    fn piecewise_fill_matches_power_at_on_segment_ends() {
        // The ends accumulate to 0.1, 0.30000000000000004 and 1.0 s, and
        // 10 Hz timestamps land exactly on the first two; 0.9999999999999999
        // falls an ulp short of the last.
        let fine = PiecewiseLoad::from_segments(vec![
            (Seconds(0.1), Watts(180.0)),
            (Seconds(0.2), Watts(60.0)),
            (Seconds(0.7), Watts(125.0)),
        ]);
        let ten_hz = accumulated(0.1, 13);
        assert_eq!(ten_hz[3], 0.30000000000000004);
        assert_eq!(ten_hz[10], 0.9999999999999999);
        assert_fill_matches(&fine, &ten_hz);
        let ends: [f64; 3] = [0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.7];
        let around: Vec<f64> = ends.iter().flat_map(|&e| [e.next_down(), e, e.next_up()]).collect();
        assert_fill_matches(&fine, &around);
        let mut out = [0.0; 9];
        fine.power_at_each(&around, &mut out);
        assert_eq!(out, [180.0, 180.0, 60.0, 60.0, 60.0, 125.0, 125.0, 125.0, 0.0]);
    }

    #[test]
    fn piecewise_fill_matches_power_at_where_ends_round_equal() {
        // 1 s + 1e-17 s rounds to 1 s: the middle segment ends where the
        // first does, so no time draws its 70 W.
        let load = PiecewiseLoad::from_segments(vec![
            (Seconds(1.0), Watts(50.0)),
            (Seconds(1e-17), Watts(70.0)),
            (Seconds(2.0), Watts(90.0)),
        ]);
        let at = [0.0, 0.5, 1.0f64.next_down(), 1.0, 1.0f64.next_up(), 2.0, 3.0, 3.5];
        assert_fill_matches(&load, &at);
        let mut out = [0.0; 8];
        load.power_at_each(&at, &mut out);
        assert_eq!(out, [50.0, 50.0, 50.0, 50.0, 90.0, 90.0, 90.0, 0.0]);
    }

    #[test]
    fn piecewise_fill_matches_power_at_across_segments_and_past_the_end() {
        // 64 times at 10 Hz span all five segments (4.2 s) and run past
        // them; every tail of the chunk starts in a different place.
        let load = PiecewiseLoad::from_segments(vec![
            (Seconds(0.5), Watts(200.0)),
            (Seconds(1.25), Watts(150.0)),
            (Seconds(0.3), Watts(175.0)),
            (Seconds(2.0), Watts(120.0)),
            (Seconds(0.15), Watts(300.0)),
        ]);
        let at = accumulated(0.1, 64);
        for from in 0..=at.len() {
            assert_fill_matches(&load, &at[from..]);
        }
        assert_fill_matches(&load, &[4.2, 5.0, 5.0, 1e9]);
        assert_fill_matches(&PiecewiseLoad::new(), &at);
    }

    #[test]
    #[should_panic(expected = "times must be non-negative and non-decreasing")]
    fn provided_fill_rejects_decreasing_times() {
        let load = ConstantLoad::new(Watts(100.0), Seconds(2.0));
        load.power_at_each(&[0.0, 1.0, 0.5], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "times must be non-negative and non-decreasing")]
    fn provided_fill_rejects_negative_times() {
        let load = ConstantLoad::new(Watts(100.0), Seconds(2.0));
        load.power_at_each(&[-0.5, 1.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "times must be non-negative and non-decreasing")]
    fn piecewise_fill_rejects_decreasing_times() {
        let load = PiecewiseLoad::from_segments(vec![(Seconds(2.0), Watts(100.0))]);
        load.power_at_each(&[0.0, 1.0, 0.5], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "times must be non-negative and non-decreasing")]
    fn piecewise_fill_rejects_negative_times() {
        let load = PiecewiseLoad::from_segments(vec![(Seconds(2.0), Watts(100.0))]);
        load.power_at_each(&[-0.5, 1.0], &mut [0.0; 2]);
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
