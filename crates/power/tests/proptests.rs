//! Property-based tests of the power-measurement substrate.

use enprop_power::{
    CompositeLoad, ConstantLoad, EnergySession, MeterSpec, PiecewiseLoad, PowerSource,
    SimulatedWattsUp,
};
use enprop_units::{Seconds, Watts};
use proptest::prelude::*;

fn quiet_spec() -> MeterSpec {
    MeterSpec { noise_sd_w: 0.0, resolution_w: 0.0, ..MeterSpec::default() }
}

proptest! {
    /// A noiseless meter integrates a constant load exactly (trapezoids on
    /// a constant are exact), for any duration and level.
    #[test]
    fn noiseless_constant_energy_exact(power in 0.0f64..500.0, secs in 1.0f64..300.0) {
        let mut meter = SimulatedWattsUp::new(quiet_spec(), Watts(0.0), 1);
        let app = ConstantLoad::new(Watts(power), Seconds(secs));
        let trace = meter.record(&app);
        let truth = power * secs;
        prop_assert!((trace.energy().value() - truth).abs() < 1e-6 * truth.max(1.0));
    }

    /// Session decomposition identity: total = static + dynamic, and the
    /// noiseless dynamic equals the app's analytic energy when segments
    /// align with the sampling grid.
    #[test]
    fn session_decomposition(
        idle in 10.0f64..200.0,
        power in 1.0f64..300.0,
        secs in 1u64..120,
    ) {
        let meter = SimulatedWattsUp::new(quiet_spec(), Watts(idle), 3);
        let mut session = EnergySession::with_baseline_window(meter, Seconds(30.0));
        let app = ConstantLoad::new(Watts(power), Seconds(secs as f64));
        let r = session.measure(&app);
        prop_assert!((r.total.value() - r.static_energy.value() - r.dynamic.value()).abs() < 1e-6);
        let truth = app.energy().value();
        prop_assert!((r.dynamic.value() - truth).abs() < 1e-6 * truth.max(1.0), "{r:?}");
    }

    /// Piecewise energy equals the sum of segment energies.
    #[test]
    fn piecewise_energy_additive(
        segs in prop::collection::vec((1.0f64..30.0, 0.0f64..300.0), 1..8)
    ) {
        let mut load = PiecewiseLoad::new();
        let mut truth = 0.0;
        for &(len, p) in &segs {
            load.push(Seconds(len), Watts(p));
            truth += len * p;
        }
        prop_assert!((load.energy().value() - truth).abs() < 1e-9 * truth.max(1.0));
        let total_len: f64 = segs.iter().map(|s| s.0).sum();
        prop_assert!((load.duration().value() - total_len).abs() < 1e-9);
    }

    /// A piecewise load's chunk fill equals `power_at` bit for bit, in
    /// chunks of any size, at a meter's accumulated timestamps, at each
    /// accumulated segment end and its neighbours, and past the end.
    #[test]
    fn piecewise_fill_matches_power_at(
        segs in prop::collection::vec((0.01f64..3.0, 0.0f64..300.0), 1..6),
        period in 0.05f64..1.0,
        extra in prop::collection::vec(0.0f64..12.0, 0..8),
        chunk in 1usize..70,
    ) {
        let mut load = PiecewiseLoad::new();
        let mut at = extra;
        let mut end = 0.0f64;
        for &(len, p) in &segs {
            load.push(Seconds(len), Watts(p));
            end += len;
            at.extend([end.next_down(), end, end.next_up()]);
        }
        let mut t = 0.0;
        while t < end + 2.0 * period {
            at.push(t);
            t += period;
        }
        at.sort_by(f64::total_cmp);
        for times in at.chunks(chunk) {
            let mut out = vec![f64::NAN; times.len()];
            load.power_at_each(times, &mut out);
            for (&t, &p) in times.iter().zip(&out) {
                prop_assert_eq!(p.to_bits(), load.power_at(Seconds(t)).value().to_bits());
            }
        }
    }

    /// Composite loads superpose: power and energy are sums.
    #[test]
    fn composite_superposition(
        p1 in 0.0f64..300.0,
        d1 in 1.0f64..60.0,
        p2 in 0.0f64..300.0,
        d2 in 1.0f64..60.0,
        t in 0.0f64..60.0,
    ) {
        let a = ConstantLoad::new(Watts(p1), Seconds(d1));
        let b = ConstantLoad::new(Watts(p2), Seconds(d2));
        let c = CompositeLoad::new(a, b);
        let expect = a.power_at(Seconds(t)) + b.power_at(Seconds(t));
        prop_assert_eq!(c.power_at(Seconds(t)), expect);
        prop_assert!((c.energy().value() - (p1 * d1 + p2 * d2)).abs() < 1e-9);
        prop_assert_eq!(c.duration(), Seconds(d1.max(d2)));
    }

    /// Noisy measurements of long runs converge to the truth within a few
    /// noise standard errors.
    #[test]
    fn noisy_long_run_unbiased(seed in 0u64..50) {
        let spec = MeterSpec::default(); // 0.5 W noise, 0.1 W steps
        let mut meter = SimulatedWattsUp::new(spec, Watts(90.0), seed);
        let app = ConstantLoad::new(Watts(120.0), Seconds(600.0));
        let mean = meter.record(&app).mean_power().expect("long trace").value();
        prop_assert!((mean - 210.0).abs() < 0.5, "mean {mean}");
    }

    /// Quantization keeps readings on the resolution grid.
    #[test]
    fn quantization_grid(power in 0.0f64..400.0, res_steps in 1u32..20) {
        let res = res_steps as f64 * 0.1;
        let spec = MeterSpec { noise_sd_w: 0.0, resolution_w: res, ..MeterSpec::default() };
        let mut meter = SimulatedWattsUp::new(spec, Watts(0.0), 7);
        let trace = meter.record(&ConstantLoad::new(Watts(power), Seconds(3.0)));
        for s in trace.samples() {
            let steps = s.power.value() / res;
            prop_assert!((steps - steps.round()).abs() < 1e-6, "{:?}", s);
        }
    }
}
