//! HCLWATTSUP-style energy sessions.
//!
//! HCLWATTSUP determines an application's dynamic energy in three steps:
//! capture the node's idle baseline, integrate total power over the run,
//! then report `E_dynamic = E_total − P_idle × t`. [`EnergySession`]
//! reproduces exactly that workflow against a [`Meter`] — the simulated
//! WattsUp by default, or a [fault-injecting](crate::fault::FaultInjectingMeter)
//! wrapper when the failure paths themselves are under test.
//!
//! Every step that a real rig can fail is fallible here:
//! [`try_with_baseline_window`](EnergySession::try_with_baseline_window),
//! [`try_reseed`](EnergySession::try_reseed) and
//! [`try_measure`](EnergySession::try_measure) return [`MeasureError`]s
//! instead of panicking; the infallible [`with_baseline_window`](EnergySession::with_baseline_window) /
//! [`reseed`](EnergySession::reseed) / [`measure`](EnergySession::measure)
//! wrappers remain for meters that cannot fail under statically-valid
//! windows (the plain simulation).

use crate::error::MeasureError;
use crate::meter::Meter;
use crate::source::PowerSource;
use crate::trace::TraceSummary;
use crate::wattsup::SimulatedWattsUp;
use enprop_units::{Joules, Seconds, Watts};

pub use crate::trace::PLAUSIBLE_POWER_CAP;

/// The decomposition of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReading {
    /// Run length.
    pub duration: Seconds,
    /// Integrated total node energy over the run.
    pub total: Joules,
    /// Static (idle-floor) energy: baseline power × duration.
    pub static_energy: Joules,
    /// Dynamic energy: total − static (clamped at zero: sensor noise can
    /// push a tiny run's total below the baseline).
    pub dynamic: Joules,
}

impl EnergyReading {
    /// Average dynamic power over the run.
    pub fn dynamic_power(&self) -> Watts {
        self.dynamic / self.duration
    }
}

/// A measurement session bound to one meter.
///
/// # Example
/// ```
/// use enprop_power::{EnergySession, SimulatedWattsUp, MeterSpec, ConstantLoad};
/// use enprop_units::{Watts, Seconds};
///
/// let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 42);
/// let mut session = EnergySession::with_baseline_window(meter, Seconds(120.0));
/// let app = ConstantLoad::new(Watts(150.0), Seconds(60.0));
/// let r = session.measure(&app);
/// // Dynamic energy ≈ 150 W × 60 s = 9 kJ (within meter noise).
/// assert!((r.dynamic.value() - 9000.0).abs() < 200.0);
/// ```
#[derive(Debug)]
pub struct EnergySession<M: Meter = SimulatedWattsUp> {
    meter: M,
    /// `None` until a baseline capture succeeds (cold session, or the last
    /// reseed failed mid-capture).
    baseline: Option<Watts>,
    baseline_window: Seconds,
}

impl<M: Meter> EnergySession<M> {
    /// Opens a session, capturing the idle baseline over `window` the way
    /// HCLWATTSUP does before any application run.
    ///
    /// Fails with [`MeasureError::BaselineTooShort`] when `window` cannot
    /// hold two meter samples or is not a finite length, and propagates any
    /// meter failure during the capture.
    pub fn try_with_baseline_window(meter: M, window: Seconds) -> Result<Self, MeasureError> {
        let mut s = Self::cold(meter, window)?;
        s.capture_baseline()?;
        Ok(s)
    }

    /// Opens a session with statically-valid inputs and an infallible
    /// meter; panics where [`try_with_baseline_window`](Self::try_with_baseline_window)
    /// would return an error. Kept for the plain-simulation path where a
    /// measurement failure is a programming error, not an operational one.
    pub fn with_baseline_window(meter: M, window: Seconds) -> Self {
        Self::try_with_baseline_window(meter, window)
            .unwrap_or_else(|e| panic!("baseline capture failed: {e}"))
    }

    /// Opens a session *without* capturing a baseline. The session must be
    /// [`try_reseed`](Self::try_reseed)ed (successfully) before measuring —
    /// until then every measurement fails with
    /// [`MeasureError::BaselineNotCaptured`].
    ///
    /// This is the constructor the sweep engine uses for worker-local
    /// rigs: workers reseed before every configuration anyway, and a
    /// fault-injecting meter could fail the eager capture that
    /// [`try_with_baseline_window`](Self::try_with_baseline_window)
    /// performs — a retryable event that belongs inside the per-attempt
    /// retry loop, not at worker construction.
    ///
    /// Fails with [`MeasureError::BaselineTooShort`] when `window` is shorter
    /// than one sample period, not positive, or not finite: a NaN window
    /// would panic inside the meter and an infinite one never finish.
    pub fn cold(meter: M, window: Seconds) -> Result<Self, MeasureError> {
        let period = meter.sample_period();
        if !window.is_finite() || window.value() <= 0.0 || window < period {
            return Err(MeasureError::BaselineTooShort { window, sample_period: period });
        }
        Ok(Self { meter, baseline: None, baseline_window: window })
    }

    /// The captured idle baseline, if any.
    pub fn baseline(&self) -> Option<Watts> {
        self.baseline
    }

    /// The configured baseline-capture window.
    pub fn baseline_window(&self) -> Seconds {
        self.baseline_window
    }

    fn capture_baseline(&mut self) -> Result<(), MeasureError> {
        // Invalidate first: a failed capture must not leave a stale
        // baseline silently in force.
        self.baseline = None;
        let reading = self.meter.record_idle(self.baseline_window)?.summary();
        check_plausible(&reading)?;
        let baseline =
            reading.mean_power().ok_or(MeasureError::TraceTooShort { samples: reading.len() })?;
        self.baseline = Some(baseline);
        Ok(())
    }

    /// Restarts the session from `seed`: the meter's stochastic streams are
    /// reset and the idle baseline is re-captured over the original window,
    /// so the session is bitwise-identical to one freshly opened with a
    /// meter seeded with `seed`. This is the primitive the parallel sweep
    /// engine uses to decouple a configuration's measurement noise from the
    /// worker thread it happens to land on.
    ///
    /// On failure the baseline is left *uncaptured* — a later
    /// [`try_measure`](Self::try_measure) fails with
    /// [`MeasureError::BaselineNotCaptured`] rather than silently using the
    /// previous seed's baseline.
    pub fn try_reseed(&mut self, seed: u64) -> Result<(), MeasureError> {
        self.meter.reseed(seed);
        self.capture_baseline()
    }

    /// Infallible [`try_reseed`](Self::try_reseed) for meters that cannot
    /// fail; panics on a measurement error.
    pub fn reseed(&mut self, seed: u64) {
        self.try_reseed(seed).unwrap_or_else(|e| panic!("reseed failed: {e}"));
    }

    /// Measures one application run and decomposes its energy.
    ///
    /// Fails when no baseline is captured, the meter loses the reading,
    /// dropouts leave fewer than two samples, or a sample is implausible
    /// (wrapped counter artifact).
    pub fn try_measure(&mut self, app: &dyn PowerSource) -> Result<EnergyReading, MeasureError> {
        let baseline = self.baseline.ok_or(MeasureError::BaselineNotCaptured)?;
        let reading = self.meter.record(app)?.summary();
        if reading.len() < 2 {
            return Err(MeasureError::TraceTooShort { samples: reading.len() });
        }
        check_plausible(&reading)?;
        let duration = reading.duration();
        let total = reading.energy();
        let static_energy = baseline * duration;
        let dynamic = Joules((total - static_energy).value().max(0.0));
        Ok(EnergyReading { duration, total, static_energy, dynamic })
    }

    /// Infallible [`try_measure`](Self::try_measure); panics on a
    /// measurement error. Kept for the plain-simulation path.
    pub fn measure(&mut self, app: &dyn PowerSource) -> EnergyReading {
        self.try_measure(app).unwrap_or_else(|e| panic!("measurement failed: {e}"))
    }
}

/// Rejects a reading with a non-finite or absurd sample (a wrapped-counter
/// artifact), naming the first one.
fn check_plausible(reading: &TraceSummary) -> Result<(), MeasureError> {
    match reading.first_implausible() {
        Some(s) => Err(MeasureError::ImplausibleSample { at: s.at, power: s.power }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjectingMeter, FaultPlan, GLITCH_POWER};
    use crate::source::{CompositeLoad, ConstantLoad, PiecewiseLoad};
    use crate::wattsup::MeterSpec;

    fn quiet_session(idle: f64) -> EnergySession {
        let spec = MeterSpec { noise_sd_w: 0.0, resolution_w: 0.0, ..MeterSpec::default() };
        let meter = SimulatedWattsUp::new(spec, Watts(idle), 5);
        EnergySession::with_baseline_window(meter, Seconds(10.0))
    }

    #[test]
    fn decomposition_identity() {
        let mut s = quiet_session(90.0);
        let app = ConstantLoad::new(Watts(150.0), Seconds(20.0));
        let r = s.measure(&app);
        assert!((r.total - r.static_energy - r.dynamic).abs().value() < 1e-9);
        assert!((r.dynamic.value() - 150.0 * 20.0).abs() < 1e-6, "{:?}", r);
        assert!((r.dynamic_power().value() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_matches_idle_floor_without_noise() {
        let s = quiet_session(87.5);
        assert!((s.baseline().unwrap().value() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn short_window_is_a_typed_error_not_a_panic() {
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let err = EnergySession::try_with_baseline_window(meter, Seconds(0.5)).unwrap_err();
        assert!(
            matches!(err, MeasureError::BaselineTooShort { .. }),
            "unexpected error {err:?}"
        );
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let err = EnergySession::try_with_baseline_window(meter, Seconds(0.0)).unwrap_err();
        assert!(matches!(err, MeasureError::BaselineTooShort { .. }));
    }

    #[test]
    fn non_finite_window_is_a_typed_error_not_a_hang() {
        for window in [Seconds(f64::NAN), Seconds(f64::INFINITY)] {
            let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
            let err = EnergySession::cold(meter, window).unwrap_err();
            assert!(matches!(err, MeasureError::BaselineTooShort { .. }), "{window:?}: {err:?}");
            assert!(err.to_string().contains("not a finite length"), "{err}");
            let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
            let err = EnergySession::try_with_baseline_window(meter, window).unwrap_err();
            assert!(matches!(err, MeasureError::BaselineTooShort { .. }), "{window:?}: {err:?}");
        }
    }

    #[test]
    #[should_panic(expected = "baseline capture failed")]
    fn infallible_constructor_panics_on_short_window() {
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        EnergySession::with_baseline_window(meter, Seconds(0.5));
    }

    #[test]
    fn cold_session_requires_reseed_before_measuring() {
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let mut s = EnergySession::cold(meter, Seconds(120.0)).unwrap();
        assert_eq!(s.baseline(), None);
        let app = ConstantLoad::new(Watts(150.0), Seconds(10.0));
        assert_eq!(s.try_measure(&app), Err(MeasureError::BaselineNotCaptured));
        s.try_reseed(17).unwrap();
        assert!(s.baseline().is_some());
        assert!(s.try_measure(&app).is_ok());
    }

    #[test]
    fn cold_then_reseed_equals_fresh_session() {
        let app = ConstantLoad::new(Watts(150.0), Seconds(40.0));
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 3);
        let mut cold = EnergySession::cold(meter, Seconds(120.0)).unwrap();
        cold.try_reseed(17).unwrap();
        let mut fresh = {
            let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 17);
            EnergySession::with_baseline_window(meter, Seconds(120.0))
        };
        assert_eq!(cold.baseline(), fresh.baseline());
        assert_eq!(cold.measure(&app), fresh.measure(&app));
    }

    #[test]
    fn failed_reseed_invalidates_the_baseline() {
        let inner = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let meter = FaultInjectingMeter::new(inner, FaultPlan::transient(1.0), 1);
        let mut s = EnergySession::cold(meter, Seconds(120.0)).unwrap();
        assert_eq!(s.try_reseed(5), Err(MeasureError::TransientReadFailure));
        assert_eq!(s.baseline(), None);
        let app = ConstantLoad::new(Watts(150.0), Seconds(10.0));
        assert_eq!(s.try_measure(&app), Err(MeasureError::BaselineNotCaptured));
    }

    #[test]
    fn implausible_sample_rejected() {
        let inner = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let meter = FaultInjectingMeter::new(inner, FaultPlan::none().with_glitches(1.0), 1);
        let mut s = EnergySession::cold(meter, Seconds(120.0)).unwrap();
        // The baseline capture itself sees the glitch.
        let err = s.try_reseed(2).unwrap_err();
        assert!(matches!(err, MeasureError::ImplausibleSample { .. }), "{err:?}");
    }

    #[test]
    fn glitched_readings_fail_at_the_pinned_samples() {
        // Pinned values: each glitch is reported at its sample's timestamp
        // with `GLITCH_POWER`, and the clean readings keep their bits, so a
        // change to the meter's noise or the fault stream's draws shows.
        let inner = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let meter = FaultInjectingMeter::new(inner, FaultPlan::none().with_glitches(0.5), 1);
        let mut s = EnergySession::cold(meter, Seconds(120.0)).unwrap();
        s.try_reseed(0).unwrap();
        let app = ConstantLoad::new(Watts(150.0), Seconds(30.0));
        let got: Vec<_> =
            (0..6).map(|_| s.try_measure(&app).map(|r| r.dynamic.value().to_bits())).collect();
        let glitch =
            |at| Err(MeasureError::ImplausibleSample { at: Seconds(at), power: GLITCH_POWER });
        let want = [
            Ok(4661666642186259660),
            glitch(10.0),
            glitch(11.0),
            Ok(4661670875306026600),
            Ok(4661670050672305766),
            Ok(4661668291453701326),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn dynamic_clamped_non_negative() {
        // Miscalibrated meter underreads the run: dynamic would go negative.
        let spec =
            MeterSpec { noise_sd_w: 0.0, resolution_w: 0.0, gain: 1.0, ..MeterSpec::default() };
        let meter = SimulatedWattsUp::new(spec, Watts(100.0), 5);
        let mut s = EnergySession::with_baseline_window(meter, Seconds(10.0));
        struct Nothing;
        impl PowerSource for Nothing {
            fn power_at(&self, _t: Seconds) -> Watts {
                Watts::ZERO
            }
            fn duration(&self) -> Seconds {
                Seconds(5.0)
            }
        }
        let r = s.measure(&Nothing);
        assert!(r.dynamic.value() >= 0.0);
        assert!(r.dynamic.value() < 1.0);
    }

    #[test]
    fn warmup_component_visible_in_dynamic_energy() {
        // Compute at 150 W for 10 s plus a 58 W component for the first 2 s —
        // the paper's Fig. 6 mechanism.
        let mut s = quiet_session(90.0);
        let compute = ConstantLoad::new(Watts(150.0), Seconds(10.0));
        let warm = PiecewiseLoad::from_segments(vec![(Seconds(2.0), Watts(58.0))]);
        let app = CompositeLoad::new(compute, warm);
        let r = s.measure(&app);
        let expected = 150.0 * 10.0 + 58.0 * 2.0;
        assert!((r.dynamic.value() - expected).abs() < 60.0, "{:?}", r);
    }

    #[test]
    fn reseeded_session_equals_fresh_session() {
        let app = ConstantLoad::new(Watts(150.0), Seconds(40.0));
        let mut used = {
            let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 3);
            EnergySession::with_baseline_window(meter, Seconds(120.0))
        };
        used.measure(&app); // advance the noise stream
        used.reseed(17);
        let mut fresh = {
            let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 17);
            EnergySession::with_baseline_window(meter, Seconds(120.0))
        };
        assert_eq!(used.baseline(), fresh.baseline());
        assert_eq!(used.measure(&app), fresh.measure(&app));
    }

    #[test]
    fn noisy_session_close_to_truth() {
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 11);
        let mut s = EnergySession::with_baseline_window(meter, Seconds(300.0));
        let app = ConstantLoad::new(Watts(150.0), Seconds(100.0));
        let r = s.measure(&app);
        assert!((r.dynamic.value() - 15000.0).abs() / 15000.0 < 0.02, "{:?}", r);
    }
}
