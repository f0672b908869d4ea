//! Deterministic, seed-driven fault injection for the measurement path.
//!
//! Real energy meters fail in a handful of characteristic ways — whole
//! readings lost to serial hiccups, individual samples dropped, wrapped or
//! stale hardware counters leaking through as absurd readings, and idle
//! baselines drifting between capture and run. [`FaultInjectingMeter`]
//! wraps any [`Meter`] and reproduces all four on demand, from a fault
//! stream that is a pure function of the reseed seed — so a sweep under a
//! given `(sweep_seed, fault plan)` sees the *same* faults at any thread
//! count, and the robustness machinery (typed errors, retry/backoff,
//! failure reporting) is testable bit-for-bit without hardware.

use crate::error::MeasureError;
use crate::meter::Meter;
use crate::source::PowerSource;
use crate::splitmix;
use crate::trace::PowerTrace;
use enprop_units::{Seconds, Watts};

/// The bogus reading a "wrapped counter" glitch injects: far above any
/// plausible node draw, so sessions reject it as
/// [`MeasureError::ImplausibleSample`].
pub const GLITCH_POWER: Watts = Watts(1.0e9);

/// Rates and magnitudes of the injected faults. All rates are
/// probabilities in `[0, 1]`; [`FaultPlan::none`] disables everything (and
/// leaves the wrapped meter's readings bitwise-untouched).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a whole `record`/`record_idle` call fails with
    /// [`MeasureError::TransientReadFailure`].
    pub transient_failure_rate: f64,
    /// Per-sample probability that a reading is silently dropped from the
    /// trace (wall-socket meters miss samples under serial load).
    pub dropout_rate: f64,
    /// Probability that one sample of a recording is replaced by
    /// [`GLITCH_POWER`] — the signature of a wrapped/stale counter.
    pub glitch_rate: f64,
    /// Half-width of the per-seed baseline drift: every reseed draws a
    /// fixed offset uniformly from `[-drift, +drift]` watts and adds it to
    /// idle captures only, biasing the baseline the way a warming room
    /// biases a real one.
    pub baseline_drift_w: f64,
}

impl FaultPlan {
    /// No faults at all. The wrapper then forwards the inner meter's
    /// traces unchanged (the fault stream is still advanced, but never
    /// touches a reading), so results are bitwise-identical to running
    /// without the wrapper.
    pub fn none() -> Self {
        Self {
            transient_failure_rate: 0.0,
            dropout_rate: 0.0,
            glitch_rate: 0.0,
            baseline_drift_w: 0.0,
        }
    }

    /// Only transient whole-reading failures, at `rate`.
    pub fn transient(rate: f64) -> Self {
        Self { transient_failure_rate: rate, ..Self::none() }
    }

    /// Sets the per-sample dropout rate.
    pub fn with_dropouts(mut self, rate: f64) -> Self {
        self.dropout_rate = rate;
        self
    }

    /// Sets the counter-wrap glitch rate.
    pub fn with_glitches(mut self, rate: f64) -> Self {
        self.glitch_rate = rate;
        self
    }

    /// Sets the baseline-drift half-width in watts.
    pub fn with_baseline_drift(mut self, drift_w: f64) -> Self {
        self.baseline_drift_w = drift_w;
        self
    }

    fn validate(&self) {
        for (name, r) in [
            ("transient_failure_rate", self.transient_failure_rate),
            ("dropout_rate", self.dropout_rate),
            ("glitch_rate", self.glitch_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} must be in [0, 1], got {r}");
        }
        assert!(self.baseline_drift_w >= 0.0, "drift half-width must be non-negative");
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A [`Meter`] wrapper that injects the faults of a [`FaultPlan`].
///
/// The fault stream is SplitMix64 over a tag-separated copy of the reseed
/// seed, so it is (a) deterministic per `(seed, call sequence)` and (b)
/// independent of the inner meter's noise stream — a zero-rate plan
/// therefore reproduces the unwrapped meter's readings bitwise.
#[derive(Debug)]
pub struct FaultInjectingMeter<M: Meter = crate::wattsup::SimulatedWattsUp> {
    inner: M,
    plan: FaultPlan,
    fault_state: u64,
    /// Baseline drift drawn at the last reseed.
    drift: Watts,
}

/// Domain-separation tag xor'ed into the seed so the fault stream never
/// aliases the inner meter's noise stream.
const FAULT_STREAM_TAG: u64 = 0xFA17_57A6_0DD5_EEDF;

impl<M: Meter> FaultInjectingMeter<M> {
    /// Wraps `inner`, injecting per `plan`, with the fault stream seeded by
    /// `seed` (the same value reseeds both streams thereafter).
    pub fn new(inner: M, plan: FaultPlan, seed: u64) -> Self {
        plan.validate();
        let mut m = Self { inner, plan, fault_state: 0, drift: Watts::ZERO };
        m.seed_fault_stream(seed);
        m
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped meter.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The baseline drift currently in force (drawn at the last reseed).
    pub fn current_drift(&self) -> Watts {
        self.drift
    }

    fn seed_fault_stream(&mut self, seed: u64) {
        self.fault_state = seed ^ FAULT_STREAM_TAG;
        self.drift = if self.plan.baseline_drift_w > 0.0 {
            Watts((self.next_unit() * 2.0 - 1.0) * self.plan.baseline_drift_w)
        } else {
            Watts::ZERO
        };
    }

    /// SplitMix64 uniform draw in `[0, 1)` from the fault stream.
    fn next_unit(&mut self) -> f64 {
        splitmix::next_unit(&mut self.fault_state)
    }

    /// Applies transient failure / glitch / dropout to one recording.
    /// The draw order (transient, glitch gate, glitch index, per-sample
    /// dropouts) is part of the determinism contract: a given seed always
    /// consumes the stream identically for a given inner trace.
    fn corrupt(
        &mut self,
        trace: PowerTrace,
        idle_drift: Option<Watts>,
    ) -> Result<PowerTrace, MeasureError> {
        if self.plan.transient_failure_rate > 0.0
            && self.next_unit() < self.plan.transient_failure_rate
        {
            return Err(MeasureError::TransientReadFailure);
        }
        let glitch_at = if self.plan.glitch_rate > 0.0
            && self.next_unit() < self.plan.glitch_rate
        {
            Some((self.next_unit() * trace.len() as f64) as usize)
        } else {
            None
        };
        let needs_rebuild =
            glitch_at.is_some() || self.plan.dropout_rate > 0.0 || idle_drift.is_some();
        if !needs_rebuild {
            return Ok(trace);
        }
        let mut out = PowerTrace::new();
        for (i, s) in trace.samples().iter().enumerate() {
            if self.plan.dropout_rate > 0.0 && self.next_unit() < self.plan.dropout_rate {
                continue;
            }
            let mut p = s.power;
            if let Some(d) = idle_drift {
                p = Watts((p + d).value().max(0.0));
            }
            if glitch_at == Some(i) {
                p = GLITCH_POWER;
            }
            out.push(s.at, p);
        }
        Ok(out)
    }
}

impl<M: Meter> Meter for FaultInjectingMeter<M> {
    fn record(&mut self, app: &dyn PowerSource) -> Result<PowerTrace, MeasureError> {
        let trace = self.inner.record(app)?;
        self.corrupt(trace, None)
    }

    fn record_idle(&mut self, window: Seconds) -> Result<PowerTrace, MeasureError> {
        let trace = self.inner.record_idle(window)?;
        let drift = (self.drift != Watts::ZERO).then_some(self.drift);
        self.corrupt(trace, drift)
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
        self.seed_fault_stream(seed);
    }

    fn sample_period(&self) -> Seconds {
        self.inner.sample_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ConstantLoad;
    use crate::wattsup::{MeterSpec, SimulatedWattsUp};

    fn base_meter(seed: u64) -> SimulatedWattsUp {
        SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), seed)
    }

    #[test]
    fn zero_rate_plan_is_bitwise_transparent() {
        let app = ConstantLoad::new(Watts(120.0), Seconds(30.0));
        let mut plain = base_meter(7);
        let mut wrapped = FaultInjectingMeter::new(base_meter(7), FaultPlan::none(), 7);
        assert_eq!(wrapped.record(&app).unwrap(), Meter::record(&mut plain, &app).unwrap());
        assert_eq!(
            wrapped.record_idle(Seconds(20.0)).unwrap(),
            Meter::record_idle(&mut plain, Seconds(20.0)).unwrap()
        );
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let app = ConstantLoad::new(Watts(120.0), Seconds(60.0));
        let plan = FaultPlan::transient(0.3).with_dropouts(0.2).with_glitches(0.2);
        let run = || {
            let mut m = FaultInjectingMeter::new(base_meter(3), plan, 3);
            (0..8).map(|_| m.record(&app)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reseed_resets_the_fault_stream() {
        let app = ConstantLoad::new(Watts(120.0), Seconds(60.0));
        let plan = FaultPlan::transient(0.4).with_dropouts(0.1);
        let mut used = FaultInjectingMeter::new(base_meter(0), plan, 0);
        for _ in 0..5 {
            let _ = used.record(&app);
        }
        used.reseed(11);
        let mut fresh = FaultInjectingMeter::new(base_meter(11), plan, 11);
        for _ in 0..5 {
            assert_eq!(used.record(&app), fresh.record(&app));
        }
    }

    #[test]
    fn transient_rate_one_always_fails() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(5.0));
        let mut m = FaultInjectingMeter::new(base_meter(1), FaultPlan::transient(1.0), 1);
        assert_eq!(m.record(&app), Err(MeasureError::TransientReadFailure));
        assert_eq!(m.record_idle(Seconds(5.0)), Err(MeasureError::TransientReadFailure));
    }

    #[test]
    fn dropouts_shrink_the_trace() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(200.0));
        let plan = FaultPlan::none().with_dropouts(0.5);
        let mut m = FaultInjectingMeter::new(base_meter(5), plan, 5);
        let full = Meter::record(&mut base_meter(5), &app).unwrap();
        let faulty = m.record(&app).unwrap();
        assert!(faulty.len() < full.len(), "{} !< {}", faulty.len(), full.len());
        assert!(faulty.len() > full.len() / 4, "dropout rate wildly off");
    }

    #[test]
    fn glitch_injects_an_implausible_sample() {
        let app = ConstantLoad::new(Watts(100.0), Seconds(50.0));
        let plan = FaultPlan::none().with_glitches(1.0);
        let mut m = FaultInjectingMeter::new(base_meter(2), plan, 2);
        let t = m.record(&app).unwrap();
        let peak = t.peak_power().unwrap();
        assert_eq!(peak, GLITCH_POWER);
    }

    #[test]
    fn drift_biases_idle_captures_only() {
        let plan = FaultPlan::none().with_baseline_drift(10.0);
        let mut m = FaultInjectingMeter::new(
            SimulatedWattsUp::new(
                MeterSpec { noise_sd_w: 0.0, resolution_w: 0.0, ..MeterSpec::default() },
                Watts(90.0),
                4,
            ),
            plan,
            4,
        );
        let drift = m.current_drift();
        assert!(drift.value().abs() <= 10.0);
        assert_ne!(drift, Watts::ZERO);
        let idle = m.record_idle(Seconds(20.0)).unwrap();
        let mean = idle.mean_power().unwrap().value();
        assert!((mean - (90.0 + drift.value())).abs() < 1e-9, "mean {mean}, drift {drift}");
        // App recordings are not drifted.
        let app = ConstantLoad::new(Watts(60.0), Seconds(20.0));
        let run = m.record(&app).unwrap();
        assert!((run.mean_power().unwrap().value() - 150.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_rate_rejected() {
        FaultInjectingMeter::new(base_meter(0), FaultPlan::transient(1.5), 0);
    }
}
