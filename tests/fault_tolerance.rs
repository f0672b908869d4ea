//! Acceptance test for the fault-tolerant measurement pipeline: a
//! 100+-configuration sweep through a meter with a 5% transient-failure
//! rate completes without panicking, reports the exact set of
//! configurations that exhausted their retries, and stays
//! bitwise-identical at 1, 2, and 8 worker threads.

use enprop::apps::{GpuMatMulApp, MeasurementRunner, RetryPolicy, SweepExecutor};
use enprop::gpusim::GpuArch;
use enprop::power::{
    EnergySession, FaultInjectingMeter, FaultPlan, MeasureError, MeterSpec, SimulatedWattsUp,
};
use enprop::units::{Seconds, Watts};

/// The Fig. 7 K40c workload at N = 8704: 102 configurations.
fn workload() -> (GpuMatMulApp, usize) {
    (GpuMatMulApp::new(GpuArch::k40c(), 8), 8704)
}

#[test]
fn hundred_config_sweep_survives_five_percent_faults() {
    let (app, n) = workload();
    assert!(app.configs(n).len() >= 100, "workload too small for the acceptance bar");

    let policy = RetryPolicy::default(); // 3 attempts, no sleep
    let plan = FaultPlan::transient(0.05);
    let sweep = app.sweep_measured_robust(n, &SweepExecutor::serial(42), policy, plan);

    // No configuration vanishes: every one is a point or a failure record.
    assert_eq!(sweep.points.len() + sweep.failures.len(), sweep.total);
    assert_eq!(sweep.total, app.configs(n).len());
    // At 5% per-measurement failure and 3 attempts, most configs survive.
    assert!(
        sweep.points.len() > sweep.total * 8 / 10,
        "only {} of {} configs survived",
        sweep.points.len(),
        sweep.total
    );
    // The injected faults actually fired.
    assert!(sweep.retried > 0, "5% fault rate never triggered a retry");
    // Every failure carries its configuration, index, attempt count, and a
    // transient error — enough to rerun it by hand.
    let all = app.configs(n);
    for f in &sweep.failures {
        assert_eq!(all[f.index], f.config);
        assert_eq!(f.attempts, policy.max_attempts);
        assert_eq!(f.error, MeasureError::TransientReadFailure);
    }
}

#[test]
fn failed_config_set_is_identical_across_thread_counts() {
    let (app, n) = workload();
    let policy = RetryPolicy::default();
    let plan = FaultPlan::transient(0.05);

    let serial = app.sweep_measured_robust(n, &SweepExecutor::serial(42), policy, plan);
    for threads in [2usize, 8] {
        let exec = SweepExecutor::new(42).with_threads(threads);
        let sweep = app.sweep_measured_robust(n, &exec, policy, plan);
        // Full bitwise equality: surviving points, the exhausted-retry
        // set (configs, indices, attempt counts, errors), and counters.
        assert_eq!(serial, sweep, "{threads}-thread sweep diverged from serial");
    }
}

#[test]
fn zero_fault_rate_is_transparent() {
    let (app, n) = workload();
    let exec = SweepExecutor::serial(42);
    let plain = app.sweep_measured(n, &exec);
    let robust =
        app.sweep_measured_robust(n, &exec, RetryPolicy::default(), FaultPlan::none());
    assert!(robust.is_complete());
    assert_eq!(robust.retried, 0);
    assert_eq!(robust.points, plain);
}

/// A rig can only be built around a session that can capture a baseline: a
/// NaN or infinite window is refused with a typed error before any
/// reseed could panic inside the meter (NaN) or record forever (∞).
#[test]
fn non_finite_baseline_windows_never_reach_a_runner() {
    for window in [Seconds(f64::NAN), Seconds(f64::INFINITY)] {
        let meter = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let runner =
            EnergySession::cold(meter, window).map(|s| MeasurementRunner::from_session(s, 7));
        assert!(
            matches!(runner, Err(MeasureError::BaselineTooShort { .. })),
            "{window:?}: {:?}",
            runner.map(|_| ())
        );
        let inner = SimulatedWattsUp::new(MeterSpec::default(), Watts(90.0), 1);
        let meter = FaultInjectingMeter::new(inner, FaultPlan::transient(0.05), 1);
        let runner =
            EnergySession::cold(meter, window).map(|s| MeasurementRunner::from_session(s, 7));
        assert!(
            matches!(runner, Err(MeasureError::BaselineTooShort { .. })),
            "{window:?}: {:?}",
            runner.map(|_| ())
        );
    }
}
