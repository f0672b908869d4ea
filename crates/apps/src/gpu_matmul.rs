//! The GPU matrix-multiplication application of §IV, as a sweep driver.

use crate::checkpoint::{CheckpointError, SweepCheckpoint, SweepManifest};
use crate::parallel::{ResumableSweep, RetryPolicy, RobustSweep, SweepExecutor, SweepFailure};
use crate::point::DataPoint;
use crate::runner::MeasurementRunner;
use enprop_gpusim::{GpuArch, KernelEstimate, ProductProfile, TiledDgemm, TiledDgemmConfig};
use enprop_power::{FaultInjectingMeter, FaultPlan, SimulatedWattsUp};
use enprop_units::Watts;

/// The application bound to one GPU and one workload definition.
#[derive(Debug, Clone)]
pub struct GpuMatMulApp {
    model: TiledDgemm,
    /// Total matrix products `G × R` every configuration must compute.
    pub total_products: usize,
}

impl GpuMatMulApp {
    /// Binds the application to an architecture. Every configuration of a
    /// sweep computes `total_products` products, so all solve the same
    /// workload (the weak-EP precondition).
    pub fn new(arch: GpuArch, total_products: usize) -> Self {
        assert!(total_products >= 1, "need at least one product");
        Self { model: TiledDgemm::new(arch), total_products }
    }

    /// The underlying analytic model.
    pub fn model(&self) -> &TiledDgemm {
        &self.model
    }

    /// All valid configurations for matrix size `n`.
    pub fn configs(&self, n: usize) -> Vec<TiledDgemmConfig> {
        TiledDgemmConfig::enumerate(self.model.arch(), n, self.total_products)
    }

    /// The analytic estimate of every configuration at size `n`, in
    /// [`configs`](Self::configs) order, with the per-`(N, BS)` model
    /// sub-result computed once per distinct `BS` rather than once per
    /// `(BS, G, R)` variant. The enumeration is `BS`-major, so a one-deep
    /// profile cache suffices.
    pub fn estimates(&self, n: usize) -> Vec<(TiledDgemmConfig, KernelEstimate)> {
        let mut profile: Option<ProductProfile> = None;
        self.configs(n)
            .into_iter()
            .map(|cfg| {
                let p = match profile {
                    Some(p) if p.bs == cfg.bs => p,
                    _ => {
                        let p = self.model.product_profile(n, cfg.bs);
                        profile = Some(p);
                        p
                    }
                };
                (cfg, self.model.estimate_from_profile(&p, cfg.g, cfg.r))
            })
            .collect()
    }

    /// Noise-free sweep straight from the analytic model (fast; used by
    /// benches and shape tests).
    pub fn sweep_exact(&self, n: usize) -> Vec<DataPoint<TiledDgemmConfig>> {
        self.estimates(n)
            .into_iter()
            .map(|(cfg, e)| DataPoint {
                config: cfg,
                time: e.time,
                dynamic_energy: e.dynamic_energy(),
                reps: 1,
                converged: true,
            })
            .collect()
    }

    /// Full-methodology sweep: every configuration is metered through the
    /// simulated WattsUp with the repeat-until-confidence protocol, fanned
    /// out over `exec`'s workers. Output is bitwise-identical at any
    /// thread count: configuration `i` is always measured under
    /// [`SweepExecutor::config_seed`]`(i)` on a worker-local rig.
    pub fn sweep_measured(
        &self,
        n: usize,
        exec: &SweepExecutor,
    ) -> Vec<DataPoint<TiledDgemmConfig>> {
        let estimates = self.estimates(n);
        exec.run_measured(
            &estimates,
            || Self::default_runner(0),
            |runner, (cfg, e)| {
                let m = runner.measure(e.time, e.steady_power, e.warmup_power, e.warmup_time);
                DataPoint {
                    config: *cfg,
                    time: m.time,
                    dynamic_energy: m.dynamic_energy,
                    reps: m.reps,
                    converged: m.converged,
                }
            },
        )
    }

    /// Fault-tolerant [`sweep_measured`](Self::sweep_measured): the meter
    /// misbehaves per `plan`, failed measurements are retried per
    /// `policy`, and configurations that exhaust their retries come back
    /// in [`RobustSweep::failures`] instead of panicking the sweep.
    /// Bitwise-identical at any thread count (see
    /// [`SweepExecutor::run_measured_with_retry`]).
    pub fn sweep_measured_robust(
        &self,
        n: usize,
        exec: &SweepExecutor,
        policy: RetryPolicy,
        plan: FaultPlan,
    ) -> RobustSweep<TiledDgemmConfig, DataPoint<TiledDgemmConfig>> {
        let estimates = self.estimates(n);
        let sweep = exec.run_measured_with_retry(
            &estimates,
            policy,
            || Self::faulty_runner(plan, 0),
            |runner, (cfg, e)| {
                let m =
                    runner.try_measure(e.time, e.steady_power, e.warmup_power, e.warmup_time)?;
                Ok(DataPoint {
                    config: *cfg,
                    time: m.time,
                    dynamic_energy: m.dynamic_energy,
                    reps: m.reps,
                    converged: m.converged,
                })
            },
        );
        // Strip the estimates out of the failure records: the configuration
        // is what reports and reruns need.
        RobustSweep {
            points: sweep.points,
            failures: sweep
                .failures
                .into_iter()
                .map(|f| SweepFailure {
                    config: f.config.0,
                    index: f.index,
                    attempts: f.attempts,
                    error: f.error,
                })
                .collect(),
            retried: sweep.retried,
            total: sweep.total,
        }
    }

    /// The manifest a checkpoint journal for this sweep must carry. The
    /// workload string folds in everything that changes outcomes beyond
    /// the seed — architecture, size, product count, and the fault plan —
    /// so resuming under a different environment is refused instead of
    /// silently diverging.
    pub fn checkpoint_manifest(
        &self,
        n: usize,
        exec: &SweepExecutor,
        policy: &RetryPolicy,
        plan: &FaultPlan,
    ) -> SweepManifest {
        SweepManifest::new(
            exec.seed(),
            self.configs(n).len(),
            policy.max_attempts,
            format!(
                "gpu-matmul/{}/N={n}/P={}/faults={plan:?}",
                self.model.arch().name,
                self.total_products
            ),
        )
    }

    /// Crash-safe [`sweep_measured_robust`](Self::sweep_measured_robust):
    /// finished configurations are journaled through `checkpoint`, and
    /// configurations the journal already holds are replayed instead of
    /// re-measured. Open the checkpoint with
    /// [`checkpoint_manifest`](Self::checkpoint_manifest); resumed output
    /// is bitwise-identical to an uninterrupted run at any thread count.
    pub fn sweep_measured_robust_resumable(
        &self,
        n: usize,
        exec: &SweepExecutor,
        policy: RetryPolicy,
        plan: FaultPlan,
        checkpoint: SweepCheckpoint<DataPoint<TiledDgemmConfig>>,
    ) -> Result<ResumableSweep<TiledDgemmConfig, DataPoint<TiledDgemmConfig>>, CheckpointError>
    {
        let estimates = self.estimates(n);
        let resumed = exec.run_measured_with_retry_resumable(
            &estimates,
            policy,
            checkpoint,
            || Self::faulty_runner(plan, 0),
            |runner, (cfg, e)| {
                let m =
                    runner.try_measure(e.time, e.steady_power, e.warmup_power, e.warmup_time)?;
                Ok(DataPoint {
                    config: *cfg,
                    time: m.time,
                    dynamic_energy: m.dynamic_energy,
                    reps: m.reps,
                    converged: m.converged,
                })
            },
        )?;
        // Strip the estimates out of the failure records, exactly as the
        // non-resumable path does.
        let sweep = resumed.sweep;
        Ok(ResumableSweep {
            sweep: RobustSweep {
                points: sweep.points,
                failures: sweep
                    .failures
                    .into_iter()
                    .map(|f| SweepFailure {
                        config: f.config.0,
                        index: f.index,
                        attempts: f.attempts,
                        error: f.error,
                    })
                    .collect(),
                retried: sweep.retried,
                total: sweep.total,
            },
            replayed: resumed.replayed,
            executed: resumed.executed,
            torn_tail_bytes: resumed.torn_tail_bytes,
            crashed: resumed.crashed,
        })
    }

    /// The analytic profile of one configuration (for Fig. 6-style
    /// compound/base comparisons).
    pub fn estimate(&self, cfg: &TiledDgemmConfig) -> KernelEstimate {
        self.model.estimate(cfg)
    }

    /// A measurement rig matching the paper's GPU nodes (idle draw of a
    /// GPU server node).
    pub fn default_runner(seed: u64) -> MeasurementRunner {
        MeasurementRunner::new(Watts(110.0), seed)
    }

    /// A [`default_runner`](Self::default_runner)-shaped rig whose meter
    /// misbehaves per `plan`.
    pub fn faulty_runner(
        plan: FaultPlan,
        seed: u64,
    ) -> MeasurementRunner<FaultInjectingMeter<SimulatedWattsUp>> {
        MeasurementRunner::faulty(Watts(110.0), plan, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_solves_same_workload() {
        let app = GpuMatMulApp::new(GpuArch::p100_pcie(), 8);
        let pts = app.sweep_exact(2048);
        assert!(pts.len() > 32, "expected a rich sweep, got {}", pts.len());
        assert!(pts.iter().all(|p| p.config.products() == 8));
    }

    #[test]
    fn measured_sweep_tracks_exact_sweep() {
        let app = GpuMatMulApp::new(GpuArch::k40c(), 4);
        // Small BS subset via small n to keep the test fast.
        let exact = app.sweep_exact(512);
        let measured = app.sweep_measured(512, &SweepExecutor::serial(5));
        assert_eq!(exact.len(), measured.len());
        for (e, m) in exact.iter().zip(&measured) {
            assert_eq!(e.config, m.config);
            let rel = (e.dynamic_energy.value() - m.dynamic_energy.value()).abs()
                / e.dynamic_energy.value();
            assert!(rel < 0.30, "config {:?}: rel err {rel}", e.config);
        }
    }

    #[test]
    fn measured_sweep_is_thread_count_invariant() {
        let app = GpuMatMulApp::new(GpuArch::k40c(), 2);
        let serial = app.sweep_measured(256, &SweepExecutor::serial(9));
        let threaded = app.sweep_measured(256, &SweepExecutor::new(9).with_threads(4));
        assert_eq!(serial, threaded);
    }

    #[test]
    fn faultless_robust_sweep_matches_plain_sweep() {
        let app = GpuMatMulApp::new(GpuArch::k40c(), 2);
        let plain = app.sweep_measured(256, &SweepExecutor::serial(9));
        let robust = app.sweep_measured_robust(
            256,
            &SweepExecutor::serial(9),
            RetryPolicy::default(),
            FaultPlan::none(),
        );
        assert!(robust.is_complete());
        assert_eq!(robust.points, plain);
    }

    #[test]
    fn robust_sweep_reports_failures_with_configs() {
        let app = GpuMatMulApp::new(GpuArch::k40c(), 2);
        let robust = app.sweep_measured_robust(
            256,
            &SweepExecutor::serial(9),
            RetryPolicy::attempts(2),
            FaultPlan::transient(0.5),
        );
        assert_eq!(robust.points.len() + robust.failures.len(), robust.total);
        assert!(robust.failed_configs() > 0, "50% fault rate never exhausted retries");
        let all = app.configs(256);
        for f in &robust.failures {
            assert_eq!(all[f.index], f.config);
        }
    }

    #[test]
    fn resumable_sweep_matches_robust_sweep_bitwise() {
        let app = GpuMatMulApp::new(GpuArch::k40c(), 2);
        let exec = SweepExecutor::serial(9);
        let policy = RetryPolicy::attempts(2);
        let plan = FaultPlan::transient(0.3);
        let clean = app.sweep_measured_robust(256, &exec, policy, plan);
        let dir = std::env::temp_dir().join(format!("enprop-gpumm-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = app.checkpoint_manifest(256, &exec, &policy, &plan);
        let ckpt = SweepCheckpoint::fresh(&dir, manifest.clone()).unwrap();
        let first = app.sweep_measured_robust_resumable(256, &exec, policy, plan, ckpt).unwrap();
        assert_eq!(first.sweep, clean);
        assert_eq!(first.executed, clean.total);
        assert_eq!(first.replayed, 0);
        // A second open replays everything and executes nothing.
        let again = SweepCheckpoint::resume(&dir, &manifest).unwrap();
        let second = app.sweep_measured_robust_resumable(256, &exec, policy, plan, again).unwrap();
        assert_eq!(second.sweep, clean);
        assert_eq!(second.executed, 0);
        assert_eq!(second.replayed, clean.total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fastest_configuration_uses_bs32() {
        let app = GpuMatMulApp::new(GpuArch::p100_pcie(), 8);
        let pts = app.sweep_exact(4096);
        let fastest = pts.iter().min_by(|a, b| a.time.value().total_cmp(&b.time.value())).unwrap();
        assert_eq!(fastest.config.bs, 32);
    }
}
