//! The parallel sweep engine.
//!
//! Every figure in the paper is produced by sweeping a configuration space
//! (all `(BS, G, R)` kernels, all DGEMM thread groups, all FFT sizes) and
//! measuring each configuration through the simulated meter. The sweeps are
//! embarrassingly parallel — *except* that the measurement pipeline is
//! stochastic, and a naive fan-out would make the noise a configuration
//! sees depend on which worker measured it and what that worker measured
//! before. Results would then change with thread count, which is poison for
//! a reproduction harness.
//!
//! [`SweepExecutor`] solves this with **deterministic seed-splitting**: a
//! sweep owns one `sweep_seed`, and configuration `i` is always measured
//! under [`split_seed`]`(sweep_seed, i)` — a SplitMix64-style finalizer over
//! the pair — regardless of the worker that picks it up. Worker-local
//! [`MeasurementRunner`]s are reseeded with that per-configuration seed
//! before each measurement, so the noise stream a configuration sees is a
//! pure function of `(sweep_seed, index)`. Results come back in enumeration
//! order. The upshot, verified by the determinism suite: a sweep run with
//! 1, 2, or 8 threads produces bitwise-identical output.
//!
//! The executor is generic over worker state, so model-only sweeps (no
//! measurement pipeline) reuse the same fan-out via [`SweepExecutor::map`].

use crate::checkpoint::{CheckpointError, JournalRecord, SweepCheckpoint};
use crate::runner::MeasurementRunner;
use enprop_par::panic_message;
use enprop_power::{MeasureError, Meter};
use enprop_units::Seconds;
use serde::{Deserialize, DeserializeOwned, Serialize};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Sweep workers share two kinds of mutexes (the journal writer and the
/// first-error slot), and a worker that panics mid-critical-section poisons
/// them. The data they guard stays coherent — a half-appended journal
/// record is exactly what the CRC-framed journal is built to tolerate, and
/// the error slot is a monotonic `Option` — so propagating the poison would
/// only replace the *real* failure with a misleading
/// `"journal lock poisoned"` panic in every other worker. Recover the guard
/// and let the original error surface instead.
fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Derives the seed for configuration `index` of a sweep seeded with
/// `sweep_seed`.
///
/// This is the SplitMix64 output function applied to
/// `sweep_seed + (index + 1) · φ64` (the golden-gamma increment). It is a
/// pure function of the pair — independent of evaluation order and thread
/// placement — and injective in `index` for a fixed seed, so distinct
/// configurations never share a noise stream. `index + 1` keeps
/// configuration 0 from degenerating to the raw sweep seed.
pub fn split_seed(sweep_seed: u64, index: usize) -> u64 {
    let gamma = 0x9E37_79B9_7F4A_7C15u64;
    let mut z = sweep_seed.wrapping_add(gamma.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic parallel sweep executor.
///
/// Holds the sweep seed and the worker count; fans work items out to
/// scoped worker threads, hands each item its [`split_seed`], and returns
/// results in enumeration order.
///
/// # Example
/// ```
/// use enprop_apps::parallel::SweepExecutor;
///
/// let exec = SweepExecutor::new(42).with_threads(4);
/// let squares = exec.map(&[1usize, 2, 3, 4], |x, _seed| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    seed: u64,
    threads: usize,
}

impl SweepExecutor {
    /// An executor over all available cores, measuring under `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, threads: enprop_par::host_parallelism() }
    }

    /// A single-threaded executor — the reference ordering every parallel
    /// run must reproduce bitwise.
    pub fn serial(seed: u64) -> Self {
        Self { seed, threads: 1 }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The sweep seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The seed configuration `index` is measured under.
    pub fn config_seed(&self, index: usize) -> u64 {
        split_seed(self.seed, index)
    }

    /// Fans `items` out to workers that each own a state built by
    /// `make_state`, calling `f(state, item, config_seed)` per item.
    /// Results are returned in the order of `items`.
    ///
    /// Work distribution is [`enprop_par::map_with`]: each worker claims
    /// one index per `fetch_add`, so a worker is never idle while an
    /// unclaimed item remains. A claim costs nanoseconds against a
    /// measurement's milliseconds, so claiming in chunks would save nothing
    /// and would let one worker hold several costly items while another
    /// idles. Each worker constructs its state once, before entering the
    /// claim loop; a single worker runs on the calling thread. Because
    /// `f`'s output depends only on `(item, config_seed)`, the schedule
    /// cannot leak into the results.
    ///
    /// A panicking closure aborts the sweep, but with a *diagnostic*: the
    /// unwind is caught and re-raised as `sweep worker panicked on config
    /// #i of n: <payload>`, the other workers stop claiming, and the
    /// caller sees that message whatever the worker count — a serving
    /// layer must know which request killed the pool.
    pub fn map_with<S, C, T>(
        &self,
        items: &[C],
        make_state: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, &C, u64) -> T + Sync,
    ) -> Vec<T>
    where
        C: Sync,
        T: Send,
    {
        let n = items.len();
        enprop_par::map_with(n, self.threads, make_state, |state, i| {
            catch_unwind(AssertUnwindSafe(|| f(state, &items[i], self.config_seed(i))))
                .unwrap_or_else(|payload| {
                    panic!(
                        "sweep worker panicked on config #{i} of {n}: {}",
                        panic_message(payload.as_ref())
                    )
                })
        })
    }

    /// Stateless variant of [`map_with`](SweepExecutor::map_with) for
    /// model-only (noise-free) sweeps.
    pub fn map<C, T>(&self, items: &[C], f: impl Fn(&C, u64) -> T + Sync) -> Vec<T>
    where
        C: Sync,
        T: Send,
    {
        self.map_with(items, || (), |_, item, seed| f(item, seed))
    }

    /// Measurement fan-out: each worker owns a [`MeasurementRunner`] built
    /// by `make_runner`, and the runner is [reseeded](MeasurementRunner::reseed)
    /// with the item's [`config_seed`](SweepExecutor::config_seed) before
    /// `f` measures it — the contract that makes sweep output a pure
    /// function of `(sweep_seed, items)`.
    ///
    /// Panics if a reseed fails (a fault-injected baseline capture); use
    /// [`run_measured_with_retry`](SweepExecutor::run_measured_with_retry)
    /// when the meter can fail.
    pub fn run_measured<M, C, T>(
        &self,
        items: &[C],
        make_runner: impl Fn() -> MeasurementRunner<M> + Sync,
        f: impl Fn(&mut MeasurementRunner<M>, &C) -> T + Sync,
    ) -> Vec<T>
    where
        M: Meter,
        C: Sync,
        T: Send,
    {
        self.map_with(items, make_runner, |runner, item, seed| {
            runner.reseed(seed);
            f(runner, item)
        })
    }

    /// Fault-tolerant measurement fan-out: like
    /// [`run_measured`](SweepExecutor::run_measured), but a failed
    /// measurement is retried per `policy` instead of panicking, and
    /// configurations that exhaust their retries are *recorded* — never
    /// silently dropped, never fatal to the sweep.
    ///
    /// ## Determinism under retry
    ///
    /// Attempt 0 of configuration `i` is measured under
    /// [`config_seed`](SweepExecutor::config_seed)`(i)` — exactly the seed
    /// the non-retrying path uses, so a sweep where no fault fires is
    /// bitwise-identical to [`run_measured`](SweepExecutor::run_measured).
    /// Attempt `k > 0` reseeds with [`split_seed`]`(config_seed(i), k)`:
    /// every attempt's noise-and-fault stream is a pure function of
    /// `(sweep_seed, index, attempt)`, so which worker retries, and how
    /// many other configurations are in flight, cannot change any outcome.
    /// The determinism suite pins this at 1/2/8 threads.
    ///
    /// Non-transient errors ([`MeasureError::is_transient`] = false) fail
    /// immediately without burning retries.
    pub fn run_measured_with_retry<M, C, T>(
        &self,
        items: &[C],
        policy: RetryPolicy,
        make_runner: impl Fn() -> MeasurementRunner<M> + Sync,
        f: impl Fn(&mut MeasurementRunner<M>, &C) -> Result<T, MeasureError> + Sync,
    ) -> RobustSweep<C, T>
    where
        M: Meter,
        C: Clone + Sync,
        T: Send,
    {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let outcomes = self.map_with(items, make_runner, |runner, item, config_seed| {
            measure_with_retry(runner, &policy, config_seed, item, &f)
        });
        RobustSweep::collect(items, outcomes)
    }

    /// Crash-safe [`run_measured_with_retry`](SweepExecutor::run_measured_with_retry):
    /// every finished configuration (measured *or* failed) is appended to
    /// `checkpoint`'s durable journal, and configurations the journal
    /// already holds are replayed instead of re-measured.
    ///
    /// ## Resume invariant
    ///
    /// Configuration `i` is always measured under
    /// [`config_seed`](SweepExecutor::config_seed)`(i)` with attempt-`k`
    /// reseeding via [`split_seed`]`(config_seed(i), k)` — by its *sweep*
    /// index, not its position among the configurations left to run. Every
    /// outcome is therefore a pure function of `(sweep_seed, index,
    /// attempt)`, so a sweep killed at any point and resumed — even across
    /// a different thread count — returns output bitwise-identical to an
    /// uninterrupted run. The crash-injection suite pins this at 1/2/8
    /// threads, including torn mid-record kills.
    ///
    /// The checkpoint is consumed: its journal is finished (tail sealed) on
    /// return, and one checkpoint can never journal two sweeps. Journal
    /// append order is worker completion order — nondeterministic — which
    /// is why replay is index-keyed and order-independent.
    ///
    /// Returns [`CheckpointError`] only for journal I/O failures; the
    /// checkpoint must have been opened for this executor's seed, `items`'
    /// length, and `policy`'s attempt budget (else
    /// [`CheckpointError::ManifestMismatch`]).
    pub fn run_measured_with_retry_resumable<M, C, T>(
        &self,
        items: &[C],
        policy: RetryPolicy,
        mut checkpoint: SweepCheckpoint<T>,
        make_runner: impl Fn() -> MeasurementRunner<M> + Sync,
        f: impl Fn(&mut MeasurementRunner<M>, &C) -> Result<T, MeasureError> + Sync,
    ) -> Result<ResumableSweep<C, T>, CheckpointError>
    where
        M: Meter,
        C: Clone + Sync,
        T: Send + Clone + Serialize + DeserializeOwned,
    {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let manifest = checkpoint.manifest();
        for (field, expected, found) in [
            ("sweep_seed", self.seed.to_string(), manifest.sweep_seed.to_string()),
            ("total_configs", items.len().to_string(), manifest.total_configs.to_string()),
            ("max_attempts", policy.max_attempts.to_string(), manifest.max_attempts.to_string()),
        ] {
            if expected != found {
                return Err(CheckpointError::ManifestMismatch { field, expected, found });
            }
        }

        let stats = checkpoint.stats();
        let replayed = std::mem::take(&mut checkpoint.replayed);
        let done: HashSet<usize> = replayed.iter().map(|(i, _)| *i).collect();
        let pending: Vec<usize> = (0..items.len()).filter(|i| !done.contains(i)).collect();

        // Workers finish in nondeterministic order, so the journal is an
        // unordered log behind one mutex; contention is negligible next to
        // a measurement. The first append error is kept and surfaced after
        // the join — the sweep itself still completes. Both locks are taken
        // through [`lock_unpoisoned`]: a worker that panics while holding
        // one must not convert every other worker's append into a
        // misleading "journal lock poisoned" panic that masks the original
        // failure.
        let writer = Mutex::new(&mut checkpoint.writer);
        let append_error: Mutex<Option<CheckpointError>> = Mutex::new(None);
        let executed: Vec<(usize, SweepOutcome<T>)> =
            self.map_with(&pending, make_runner, |runner, &index, _| {
                // The positional seed handed out by `map_with` indexes into
                // `pending`; reseed by the configuration's *sweep* index so
                // resumed and uninterrupted runs draw identical streams.
                let outcome =
                    measure_with_retry(runner, &policy, self.config_seed(index), &items[index], &f);
                let record = JournalRecord { index, outcome: outcome.clone() };
                if let Err(e) = lock_unpoisoned(&writer).append(&record) {
                    lock_unpoisoned(&append_error).get_or_insert(e);
                }
                (index, outcome)
            });
        if let Some(e) = append_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        checkpoint.writer.finish()?;

        let mut slots: Vec<Option<SweepOutcome<T>>> = (0..items.len()).map(|_| None).collect();
        for (index, outcome) in replayed {
            slots[index] = Some(outcome);
        }
        let executed_count = executed.len();
        for (index, outcome) in executed {
            slots[index] = Some(outcome);
        }
        let outcomes: Vec<SweepOutcome<T>> = slots
            .into_iter()
            .map(|s| s.expect("every index is either replayed or executed"))
            .collect();
        Ok(ResumableSweep {
            sweep: RobustSweep::collect(items, outcomes),
            replayed: stats.records,
            executed: executed_count,
            torn_tail_bytes: stats.torn_tail_bytes,
            crashed: checkpoint.writer.crashed(),
        })
    }
}

/// One configuration's bounded retry loop, shared by the plain and
/// resumable fault-tolerant sweeps.
///
/// Attempt 0 reseeds with `config_seed` itself (bitwise identity with the
/// non-retrying path); attempt `k > 0` with [`split_seed`]`(config_seed, k)`.
/// When the policy carries an [`attempt_deadline`](RetryPolicy::attempt_deadline),
/// an attempt whose wall-clock time overruns the budget is converted to
/// [`MeasureError::DeadlineExceeded`] — *even if it returned a point*: an
/// overlong measurement on real hardware is suspect (thermal throttling, a
/// wedged counter), and charging it to the retry budget is what keeps one
/// pathological configuration from stalling a campaign.
fn measure_with_retry<M, C, T>(
    runner: &mut MeasurementRunner<M>,
    policy: &RetryPolicy,
    config_seed: u64,
    item: &C,
    f: &(impl Fn(&mut MeasurementRunner<M>, &C) -> Result<T, MeasureError> + Sync),
) -> SweepOutcome<T>
where
    M: Meter,
{
    let mut attempts = 0;
    loop {
        attempts += 1;
        let attempt_seed =
            if attempts == 1 { config_seed } else { split_seed(config_seed, attempts - 1) };
        let started = policy.attempt_deadline.map(|_| Instant::now());
        let mut result = runner.try_reseed(attempt_seed).and_then(|()| f(runner, item));
        if let (Some(budget), Some(started)) = (policy.attempt_deadline, started) {
            let elapsed = started.elapsed();
            if elapsed > budget {
                result = Err(MeasureError::DeadlineExceeded {
                    budget: Seconds(budget.as_secs_f64()),
                    elapsed: Seconds(elapsed.as_secs_f64()),
                });
            }
        }
        match result {
            Ok(point) => return SweepOutcome::Ok { point, attempts },
            Err(error) => {
                if attempts >= policy.max_attempts || !error.is_transient() {
                    return SweepOutcome::Failed { attempts, error };
                }
                let delay = policy.backoff_delay(attempts);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// Bounded retry-with-exponential-backoff for failed measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per configuration, including the first (≥ 1).
    pub max_attempts: usize,
    /// Delay before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Cap on the backoff delay.
    pub max_delay: Duration,
    /// Per-attempt wall-clock watchdog: an attempt that takes longer is
    /// charged as [`MeasureError::DeadlineExceeded`] and retried (or
    /// recorded) like any other transient failure. `None` — the default —
    /// disables the watchdog; sweep output then depends only on seeds,
    /// never on host timing, which is what the bitwise thread-count
    /// invariance tests require.
    ///
    /// The watchdog is cooperative: it cannot preempt a closure that never
    /// returns. It judges an attempt once the closure has returned, so it
    /// bounds how much over-budget work is *accepted*, not how long the
    /// closure runs.
    pub attempt_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    /// Three attempts, no delay, no deadline: in the simulated rig a
    /// transient fault clears by re-drawing the stream, so sleeping buys
    /// nothing. Against real hardware, set `base_delay`/`max_delay` to
    /// ride out the condition (a wedged serial port, an EAGAIN-ing counter
    /// file) and [`attempt_deadline`](RetryPolicy::attempt_deadline) to
    /// bound how long one configuration may hold a worker.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            attempt_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// Fail on the first error — the policy that makes
    /// [`run_measured_with_retry`](SweepExecutor::run_measured_with_retry)
    /// degrade to a recorded-failure version of
    /// [`run_measured`](SweepExecutor::run_measured).
    #[must_use]
    pub fn no_retry() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// A policy with `max_attempts` attempts and no delay.
    #[must_use]
    pub fn attempts(max_attempts: usize) -> Self {
        Self { max_attempts, ..Self::default() }
    }

    /// Sets the per-attempt watchdog deadline (see
    /// [`attempt_deadline`](RetryPolicy::attempt_deadline)).
    #[must_use]
    pub fn with_attempt_deadline(mut self, deadline: Duration) -> Self {
        self.attempt_deadline = Some(deadline);
        self
    }

    /// The delay before the retry that follows failed attempt `attempt`
    /// (1-based): `base_delay × 2^(attempt−1)`, capped at `max_delay`.
    #[must_use]
    pub fn backoff_delay(&self, attempt: usize) -> Duration {
        let doublings = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        let delay = self
            .base_delay
            .checked_mul(2u32.checked_pow(doublings).unwrap_or(u32::MAX))
            .unwrap_or(Duration::MAX);
        delay.min(self.max_delay)
    }
}

/// What happened to one configuration of a fault-tolerant sweep.
///
/// Serializable so the checkpoint journal can persist finished
/// configurations — failures included: a configuration that exhausted its
/// retries is finished and must not be re-measured on resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepOutcome<T> {
    /// Measured successfully (possibly after retries).
    Ok {
        /// The measured point.
        point: T,
        /// Attempts spent, including the successful one.
        attempts: usize,
    },
    /// Every attempt failed; `error` is the *last* failure.
    Failed {
        /// Attempts spent.
        attempts: usize,
        /// The final error.
        error: MeasureError,
    },
}

/// One configuration that exhausted its retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepFailure<C> {
    /// The configuration that could not be measured.
    pub config: C,
    /// Its index in the sweep's enumeration order.
    pub index: usize,
    /// Attempts spent on it.
    pub attempts: usize,
    /// The last error observed.
    pub error: MeasureError,
}

impl<C: std::fmt::Display> std::fmt::Display for SweepFailure<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "config #{} ({}) failed after {} attempt(s): {}",
            self.index, self.config, self.attempts, self.error
        )
    }
}

/// The result of a fault-tolerant sweep: the measured points plus an exact
/// account of what could not be measured.
#[must_use = "a RobustSweep carries failure records that must be checked or reported"]
#[derive(Debug, Clone, PartialEq)]
pub struct RobustSweep<C, T> {
    /// Successfully measured points, in enumeration order.
    pub points: Vec<T>,
    /// Configurations that exhausted their retries, in enumeration order.
    pub failures: Vec<SweepFailure<C>>,
    /// Configurations that needed more than one attempt (whether they
    /// eventually succeeded or not).
    pub retried: usize,
    /// Total configurations swept (`points.len() + failures.len()`).
    pub total: usize,
}

impl<C: Clone, T> RobustSweep<C, T> {
    fn collect(items: &[C], outcomes: Vec<SweepOutcome<T>>) -> Self {
        let total = outcomes.len();
        let mut points = Vec::with_capacity(total);
        let mut failures = Vec::new();
        let mut retried = 0;
        for (index, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                SweepOutcome::Ok { point, attempts } => {
                    if attempts > 1 {
                        retried += 1;
                    }
                    points.push(point);
                }
                SweepOutcome::Failed { attempts, error } => {
                    if attempts > 1 {
                        retried += 1;
                    }
                    failures.push(SweepFailure {
                        config: items[index].clone(),
                        index,
                        attempts,
                        error,
                    });
                }
            }
        }
        Self { points, failures, retried, total }
    }
}

impl<C, T> RobustSweep<C, T> {
    /// True when every configuration was measured.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of configurations that exhausted their retries.
    #[must_use]
    pub fn failed_configs(&self) -> usize {
        self.failures.len()
    }
}

/// The result of a crash-safe sweep: the [`RobustSweep`] plus an account of
/// how much of it came from the journal versus fresh measurement.
#[must_use = "a ResumableSweep carries failure records and resume accounting that must be checked"]
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableSweep<C, T> {
    /// The sweep itself — bitwise-identical to what an uninterrupted
    /// [`run_measured_with_retry`](SweepExecutor::run_measured_with_retry)
    /// would have returned.
    pub sweep: RobustSweep<C, T>,
    /// Configurations replayed from the journal.
    pub replayed: usize,
    /// Configurations measured (and journaled) by this run.
    pub executed: usize,
    /// Bytes of a torn trailing record dropped when the journal was opened
    /// (0 unless the previous run died mid-append).
    pub torn_tail_bytes: u64,
    /// True if an injected [`CrashPlan`](crate::checkpoint::CrashPlan)
    /// fired during this run (test/bench harnesses only).
    pub crashed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use enprop_par::panic_message as panic_payload_message;
    use enprop_power::FaultPlan;
    use enprop_units::{Seconds, Watts};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn map_preserves_enumeration_order() {
        let items: Vec<usize> = (0..100).collect();
        let exec = SweepExecutor::new(1).with_threads(8);
        let out = exec.map(&items, |x, _| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_thread_local_state_counts_all_items() {
        // Worker-local counters must jointly cover every item exactly once.
        let items: Vec<usize> = (0..57).collect();
        let exec = SweepExecutor::new(9).with_threads(4);
        let out = exec.map_with(
            &items,
            || 0usize,
            |count, item, _| {
                *count += 1;
                *item
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn config_seeds_are_distinct_and_order_independent() {
        let exec = SweepExecutor::new(1234);
        let forward: Vec<u64> = (0..64).map(|i| exec.config_seed(i)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|i| exec.config_seed(i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        let mut sorted = forward.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), forward.len(), "seed collision");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = SweepExecutor::new(7).with_threads(8);
        let out: Vec<u64> = exec.map(&[] as &[u32], |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn run_measured_is_thread_count_invariant() {
        // The tentpole contract at the executor level: identical measured
        // output for 1, 2, and 8 workers.
        let items: Vec<f64> = (1..=12).map(|i| 10.0 * i as f64).collect();
        let measure = |threads: usize| {
            SweepExecutor::new(77).with_threads(threads).run_measured(
                &items,
                || MeasurementRunner::new(Watts(90.0), 0),
                |runner, &steady| {
                    runner.measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        let serial = measure(1);
        assert_eq!(serial, measure(2));
        assert_eq!(serial, measure(8));
    }

    #[test]
    fn claiming_covers_every_length() {
        // Exercise the claim loop's bounds: one worker on the calling
        // thread, odd worker counts, workers > items.
        for len in [1usize, 2, 3, 7, 16, 63, 64, 65, 129] {
            for threads in [1usize, 2, 3, 8, 200] {
                let items: Vec<usize> = (0..len).collect();
                let exec = SweepExecutor::new(5).with_threads(threads);
                let out = exec.map(&items, |x, _| x + 1);
                let expect: Vec<usize> = (1..=len).collect();
                assert_eq!(out, expect, "len {len} threads {threads}");
            }
        }
    }

    #[test]
    fn results_are_bitwise_identical_across_claiming_schedules() {
        // The determinism contract must be independent of which worker
        // claims which configuration.
        let items: Vec<f64> = (1..=40).map(|i| 5.0 * i as f64).collect();
        let measure = |threads: usize| {
            SweepExecutor::new(4242).with_threads(threads).run_measured(
                &items,
                || MeasurementRunner::new(Watts(90.0), 0),
                |runner, &steady| {
                    runner.measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        let serial = measure(1);
        for threads in [3usize, 5, 16] {
            assert_eq!(serial, measure(threads), "threads {threads}");
        }
    }

    #[test]
    fn two_workers_run_the_first_two_items_at_once() {
        // Sweeps enumerate their costliest configurations first, so those
        // must go to different workers: each of items 0 and 1 marks itself
        // started, then waits up to 10 s for the other to start.
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let items: Vec<usize> = (0..16).collect();
        let met = SweepExecutor::new(3).with_threads(2).map(&items, |&i, _| {
            if i >= 2 {
                return true;
            }
            started[i].store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !started[1 - i].load(Ordering::SeqCst) {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert!(met[0] && met[1], "items 0 and 1 ran one after the other");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(35),
            attempt_deadline: None,
        };
        assert_eq!(p.backoff_delay(1), Duration::from_millis(10));
        assert_eq!(p.backoff_delay(2), Duration::from_millis(20));
        assert_eq!(p.backoff_delay(3), Duration::from_millis(35)); // capped
        assert_eq!(p.backoff_delay(60), Duration::from_millis(35)); // no overflow
        assert_eq!(RetryPolicy::default().backoff_delay(1), Duration::ZERO);
    }

    #[test]
    fn faultless_retry_sweep_matches_plain_sweep_bitwise() {
        let items: Vec<f64> = (1..=12).map(|i| 10.0 * i as f64).collect();
        let exec = SweepExecutor::new(77).with_threads(4);
        let plain = exec.run_measured(
            &items,
            || MeasurementRunner::new(Watts(90.0), 0),
            |runner, &steady| {
                runner.measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
            },
        );
        let robust = exec.run_measured_with_retry(
            &items,
            RetryPolicy::default(),
            || MeasurementRunner::faulty(Watts(90.0), FaultPlan::none(), 0),
            |runner, &steady| {
                runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
            },
        );
        assert!(robust.is_complete());
        assert_eq!(robust.retried, 0);
        assert_eq!(robust.points, plain);
    }

    #[test]
    fn retry_sweep_is_thread_count_invariant_under_faults() {
        let items: Vec<f64> = (1..=24).map(|i| 10.0 * i as f64).collect();
        let sweep = |threads: usize| {
            SweepExecutor::new(77).with_threads(threads).run_measured_with_retry(
                &items,
                RetryPolicy::attempts(2),
                || MeasurementRunner::faulty(Watts(90.0), FaultPlan::transient(0.25), 0),
                |runner, &steady| {
                    runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        let serial = sweep(1);
        // With a 25% per-read failure rate and only 2 attempts, some
        // configurations retry and some fail — both paths must still be
        // schedule-independent.
        assert!(serial.retried > 0, "fault plan never fired");
        assert_eq!(serial, sweep(2));
        assert_eq!(serial, sweep(8));
    }

    #[test]
    fn exhausted_retries_are_recorded_not_dropped() {
        let items: Vec<f64> = (1..=8).map(|i| 10.0 * i as f64).collect();
        let exec = SweepExecutor::serial(3);
        let robust = exec.run_measured_with_retry(
            &items,
            RetryPolicy::no_retry(),
            || MeasurementRunner::faulty(Watts(90.0), FaultPlan::transient(1.0), 0),
            |runner, &steady| {
                runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
            },
        );
        assert_eq!(robust.points.len(), 0);
        assert_eq!(robust.failed_configs(), items.len());
        assert_eq!(robust.total, items.len());
        for (i, f) in robust.failures.iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.config, items[i]);
            assert_eq!(f.attempts, 1);
            assert_eq!(f.error, MeasureError::TransientReadFailure);
        }
    }

    #[test]
    fn retries_clear_transient_faults() {
        // A certain-failure plan never clears, but a moderate one must
        // clear more configurations at 4 attempts than at 1.
        let items: Vec<f64> = (1..=16).map(|i| 10.0 * i as f64).collect();
        let sweep = |attempts: usize| {
            SweepExecutor::serial(9).run_measured_with_retry(
                &items,
                RetryPolicy::attempts(attempts),
                || MeasurementRunner::faulty(Watts(90.0), FaultPlan::transient(0.4), 0),
                |runner, &steady| {
                    runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        let once = sweep(1);
        let patient = sweep(4);
        assert!(once.failed_configs() > patient.failed_configs());
        assert!(patient.retried > 0);
    }

    #[test]
    fn zero_deadline_converts_every_config_to_deadline_exceeded() {
        // A zero budget is the degenerate watchdog: every attempt overruns
        // it, so every configuration burns its full retry allowance and
        // fails with DeadlineExceeded — deterministically, with no timing
        // assumptions about the host.
        let items: Vec<f64> = (1..=4).map(|i| 10.0 * i as f64).collect();
        let robust = SweepExecutor::serial(5).run_measured_with_retry(
            &items,
            RetryPolicy::attempts(2).with_attempt_deadline(Duration::ZERO),
            || MeasurementRunner::new(Watts(90.0), 0),
            |runner, &steady| {
                runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
            },
        );
        assert_eq!(robust.points.len(), 0);
        assert_eq!(robust.failed_configs(), items.len());
        for f in &robust.failures {
            // The deadline error is transient, so the retry budget was spent.
            assert_eq!(f.attempts, 2);
            assert!(
                matches!(f.error, MeasureError::DeadlineExceeded { .. }),
                "expected DeadlineExceeded, got {}",
                f.error
            );
        }
    }

    #[test]
    fn deadline_cannot_cut_an_attempt_short() {
        // The watchdog's limit: a 1 ms budget does not stop a 30 ms
        // attempt. Both attempts run to completion, and the failure
        // reports the last one's full length.
        let returns = AtomicUsize::new(0);
        let robust = SweepExecutor::serial(3).run_measured_with_retry(
            &[1.0f64],
            RetryPolicy::attempts(2).with_attempt_deadline(Duration::from_millis(1)),
            || MeasurementRunner::new(Watts(90.0), 0),
            |_, _| {
                std::thread::sleep(Duration::from_millis(30));
                returns.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        assert_eq!(returns.load(Ordering::SeqCst), 2);
        assert_eq!(robust.failed_configs(), 1);
        let failure = &robust.failures[0];
        assert_eq!(failure.attempts, 2);
        match failure.error {
            MeasureError::DeadlineExceeded { elapsed, .. } => {
                assert!(elapsed >= Seconds(0.030), "elapsed {elapsed}")
            }
            ref e => panic!("expected DeadlineExceeded, got {e}"),
        }
    }

    #[test]
    fn generous_deadline_leaves_the_sweep_bitwise_untouched() {
        let items: Vec<f64> = (1..=8).map(|i| 10.0 * i as f64).collect();
        let run = |policy: RetryPolicy| {
            SweepExecutor::serial(7).run_measured_with_retry(
                &items,
                policy,
                || MeasurementRunner::new(Watts(90.0), 0),
                |runner, &steady| {
                    runner.try_measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        let plain = run(RetryPolicy::default());
        let watched = run(RetryPolicy::default().with_attempt_deadline(Duration::from_secs(3600)));
        assert_eq!(plain, watched);
    }

    #[test]
    fn sweep_failure_display_is_readable() {
        let f = SweepFailure {
            config: 42.0f64,
            index: 7,
            attempts: 3,
            error: MeasureError::TransientReadFailure,
        };
        let s = f.to_string();
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("42"), "{s}");
        assert!(s.contains("3 attempt(s)"), "{s}");
        assert!(s.contains("transient"), "{s}");
    }

    #[test]
    fn sweep_failures_round_trip_through_json() {
        let f = SweepFailure {
            config: 42.0f64,
            index: 7,
            attempts: 3,
            error: MeasureError::TransientReadFailure,
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: SweepFailure<f64> = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked on config #7 of 64: bad config")]
    fn parallel_worker_panic_names_the_config() {
        // The improved diagnostic: the sweep still aborts on a panicking
        // closure, but the message names the configuration instead of the
        // old opaque "sweep worker panicked".
        let items: Vec<usize> = (0..64).collect();
        let exec = SweepExecutor::new(1).with_threads(4);
        exec.map(&items, |&x, _| {
            assert!(x != 7, "bad config");
            x
        });
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked on config #3 of 8: bad config")]
    fn serial_worker_panic_names_the_config() {
        let items: Vec<usize> = (0..8).collect();
        SweepExecutor::serial(1).map(&items, |&x, _| {
            assert!(x != 3, "bad config");
            x
        });
    }

    #[test]
    fn worker_panic_diagnostic_carries_the_original_payload() {
        let items: Vec<usize> = (0..32).collect();
        let exec = SweepExecutor::new(5).with_threads(4);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            exec.map(&items, |&x, _| {
                if x == 19 {
                    panic!("meter wedged on config {x}");
                }
                x
            });
        }))
        .expect_err("the sweep must re-panic");
        assert_eq!(
            panic_payload_message(payload.as_ref()),
            "sweep worker panicked on config #19 of 32: meter wedged on config 19"
        );
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        // A worker that panics while holding a shared mutex must not turn
        // every later lock into a "poisoned" panic: `lock_unpoisoned`
        // recovers the guard and the data stays usable.
        let shared = std::sync::Arc::new(Mutex::new(Vec::<u64>::new()));
        let poisoner = std::sync::Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let mut guard = poisoner.lock().unwrap();
            guard.push(1);
            panic!("worker dies while holding the lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic must have poisoned the lock");
        lock_unpoisoned(&shared).push(2);
        assert_eq!(*lock_unpoisoned(&shared), vec![1, 2]);
    }

    #[test]
    fn poisoned_journal_lock_still_appends_durably() {
        // The journal-specific regression: poison the writer lock exactly
        // as a mid-append worker panic would, then keep appending through
        // the recovery path and verify every record survives replay.
        use crate::checkpoint::{replay, JournalRecord, SweepCheckpoint, SweepManifest};

        let dir =
            std::env::temp_dir().join(format!("enprop-poisoned-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = SweepManifest::new(7, 2, 1, "poison-regression".to_string());
        let ckpt: SweepCheckpoint<f64> = SweepCheckpoint::fresh(&dir, manifest).unwrap();
        let shared = std::sync::Arc::new(Mutex::new(ckpt));

        let poisoner = std::sync::Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let mut guard = poisoner.lock().unwrap();
            guard
                .writer_mut()
                .append(&JournalRecord {
                    index: 0,
                    outcome: SweepOutcome::Ok { point: 1.5f64, attempts: 1 },
                })
                .unwrap();
            panic!("worker dies while holding the journal lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic must have poisoned the lock");

        // The old code's `.expect("journal lock poisoned")` would panic
        // here; the recovered guard keeps journaling.
        let mut guard = lock_unpoisoned(&shared);
        guard
            .writer_mut()
            .append(&JournalRecord {
                index: 1,
                outcome: SweepOutcome::Ok { point: 2.5f64, attempts: 1 },
            })
            .unwrap();
        guard.writer_mut().finish().unwrap();
        drop(guard);

        let replayed = replay::<f64>(&dir).unwrap();
        let mut indices: Vec<usize> = replayed.outcomes.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1], "both appends must be durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_seed_changes_results() {
        let items = [50.0f64, 80.0];
        let run = |seed: u64| {
            SweepExecutor::serial(seed).run_measured(
                &items,
                || MeasurementRunner::new(Watts(90.0), 0),
                |runner, &steady| {
                    runner.measure(Seconds(20.0), Watts(steady), Watts::ZERO, Seconds::ZERO)
                },
            )
        };
        assert_ne!(run(1), run(2));
    }
}
