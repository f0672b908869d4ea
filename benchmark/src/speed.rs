//! How fast the shared host runs, gauged by fixed work beside each
//! operation.
//!
//! The benchmark's host is a few vCPUs of a shared machine whose speed
//! drifts by up to 60% over minutes as its neighbours come and go: the
//! same seed-independent `verify-kernels` pass took 450 ms in one run and
//! 800 ms in another. A raw time then measures the neighbours as much as
//! the program. So the benchmark times a fixed reference loop — its own
//! code, which no change to the program can make faster or slower — next
//! to each operation, and reports end-to-end times scaled to a nominal
//! host on which that loop takes [`NOMINAL_MS`]: an operation that took
//! `t` ms while the loop took `r` ms is reported as `t × NOMINAL_MS / r`.
//! A change to the program moves the scaled time as much as the raw one;
//! a neighbour that slows the loop and the program alike cancels out.
//! (`serve-mixed` reports its open-loop latency as measured; see there.)
//!
//! The loop mixes the kinds of work the workloads do, so that contention
//! slows it about as much as it slows them: Box–Muller draws pushed onto a
//! growing buffer (the meter), random read-modify-writes over 4 MiB (the
//! sanitizer's shadow memory, the caches), and independent multiply-adds
//! over short arrays (the emulator's batched phases). It cancels part of
//! the drift, not all of it. On the 2-vCPU host, across twelve stretches
//! of about 8 s of one `verify-kernels` run, scaling narrowed the range of
//! the stretches' median pass times from 68% to 26% of their median while
//! the host was busy, and from 10% to 5% while it was quiet.

use crate::{ms, percentile};
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time on the nominal host, ms. It takes about this
/// long on the 2-core Xeon host of the seed numbers when that host is
/// quiet, so scaled and raw times read alike there.
pub const NOMINAL_MS: f64 = 2.5;

/// Runs of the loop per reading; the reading is their median, so one
/// preempted run does not move it.
const RUNS: usize = 3;

/// The reference loop, once.
fn reference_work() -> f64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let unit = |r: u64| ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64;

    let mut draws = Vec::new();
    for i in 0..40_000 {
        let (u1, u2) = (unit(next()), unit(next()));
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        draws.push((i as f64, 100.0 + 2.0 * z));
    }

    let mut table = vec![0u64; 1 << 19];
    let mask = table.len() - 1;
    for _ in 0..200_000 {
        let r = next();
        let slot = &mut table[r as usize & mask];
        *slot = slot.wrapping_mul(31).wrapping_add(r);
    }

    let mut acc = [[0.0f64; 1024]; 2];
    let (a, b) = (vec![0.999_999f64; 1024], vec![1e-6f64; 1024]);
    for pass in 0..1_500 {
        let lane = &mut acc[pass & 1];
        for ((c, &p), &q) in lane.iter_mut().zip(&a).zip(&b) {
            *c = *c * p + q;
        }
    }

    draws.iter().map(|d| d.1).sum::<f64>()
        + table.iter().fold(0, |s, &v| s ^ v) as f64
        + acc[0][7]
        + acc[1][511]
}

/// One reading of the host's speed: how long the reference loop takes
/// now, ms.
pub fn reading() -> f64 {
    let mut runs = [0.0; RUNS];
    for run in &mut runs {
        let start = Instant::now();
        black_box(reference_work());
        *run = ms(start.elapsed());
    }
    percentile(&runs, 50.0)
}

/// Readings taken between consecutive operations: each operation's time
/// is scaled by the readings just before and just after it.
pub struct Gauge {
    last: f64,
    /// Every reading, for the run's notes.
    pub readings: Vec<f64>,
}

impl Gauge {
    pub fn new() -> Self {
        let last = reading();
        Gauge {
            last,
            readings: vec![last],
        }
    }

    /// Takes a fresh reading and scales `raw_ms`, measured since the last
    /// one.
    pub fn scale(&mut self, raw_ms: f64) -> f64 {
        let now = reading();
        let scaled = raw_ms * NOMINAL_MS / ((self.last + now) / 2.0);
        self.last = now;
        self.readings.push(now);
        scaled
    }
}
