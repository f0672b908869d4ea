//! Runs the paper's Fig. 3 threadgroup decomposition as *real compute* on
//! this machine — actual f64 matrix products on actual OS threads — and
//! applies the paper's statistical methodology to the measured wall times.
//!
//! The host has no wall-power meter, so energy is attached from the
//! calibrated Haswell power model: this demonstrates the full
//! measurement-analysis pipeline on genuine executions. The `row imbal.`
//! column is the work imbalance of the layout's row bands,
//! (max − min)/max rows per thread: 0 when `p·t` divides N.
//!
//! ```text
//! cargo run --release --example real_dgemm_measurement [N]
//! ```

use enprop::kernels::{dgemm_threadgroups, Matrix, ThreadgroupConfig};
use enprop::stats::protocol::{measure_until_ci, MeasureConfig};
use enprop::units::{Joules, Seconds};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(384);
    let a = Matrix::filled(n, n, 1);
    let b = Matrix::filled(n, n, 2);
    let flops = 2.0 * (n as f64).powi(3);

    println!("real threadgroup DGEMM, N = {n} ({:.1e} flops per product):", flops);
    println!(
        "{:>10} {:>12} {:>10} {:>6} {:>10} {:>12}",
        "config", "time[s]", "Gflop/s", "reps", "row imbal.", "E_d(model)[J]"
    );

    let protocol = MeasureConfig { max_reps: 15, ..MeasureConfig::default() };
    for (p, t) in [(1usize, 1usize), (1, 2), (2, 1), (1, 4), (2, 2), (4, 1)] {
        let cfg = ThreadgroupConfig { groups: p, threads_per_group: t, block_size: 48 };
        // The paper's protocol: repeat the run until the sample mean of the
        // wall time lies in a 95% CI at 2.5% precision.
        let m = measure_until_ci(protocol, || {
            let mut c = Matrix::square(n);
            dgemm_threadgroups(cfg, &a, &b, &mut c).wall_seconds
        });
        let gflops = flops / m.mean / 1.0e9;

        // Attach energy from the calibrated CPU power model: active threads
        // at full utilization for the measured duration.
        let sim = enprop::cpusim::CpuSimulator::haswell();
        let per_core =
            sim.topology().power.core_w * (p * t).min(sim.topology().physical_cores()) as f64;
        let energy: Joules =
            enprop::units::Watts(per_core + sim.topology().power.uncore_w * 0.5) * Seconds(m.mean);

        println!(
            "{:>10} {:>12.5} {:>10.2} {:>6} {:>9.1}% {:>12.2}",
            format!("p={p} t={t}"),
            m.mean,
            gflops,
            m.reps,
            cfg.row_imbalance(n) * 100.0,
            energy.value()
        );
    }

    println!("\n(one thread per core, A and C row-banded per group, B shared — Fig. 3)");
}
