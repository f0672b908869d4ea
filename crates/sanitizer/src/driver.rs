//! Drivers: sanitize one kernel launch, or sweep every shipped
//! configuration, into machine-readable reports.
//!
//! Each driver validates the launch geometry first ([`crate::prelaunch`]);
//! only a launchable configuration is executed, under a
//! [`LaunchMonitor`] via the emulator's monitored interpreter. Buffers
//! are filled deterministically (SplitMix64), blocks run serially in
//! row-major order, and every diagnostic names buffers by their
//! registered name — so a report is bit-for-bit reproducible across runs
//! and machines.
//!
//! A sweep ([`sanitize_all`]) runs its launches concurrently on
//! [`host_parallelism`] workers through [`enprop_par::map_with`], one
//! launch per claim. Launches share no state — each has its own buffers
//! and [`LaunchMonitor`] — and the reports are assembled in sweep order,
//! so the sweep's report is the same bytes at any core count.

use crate::monitor::{BufferTable, LaunchMonitor};
use crate::prelaunch;
use crate::report::Finding;
use enprop_gpusim::emulator::{
    run_grid_monitored, BlockKernel, Dim2, EmuDgemm, EmuRowFft, EventCounters, GlobalMem,
};
use enprop_gpusim::model::max_group;
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_par::host_parallelism;
use serde::Serialize;

/// The sanitized outcome of one kernel launch (or of its rejected
/// pre-launch validation, in which case `blocks == 0`).
#[derive(Debug, Clone, Serialize)]
pub struct KernelReport {
    /// Human-readable launch label, e.g. `dgemm N=64 BS=16 G=2 R=1`.
    pub kernel: String,
    /// Thread blocks executed (0 when pre-launch validation rejected).
    pub blocks: usize,
    /// Thread blocks that ran under the monitor: every executed block,
    /// so always `== blocks`.
    pub monitored_blocks: usize,
    /// Every finding, in deterministic discovery order.
    pub findings: Vec<Finding>,
    /// Findings dropped past the per-launch reporting cap.
    pub suppressed: usize,
}

impl KernelReport {
    /// No findings, none suppressed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.suppressed == 0
    }
}

/// A full sweep: every configuration's [`KernelReport`] on one
/// architecture.
#[derive(Debug, Clone, Serialize)]
pub struct SanitizeReport {
    /// The architecture the geometry was validated against.
    pub arch: String,
    /// One report per launch, in sweep order.
    pub kernels: Vec<KernelReport>,
}

impl SanitizeReport {
    /// Total findings across all launches, including suppressed ones.
    pub fn total_findings(&self) -> usize {
        self.kernels.iter().map(|k| k.findings.len() + k.suppressed).sum()
    }

    /// Every launch clean?
    pub fn clean(&self) -> bool {
        self.kernels.iter().all(KernelReport::clean)
    }
}

/// Deterministic SplitMix64 fill in `[-1, 1)`.
pub(crate) fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Runs an arbitrary [`BlockKernel`] under a fresh [`LaunchMonitor`] and
/// packages the outcome. The generic entry point the shipped-kernel
/// drivers and the seeded fixtures share; every block is monitored.
pub fn sanitize_kernel<K: BlockKernel>(
    label: &str,
    grid: Dim2,
    kernel: &K,
    table: BufferTable,
) -> KernelReport {
    let monitor = LaunchMonitor::new(table, kernel.shared_len());
    let events = EventCounters::new();
    run_grid_monitored(
        grid,
        kernel,
        &events,
        |_, _| {
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    launch_report(label.to_string(), grid.count(), monitor)
}

/// The report of a launch whose `blocks` all ran under `monitor`.
fn launch_report(kernel: String, blocks: usize, monitor: LaunchMonitor) -> KernelReport {
    let out = monitor.finish();
    KernelReport {
        kernel,
        blocks,
        monitored_blocks: blocks,
        findings: out.findings,
        suppressed: out.suppressed,
    }
}

/// The report of a launch that pre-launch validation rejected.
fn rejected(kernel: String, findings: Vec<Finding>) -> KernelReport {
    KernelReport { kernel, blocks: 0, monitored_blocks: 0, findings, suppressed: 0 }
}

/// Sanitizes one tiled-DGEMM launch: pre-launch geometry validation, then
/// (if launchable) a fully monitored execution over deterministic inputs.
pub fn sanitize_dgemm(cfg: TiledDgemmConfig, arch: &GpuArch) -> KernelReport {
    let label = format!("dgemm N={} BS={} G={} R={}", cfg.n, cfg.bs, cfg.g, cfg.r);
    let findings = prelaunch::check_dgemm(&cfg, arch);
    if !findings.is_empty() {
        return rejected(label, findings);
    }

    let n = cfg.n;
    let a = GlobalMem::from_slice(&fill(n * n, 0xA11CE));
    let b = GlobalMem::from_slice(&fill(n * n, 0xB0B5));
    let c = GlobalMem::from_slice(&fill(n * n, 0xCAFE));
    let mut table = BufferTable::new();
    table.register(a.id(), "A", n * n);
    table.register(b.id(), "B", n * n);
    table.register(c.id(), "C", n * n);

    let tiles = n / cfg.bs;
    let monitor = LaunchMonitor::new(table, 2 * cfg.bs * cfg.bs);
    EmuDgemm::new(cfg).run_monitored(
        &a,
        &b,
        &c,
        |_, _| {
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    launch_report(label, tiles * tiles, monitor)
}

/// Sanitizes one row-FFT launch, analogously to [`sanitize_dgemm`].
pub fn sanitize_fft(n: usize, rows: usize, arch: &GpuArch) -> KernelReport {
    let label = format!("fft n={n} rows={rows}");
    let findings = prelaunch::check_fft(n, rows, arch);
    if !findings.is_empty() {
        return rejected(label, findings);
    }

    let data = GlobalMem::from_slice(&fill(2 * rows * n, 0xF0F7));
    let mut table = BufferTable::new();
    table.register(data.id(), "signal", 2 * rows * n);

    let monitor = LaunchMonitor::new(table, 2 * n);
    EmuRowFft::new(n, rows).run_monitored(
        &data,
        |_, _| {
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    launch_report(label, rows, monitor)
}

/// The DGEMM configurations a sweep sanitizes: every valid `BS` for each
/// `N`, crossed with group/run shapes that exercise both retire paths
/// (the separator-barrier path via `R=2` and the multi-product group path
/// via `G=2`). `all` widens the sweep to `N=128` and the maximal group.
pub fn dgemm_grid(arch: &GpuArch, all: bool) -> Vec<TiledDgemmConfig> {
    let ns: &[usize] = if all { &[32, 64, 128] } else { &[32, 64] };
    let mut out = Vec::new();
    for &n in ns {
        for bs in 1..=32usize {
            if !n.is_multiple_of(bs) {
                continue;
            }
            let mg = max_group(bs);
            let mut shapes = vec![(1usize, 1usize), (1, 2)];
            if mg >= 2 {
                shapes.push((2, 1));
            }
            if all && mg > 2 {
                shapes.push((mg, 1));
            }
            for (g, r) in shapes {
                let cfg = TiledDgemmConfig { n, bs, g, r };
                if cfg.is_valid(arch) {
                    out.push(cfg);
                }
            }
        }
    }
    out
}

/// The `(n, rows)` FFT configurations a sweep sanitizes.
pub fn fft_grid(all: bool) -> Vec<(usize, usize)> {
    let mut out = vec![(8, 3), (32, 3), (64, 2)];
    if all {
        out.push((128, 2));
        out.push((256, 1));
    }
    out
}

/// Sanitizes every shipped kernel configuration on `arch`.
///
/// Launches run concurrently on [`host_parallelism`] workers, one launch
/// per claim; each keeps its own monitor and runs its blocks serially, and
/// the reports are assembled in sweep order (DGEMM grid, then FFT grid).
pub fn sanitize_all(arch: &GpuArch, all: bool) -> SanitizeReport {
    let dgemms = dgemm_grid(arch, all);
    let ffts = fft_grid(all);
    let launch = |_: &mut (), i: usize| match dgemms.get(i) {
        Some(&cfg) => sanitize_dgemm(cfg, arch),
        None => {
            let (n, rows) = ffts[i - dgemms.len()];
            sanitize_fft(n, rows, arch)
        }
    };
    let launches = dgemms.len() + ffts.len();
    let kernels = enprop_par::map_with(launches, host_parallelism(), || (), launch);
    SanitizeReport { arch: arch.name.clone(), kernels }
}
