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
    run_grid_monitored_sampled, BlockKernel, Dim2, EmuDgemm, EmuRowFft, EventCounters, GlobalMem,
};
use enprop_gpusim::model::max_group;
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_par::host_parallelism;
use serde::Serialize;

/// Deterministic 1-in-k block sampling for production-scale sanitizing.
///
/// Selection is a pure function of the run seed and the block's linear
/// index (SplitMix64 finalizer, `hash % k == 0`), so a given
/// `(seed, k, launch)` always monitors the same blocks — reports stay
/// bit-for-bit reproducible across runs and machines, exactly like full
/// monitoring. [`SampleSpec::full`] (k = 1) monitors every block and is
/// the default everywhere.
///
/// Sampling trades checker *coverage* for speed: unselected blocks run on
/// the uninstrumented (batched) fast path, so intra-block hazards in them
/// and inter-block hazards involving only unselected blocks go unseen.
/// The kernels' block-symmetric structure makes one monitored block
/// representative; see DESIGN.md for the full soundness argument. The
/// drivers guarantee every launch monitors at least one block (via
/// [`SampleSpec::fallback_block`], when the hash selects none of a small
/// grid), and the self-test corpus always runs unsampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SampleSpec {
    k: u64,
    seed: u64,
}

impl SampleSpec {
    /// Full monitoring: every block is selected (`k = 1`).
    pub fn full() -> Self {
        Self { k: 1, seed: 0 }
    }

    /// Monitor one block in `k`, selected deterministically from `seed`.
    /// `k = 1` (or 0) degrades to full monitoring.
    pub fn one_in(k: u64, seed: u64) -> Self {
        Self { k: k.max(1), seed }
    }

    /// The sampling rate denominator (1 = full monitoring).
    pub fn rate(&self) -> u64 {
        self.k
    }

    /// Whether every block is monitored.
    pub fn is_full(&self) -> bool {
        self.k <= 1
    }

    /// Whether block `(bx, by)` of a grid `grid_x` blocks wide is
    /// monitored. Pure and deterministic in `(seed, k, index)`.
    pub fn selects(&self, grid_x: usize, bx: usize, by: usize) -> bool {
        self.k <= 1 || self.hash(grid_x, bx, by).is_multiple_of(self.k)
    }

    /// The block a driver must monitor anyway when the hash selects no
    /// block of a `grid_x × grid_y` grid (small grids under large `k`):
    /// the minimal-hash block, so the choice is as deterministic as
    /// [`selects`](SampleSpec::selects) itself. `None` when at least one
    /// block is already selected — every launch thus monitors ≥ 1 block.
    pub fn fallback_block(&self, grid_x: usize, grid_y: usize) -> Option<(usize, usize)> {
        if self.k <= 1 {
            return None;
        }
        let mut best = (0usize, 0usize);
        let mut best_hash = u64::MAX;
        for by in 0..grid_y {
            for bx in 0..grid_x {
                let h = self.hash(grid_x, bx, by);
                if h.is_multiple_of(self.k) {
                    return None;
                }
                if h < best_hash {
                    best_hash = h;
                    best = (bx, by);
                }
            }
        }
        Some(best)
    }

    /// SplitMix64 finalizer over the block's linear index, keyed by the
    /// run seed.
    fn hash(&self, grid_x: usize, bx: usize, by: usize) -> u64 {
        let lin = (by * grid_x + bx) as u64;
        let mut z = self.seed ^ lin.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        z
    }
}

/// The sanitized outcome of one kernel launch (or of its rejected
/// pre-launch validation, in which case `blocks == 0`).
#[derive(Debug, Clone, Serialize)]
pub struct KernelReport {
    /// Human-readable launch label, e.g. `dgemm N=64 BS=16 G=2 R=1`.
    pub kernel: String,
    /// Thread blocks executed (0 when pre-launch validation rejected).
    pub blocks: usize,
    /// Thread blocks that ran under the monitor (`== blocks` when
    /// monitoring is full; fewer under [`SampleSpec`] sampling).
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
    sanitize_kernel_sampled(label, grid, kernel, table, SampleSpec::full())
}

/// [`sanitize_kernel`] under a [`SampleSpec`]: only selected blocks run
/// instrumented; the rest take the uninstrumented (batched) fast path and
/// are invisible to the checkers.
pub fn sanitize_kernel_sampled<K: BlockKernel>(
    label: &str,
    grid: Dim2,
    kernel: &K,
    table: BufferTable,
    sample: SampleSpec,
) -> KernelReport {
    let monitor = LaunchMonitor::new(table, kernel.shared_len());
    let events = EventCounters::new();
    let fallback = sample.fallback_block(grid.x, grid.y);
    let mut monitored = 0usize;
    run_grid_monitored_sampled(
        grid,
        kernel,
        &events,
        |bx, by| sample.selects(grid.x, bx, by) || fallback == Some((bx, by)),
        |_, _| {
            monitored += 1;
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    let out = monitor.finish();
    KernelReport {
        kernel: label.to_string(),
        blocks: grid.count(),
        monitored_blocks: monitored,
        findings: out.findings,
        suppressed: out.suppressed,
    }
}

/// Sanitizes one tiled-DGEMM launch: pre-launch geometry validation, then
/// (if launchable) a fully monitored execution over deterministic inputs.
pub fn sanitize_dgemm(cfg: TiledDgemmConfig, arch: &GpuArch) -> KernelReport {
    sanitize_dgemm_sampled(cfg, arch, SampleSpec::full())
}

/// [`sanitize_dgemm`] under a [`SampleSpec`].
pub fn sanitize_dgemm_sampled(
    cfg: TiledDgemmConfig,
    arch: &GpuArch,
    sample: SampleSpec,
) -> KernelReport {
    let label = format!("dgemm N={} BS={} G={} R={}", cfg.n, cfg.bs, cfg.g, cfg.r);
    let findings = prelaunch::check_dgemm(&cfg, arch);
    if !findings.is_empty() {
        return KernelReport {
            kernel: label,
            blocks: 0,
            monitored_blocks: 0,
            findings,
            suppressed: 0,
        };
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
    let fallback = sample.fallback_block(tiles, tiles);
    let mut monitored = 0usize;
    EmuDgemm::new(cfg).run_monitored_sampled(
        &a,
        &b,
        &c,
        |bx, by| sample.selects(tiles, bx, by) || fallback == Some((bx, by)),
        |_, _| {
            monitored += 1;
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    let out = monitor.finish();
    KernelReport {
        kernel: label,
        blocks: tiles * tiles,
        monitored_blocks: monitored,
        findings: out.findings,
        suppressed: out.suppressed,
    }
}

/// Sanitizes one row-FFT launch, analogously to [`sanitize_dgemm`].
pub fn sanitize_fft(n: usize, rows: usize, arch: &GpuArch) -> KernelReport {
    sanitize_fft_sampled(n, rows, arch, SampleSpec::full())
}

/// [`sanitize_fft`] under a [`SampleSpec`].
pub fn sanitize_fft_sampled(
    n: usize,
    rows: usize,
    arch: &GpuArch,
    sample: SampleSpec,
) -> KernelReport {
    let label = format!("fft n={n} rows={rows}");
    let findings = prelaunch::check_fft(n, rows, arch);
    if !findings.is_empty() {
        return KernelReport {
            kernel: label,
            blocks: 0,
            monitored_blocks: 0,
            findings,
            suppressed: 0,
        };
    }

    let data = GlobalMem::from_slice(&fill(2 * rows * n, 0xF0F7));
    let mut table = BufferTable::new();
    table.register(data.id(), "signal", 2 * rows * n);

    let monitor = LaunchMonitor::new(table, 2 * n);
    let fallback = sample.fallback_block(1, rows);
    let mut monitored = 0usize;
    EmuRowFft::new(n, rows).run_monitored_sampled(
        &data,
        |bx, by| sample.selects(1, bx, by) || fallback == Some((bx, by)),
        |_, _| {
            monitored += 1;
            monitor.begin_block();
            monitor.sink()
        },
        |bx, by, _sink, exit| monitor.end_block(bx, by, &exit),
    );
    let out = monitor.finish();
    KernelReport {
        kernel: label,
        blocks: rows,
        monitored_blocks: monitored,
        findings: out.findings,
        suppressed: out.suppressed,
    }
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
pub fn sanitize_all(arch: &GpuArch, all: bool) -> SanitizeReport {
    sanitize_all_sampled(arch, all, SampleSpec::full())
}

/// [`sanitize_all`] under a [`SampleSpec`]: the production-scale sweep
/// mode (`repro sanitize --sample K`).
///
/// Launches run concurrently on [`host_parallelism`] workers, one launch
/// per claim; each keeps its own monitor and runs its blocks serially, and
/// the reports are assembled in sweep order (DGEMM grid, then FFT grid).
pub fn sanitize_all_sampled(arch: &GpuArch, all: bool, sample: SampleSpec) -> SanitizeReport {
    let dgemms = dgemm_grid(arch, all);
    let ffts = fft_grid(all);
    let launch = |_: &mut (), i: usize| match dgemms.get(i) {
        Some(&cfg) => sanitize_dgemm_sampled(cfg, arch, sample),
        None => {
            let (n, rows) = ffts[i - dgemms.len()];
            sanitize_fft_sampled(n, rows, arch, sample)
        }
    };
    let launches = dgemms.len() + ffts.len();
    let kernels = enprop_par::map_with(launches, host_parallelism(), || (), launch);
    SanitizeReport { arch: arch.name.clone(), kernels }
}
