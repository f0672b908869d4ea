//! Batched-monitoring equivalence: the monitor's bulk trace-consuming
//! path (`MonitorSink::BULK`, shadow state updated from per-phase access
//! traces, store-free phases as load ranges once a block's shared cells
//! are written) must be observationally identical to the scalar
//! per-access hook path pinned via [`ForceScalar`]: same findings in the
//! same order, same suppressed count, same memory bits, same event
//! counts.

use enprop_gpusim::emulator::{
    AccessSink, BlockKernel, Dim2, EmuDgemm, EmuRowFft, ForceScalar, GlobalMem, PhaseCtx,
    PhaseOutcome,
};
use enprop_gpusim::TiledDgemmConfig;
use enprop_sanitize::{sanitize_kernel, BufferTable, Checker, Finding, LaunchMonitor};

/// Deterministic fill for test matrices.
fn filled(len: usize, seed: u64) -> Vec<f64> {
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

fn bits(m: &GlobalMem) -> Vec<u64> {
    m.to_vec().iter().map(|v| v.to_bits()).collect()
}

fn render(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(|f| format!("{f:?}")).collect()
}

/// Every BS in 1..=32 at N = 2·BS (a 2 × 2 grid, so both the inter-block
/// history and the per-block resets are exercised), with a second product
/// after a separator barrier (G = 2) and after a fused run boundary
/// (R = 2). The bulk side takes the load-range form of every MAC phase
/// after a block's first stage.
#[test]
fn dgemm_bulk_monitoring_matches_forced_scalar_monitoring() {
    let shapes =
        (1..=32usize).flat_map(|bs| [(1, 1), (1, 2), (2, 1)].map(|(g, r)| (2 * bs, bs, g, r)));
    for (n, bs, g, r) in shapes {
        let host_a = filled(n * n, 11);
        let host_b = filled(n * n, 12);
        let host_c = filled(n * n, 13);
        let emu = EmuDgemm::new(TiledDgemmConfig { n, bs, g, r });

        // Bulk path: MonitorSink::BULK routes the batched bodies' phase
        // traces through the monitor.
        let (a1, b1, c1) = (
            GlobalMem::from_slice(&host_a),
            GlobalMem::from_slice(&host_b),
            GlobalMem::from_slice(&host_c),
        );
        let mut table = BufferTable::new();
        table.register(a1.id(), "A", n * n);
        table.register(b1.id(), "B", n * n);
        table.register(c1.id(), "C", n * n);
        let monitor = LaunchMonitor::new(table, 2 * bs * bs);
        let bulk_ev = emu.run_monitored(
            &a1,
            &b1,
            &c1,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let bulk_out = monitor.finish();

        // Scalar path: ForceScalar masks BULK, pinning the per-access
        // interpreter loop through the same monitor logic.
        let (a2, b2, c2) = (
            GlobalMem::from_slice(&host_a),
            GlobalMem::from_slice(&host_b),
            GlobalMem::from_slice(&host_c),
        );
        let mut table = BufferTable::new();
        table.register(a2.id(), "A", n * n);
        table.register(b2.id(), "B", n * n);
        table.register(c2.id(), "C", n * n);
        let monitor = LaunchMonitor::new(table, 2 * bs * bs);
        let scalar_ev = emu.run_monitored(
            &a2,
            &b2,
            &c2,
            |_, _| {
                monitor.begin_block();
                ForceScalar(monitor.sink())
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let scalar_out = monitor.finish();

        assert_eq!(
            render(&bulk_out.findings),
            render(&scalar_out.findings),
            "n={n} bs={bs} g={g} r={r}: findings diverged"
        );
        assert_eq!(bulk_out.suppressed, scalar_out.suppressed);
        assert_eq!(bits(&c1), bits(&c2), "n={n} bs={bs} g={g} r={r}: memory diverged");
        assert_eq!(bulk_ev, scalar_ev, "n={n} bs={bs} g={g} r={r}: events diverged");
    }
}

#[test]
fn fft_bulk_monitoring_matches_forced_scalar_monitoring() {
    for &(n, rows) in &[(8usize, 3usize), (64, 2), (256, 1)] {
        let host = filled(2 * rows * n, 21);
        let emu = EmuRowFft::new(n, rows);

        let d1 = GlobalMem::from_slice(&host);
        let mut table = BufferTable::new();
        table.register(d1.id(), "signal", 2 * rows * n);
        let monitor = LaunchMonitor::new(table, 2 * n);
        let bulk_ev = emu.run_monitored(
            &d1,
            |_, _| {
                monitor.begin_block();
                monitor.sink()
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let bulk_out = monitor.finish();

        let d2 = GlobalMem::from_slice(&host);
        let mut table = BufferTable::new();
        table.register(d2.id(), "signal", 2 * rows * n);
        let monitor = LaunchMonitor::new(table, 2 * n);
        let scalar_ev = emu.run_monitored(
            &d2,
            |_, _| {
                monitor.begin_block();
                ForceScalar(monitor.sink())
            },
            |bx, by, _s, exit| monitor.end_block(bx, by, &exit),
        );
        let scalar_out = monitor.finish();

        assert_eq!(
            render(&bulk_out.findings),
            render(&scalar_out.findings),
            "fft n={n} rows={rows}: findings diverged"
        );
        assert_eq!(bulk_out.suppressed, scalar_out.suppressed);
        assert_eq!(bits(&d1), bits(&d2), "fft n={n} rows={rows}: memory diverged");
        assert_eq!(bulk_ev, scalar_ev, "fft n={n} rows={rows}: events diverged");
    }
}

#[test]
fn self_test_corpus_still_catches_all_fixtures_with_bulk_sink() {
    // The four seeded-defect fixtures must stay caught now that the
    // monitor consumes batched traces (the fixture kernels carry no batch
    // bodies, so they exercise the scalar fallback inside a bulk-capable
    // sink — the mixed-path case the drivers see in production).
    let corpus = enprop_sanitize::fixtures::self_test();
    assert_eq!(corpus.len(), 4, "fixture corpus changed size");
    for (checker, report) in corpus {
        assert!(
            report.findings.iter().any(|f| f.checker == checker),
            "fixture for {checker:?} no longer caught: {:?}",
            report.findings
        );
    }
}

/// Each thread reads its shared cell, publishes the value, then writes
/// the cell; in block `bad`, thread 0 also reads one cell past the end and
/// then splits from the others at the barrier.
struct Scribble<'a> {
    out: &'a GlobalMem,
    bad: Option<usize>,
}

impl BlockKernel for Scribble<'_> {
    type State = ();

    fn block(&self) -> Dim2 {
        Dim2::new(2, 1)
    }

    fn shared_len(&self) -> usize {
        2
    }

    fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

    fn run_phase<S: AccessSink>(
        &self,
        _phase: usize,
        _state: &mut (),
        ctx: &mut PhaseCtx<'_, S>,
    ) -> PhaseOutcome {
        let slot = 2 * ctx.bx + ctx.tx;
        let v = ctx.shared_load(ctx.tx);
        ctx.global_store(self.out, slot, v);
        ctx.shared_store(ctx.tx, 1.0 + slot as f64);
        if self.bad == Some(ctx.bx) && ctx.tx == 0 {
            ctx.shared_load(2);
            return PhaseOutcome::Sync;
        }
        PhaseOutcome::Done
    }
}

#[test]
fn blocks_after_a_reporting_block_report_what_fresh_scratch_gives() {
    // Block 1 of 4 reports an out-of-bounds read and a barrier divergence;
    // the blocks after it run on the launch's reused scratch and must
    // report exactly what they report when no block before them misbehaves.
    let run = |bad| {
        let out = GlobalMem::from_slice(&[f64::NAN; 8]);
        let mut table = BufferTable::new();
        table.register(out.id(), "out", 8);
        let report =
            sanitize_kernel("scribble", Dim2::new(4, 1), &Scribble { out: &out, bad }, table);
        (report, out.to_vec())
    };
    let (fresh, fresh_out) = run(None);
    let (report, out) = run(Some(1));
    assert!(fresh.clean(), "{:?}", fresh.findings);
    assert_eq!(out, vec![0.0; 8], "every block reads zeroed shared memory");
    assert_eq!(out, fresh_out);
    let checkers: Vec<Checker> = report.findings.iter().map(|f| f.checker).collect();
    assert_eq!(checkers, [Checker::Memcheck, Checker::Synccheck], "{:?}", report.findings);
    assert!(
        report.findings.iter().all(|f| format!("{f:?}").contains("(1, 0)")),
        "{:?}",
        report.findings
    );
}
