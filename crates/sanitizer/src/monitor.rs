//! The dynamic checkers: shadow memory behind an [`AccessSink`].
//!
//! A [`LaunchMonitor`] owns all shadow state for one kernel launch and
//! hands out [`MonitorSink`] handles (cheap `Rc` clones) to the monitored
//! interpreter, one per block. Blocks run serially under
//! `run_grid_monitored`, so a single shared state cell suffices and every
//! diagnostic comes out in deterministic order.
//!
//! # What the shadows encode
//!
//! The barrier-phase structure is the happens-before relation: within a
//! block, two accesses to the same cell are ordered iff a `__syncthreads`
//! separates them, i.e. they happen in *different phases*. So racecheck
//! keeps, per cell and per phase, the first writer and first reader; a
//! same-phase access by a different thread that conflicts (at least one
//! write) is a hazard. Between blocks there is no synchronization at all,
//! so any two blocks touching the same global cell with at least one
//! write is a hazard regardless of phase.
//!
//! Uninitialized-read detection is deferred: a read of a never-written
//! shared cell only becomes a finding if the cell is *still* unwritten
//! when the block retires. A read that races with a later same-phase
//! write is racecheck's finding, not memcheck's — the deferral is what
//! keeps each seeded fixture attributable to exactly one checker.
//!
//! # Packed shadows
//!
//! Accesses are grouped into *runs*: consecutive accesses of one thread in
//! one phase. Run ids come from one launch-wide counter, and the monitor
//! keeps the full `(tx, ty)` of each run of the current phase. A cell
//! records its first writer and first reader as run ids, so it needs no
//! phase stamp: an id below the current phase's first id belongs to an
//! earlier phase or block and reads as absent — the barrier's reset,
//! done lazily. Compared with the block's first id instead, the same two
//! ids say whether the block has written or read the cell yet, which is
//! all memcheck's uninitialized-read rule needs. A shared cell takes 16
//! bytes and a global cell 32 (block ordinals replace block coordinates,
//! which are kept once per block); thread and block coordinates stay at
//! full width, so every block and grid shape is covered.
//!
//! The encoding relies on the order the monitored interpreter delivers:
//! one block at a time, opened by [`LaunchMonitor::begin_block`], its
//! phases in ascending order.
//!
//! # Race-free phases
//!
//! A phase with no store to a memory, or whose accesses to it all come
//! from one thread, cannot race on it within the block; and every intra-
//! block shadow resets at the next phase, so skipping such a phase's race
//! steps changes no finding. A bulk trace carries one whole phase (see
//! [`AccessSink::observe_phase`]), so the monitor tells such a phase from
//! the trace alone: its store count for either memory, a scan for a
//! second thread for shared memory. It still reports out-of-bounds
//! records, keeps the inter-block history, and marks written cells and
//! collects uninitialized-read candidates while some shared cell of the
//! block is unwritten — once every cell is written, a race-free shared
//! batch is passed over.
//!
//! # Load ranges
//!
//! Once every shared cell of the block is written, a phase without shared
//! stores can fail no shared check but the bounds check: a race needs a
//! store in the phase, and an uninitialized read needs an unwritten cell.
//! So from then on [`MonitorSink::wants_shared_loads`] answers `false`,
//! and a kernel may hand such a phase's loads over as one
//! [`LoadRange`](enprop_gpusim::emulator::LoadRange) instead of a record
//! per load (the tiled DGEMM's MAC phase: `2·BS³` records). The monitor
//! checks the range's end against the shared length, without borrowing
//! its state when it is in bounds. `unwritten` only falls within a block,
//! so the answer never goes back to `true` before the next block.

use crate::report::{AccessKind, Finding, MemSpace};
use enprop_gpusim::emulator::{
    AccessPoint, AccessSink, BlockExit, BufId, GlobalBatch, PhaseTrace, SharedBatch,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Maps raw [`BufId`]s (allocation addresses, nondeterministic across
/// runs) to stable registered names and ordinals, so diagnostics and
/// reports never leak an address.
#[derive(Debug, Default)]
pub struct BufferTable {
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Entry {
    id: BufId,
    name: String,
    len: usize,
}

impl BufferTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an allocation under a stable name. Panics if the same
    /// allocation is registered twice.
    pub fn register(&mut self, id: BufId, name: impl Into<String>, len: usize) {
        assert!(self.entries.iter().all(|e| e.id != id), "buffer registered twice");
        self.entries.push(Entry { id, name: name.into(), len });
    }

    fn ordinal(&self, id: BufId) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    fn name(&self, ordinal: usize) -> &str {
        &self.entries[ordinal].name
    }
}

/// Set in a shadow word once the cell's hazard was reported, so a
/// hazardous cell reports once: in a writer run id for the current
/// phase, in a global cell's first-writing-block ordinal for the launch.
/// Run ids and block ordinals count up by one per run or block from 1;
/// reaching this bit would take 2^63 of them.
const FLAGGED: u64 = 1 << 63;

/// No thread: `threadIdx.x < blockDim.x ≤ usize::MAX`, so no access
/// carries this coordinate.
const NO_THREAD: (usize, usize) = (usize::MAX, usize::MAX);

fn kind(store: bool) -> AccessKind {
    if store {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// One cell's first writer (with [`FLAGGED`]) and first reader in the
/// current phase, as run ids; `0` or any id below the phase's first run
/// id means none.
#[derive(Debug, Clone, Copy, Default)]
struct CellShadow {
    writer: u64,
    reader: u64,
}

impl CellShadow {
    /// The writer's run id without the flag.
    fn writer(self) -> u64 {
        self.writer & !FLAGGED
    }
}

/// Launch-wide inter-block history of one global cell: the ordinals of
/// the first writing block (with [`FLAGGED`]) and of the first reading
/// block, `0` for none. Beside its [`CellShadow`], a global cell takes 32
/// bytes.
///
/// One reading block is enough: blocks run one at a time, so when block
/// `B` writes, the first reading block is either an earlier block (the
/// hazard) or `B` itself, and then no other block has read the cell yet.
#[derive(Debug, Clone, Copy, Default)]
struct BlockHistory {
    wrote: u64,
    read: u64,
}

impl BlockHistory {
    /// Records an access by block `block`, returning the earlier block's
    /// access it conflicts with: another block's write, or — for a write —
    /// another block's read. Once a cell reported, it stays quiet.
    #[inline(always)]
    fn step(&mut self, block: u64, write: bool) -> Option<(u64, AccessKind)> {
        let mut hit = None;
        if self.wrote & FLAGGED == 0 {
            hit = if self.wrote != 0 && self.wrote != block {
                Some((self.wrote, AccessKind::Write))
            } else if write && self.read != 0 && self.read != block {
                Some((self.read, AccessKind::Read))
            } else {
                None
            };
            if hit.is_some() {
                self.wrote |= FLAGGED;
            }
        }
        if write {
            if self.wrote & !FLAGGED == 0 {
                self.wrote |= block;
            }
        } else if self.read == 0 {
            self.read = block;
        }
        hit
    }
}

const _: () = assert!(std::mem::size_of::<CellShadow>() == 16);
const _: () = assert!(std::mem::size_of::<BlockHistory>() == 16);

/// The runs of the current phase of the block in progress.
#[derive(Debug)]
struct Runs {
    /// The phase being monitored; `None` until the block's first access.
    phase: Option<usize>,
    /// The phase's first run id: smaller ids are stale.
    base: u64,
    /// The next run id to hand out; ids start at 1, so `0` is none.
    next: u64,
    /// The current run's thread and id.
    thread: (usize, usize),
    id: u64,
    /// The thread of each run of the phase, at `id - base`.
    threads: Vec<(usize, usize)>,
}

impl Runs {
    /// Starts phase `phase`: every recorded id becomes stale.
    fn open(&mut self, phase: usize) {
        self.phase = Some(phase);
        self.base = self.next;
        self.thread = NO_THREAD;
        self.threads.clear();
    }

    /// The run id of an access by thread `(tx, ty)`: the current run's,
    /// or a new run's when the thread changed.
    #[inline(always)]
    fn switch_to(&mut self, tx: usize, ty: usize) -> u64 {
        if self.thread != (tx, ty) {
            self.thread = (tx, ty);
            self.id = self.next;
            self.next += 1;
            self.threads.push((tx, ty));
        }
        self.id
    }

    /// The thread of run `id` of the current phase.
    fn thread_of(&self, id: u64) -> (usize, usize) {
        self.threads[(id - self.base) as usize]
    }

    /// Whether run `id` of the current phase is the current run's thread.
    #[inline]
    fn same_thread(&self, id: u64) -> bool {
        id == self.id || self.thread_of(id) == self.thread
    }
}

/// Advances a cell's shadow by the current run's access, returning the
/// earlier access it conflicts with: a different thread's same-phase
/// write, or — for a write — a different thread's same-phase read. Once a
/// cell reported, it stays quiet for the rest of the phase.
#[inline(always)]
fn race_step(sh: &mut CellShadow, runs: &Runs, write: bool) -> Option<(u64, AccessKind)> {
    let writer = sh.writer();
    let has_writer = writer >= runs.base;
    let has_reader = sh.reader >= runs.base;
    let hit = if has_writer && sh.writer & FLAGGED != 0 {
        None
    } else if has_writer && !runs.same_thread(writer) {
        Some((writer, AccessKind::Write))
    } else if write && has_reader && !runs.same_thread(sh.reader) {
        Some((sh.reader, AccessKind::Read))
    } else {
        None
    };
    if write {
        if !has_writer {
            sh.writer = runs.id;
        }
    } else if !has_reader {
        sh.reader = runs.id;
    }
    if hit.is_some() {
        // A hit leaves a current writer (the earlier one, or this access)
        // to carry the flag.
        sh.writer |= FLAGGED;
    }
    hit
}

/// All shadow state for one launch.
struct MonitorState {
    table: BufferTable,
    shared: Vec<CellShadow>,
    /// Per registered buffer, each cell's intra-block shadow and its
    /// inter-block history, kept apart so a race-free phase, which needs
    /// only the history, touches half the bytes.
    global: Vec<Vec<CellShadow>>,
    history: Vec<Vec<BlockHistory>>,
    runs: Runs,
    /// Coordinates of each block that accessed memory, at ordinal − 1.
    blocks: Vec<(usize, usize)>,
    /// Ordinal of the block in progress; `0` until its first access.
    block: u64,
    /// The block's first run id: a shared cell whose writer (reader) id is
    /// smaller has not been written (read) by the block.
    block_base: u64,
    /// Shared cells the block has not written yet.
    unwritten: usize,
    uninit: Vec<(usize, AccessPoint)>,
    findings: Vec<Finding>,
    suppressed: usize,
    cap: usize,
}

impl MonitorState {
    fn push(&mut self, finding: Finding) {
        if self.findings.len() < self.cap {
            self.findings.push(finding);
        } else {
            self.suppressed += 1;
        }
    }

    /// Enters phase `phase` of block `(bx, by)` ahead of its accesses.
    #[inline]
    fn enter(&mut self, bx: usize, by: usize, phase: usize) {
        if self.runs.phase != Some(phase) {
            self.open(bx, by, phase);
        }
    }

    /// Opens a phase, and the block with its first one.
    #[inline(never)]
    fn open(&mut self, bx: usize, by: usize, phase: usize) {
        self.enter_block(bx, by);
        self.runs.open(phase);
    }

    /// Gives block `(bx, by)` its ordinal at its first access. A phase
    /// that needs only the inter-block history enters the block but not
    /// the phase: it hands out no run id.
    #[inline]
    fn enter_block(&mut self, bx: usize, by: usize) {
        if self.block == 0 {
            self.blocks.push((bx, by));
            self.block = self.blocks.len() as u64;
        }
    }

    /// Reports an out-of-bounds access; a global one names its buffer
    /// when registered.
    #[cold]
    #[inline(never)]
    fn report_oob(
        &mut self,
        space: MemSpace,
        ordinal: Option<usize>,
        at: AccessPoint,
        store: bool,
        idx: usize,
        len: usize,
    ) {
        let name = ordinal.map(|o| self.table.name(o).to_owned());
        self.push(Finding::oob(space, name.as_deref(), at, kind(store), idx, len));
    }

    /// Full attribution of an access by `(tx, ty)` in the current phase —
    /// built only for an access that reports.
    fn point(&self, tx: usize, ty: usize) -> AccessPoint {
        let (bx, by) = self.blocks[self.block as usize - 1];
        let phase = self.runs.phase.expect("an access enters its phase first");
        AccessPoint { bx, by, tx, ty, phase }
    }

    /// An in-bounds shared access by `(tx, ty)` in the current phase. In
    /// a race-free phase (`races` false, see the module docs) only the
    /// block's first write and first read of the cell are marked.
    #[inline(always)]
    fn shared_access(&mut self, idx: usize, tx: usize, ty: usize, write: bool, races: bool) {
        let id = self.runs.switch_to(tx, ty);
        let cell = self.shared[idx];
        let unwritten = cell.writer() < self.block_base;
        let unread = cell.reader < self.block_base;
        if unwritten && write {
            self.unwritten -= 1;
        } else if unwritten && unread {
            self.note_uninit(idx, tx, ty);
        }
        if races {
            if let Some(hit) = race_step(&mut self.shared[idx], &self.runs, write) {
                self.report_race(MemSpace::Shared, None, idx, (tx, ty), write, hit);
            }
        } else if unwritten && write {
            self.shared[idx].writer = id;
        } else if unwritten && unread {
            self.shared[idx].reader = id;
        }
    }

    /// The block's first read of shared cell `idx`, not written yet: a
    /// candidate finding until the block retires.
    #[cold]
    #[inline(never)]
    fn note_uninit(&mut self, idx: usize, tx: usize, ty: usize) {
        let at = self.point(tx, ty);
        self.uninit.push((idx, at));
    }

    /// An in-bounds access to registered global buffer `ordinal` by
    /// `(tx, ty)` in the current phase. `races` is false in a race-free
    /// phase: only the inter-block history is kept then.
    #[inline(always)]
    fn global_access(
        &mut self,
        ordinal: usize,
        idx: usize,
        tx: usize,
        ty: usize,
        write: bool,
        races: bool,
    ) {
        if races {
            self.runs.switch_to(tx, ty);
            if let Some(hit) = race_step(&mut self.global[ordinal][idx], &self.runs, write) {
                self.report_race(MemSpace::Global, Some(ordinal), idx, (tx, ty), write, hit);
            }
        }
        if let Some(hit) = self.history[ordinal][idx].step(self.block, write) {
            self.report_inter_block(ordinal, idx, write, hit);
        }
    }

    /// Reports an intra-block race of the access by `(tx, ty)` with the
    /// earlier access `first`.
    #[cold]
    #[inline(never)]
    fn report_race(
        &mut self,
        space: MemSpace,
        ordinal: Option<usize>,
        idx: usize,
        (tx, ty): (usize, usize),
        write: bool,
        (first, first_kind): (u64, AccessKind),
    ) {
        let name = ordinal.map(|o| self.table.name(o).to_owned());
        let at = self.point(tx, ty);
        let first_thread = self.runs.thread_of(first);
        self.push(Finding::race(
            space,
            name.as_deref(),
            idx,
            at,
            kind(write),
            first_thread,
            first_kind,
        ));
    }

    /// A bulk phase's shared records. A race-free phase skips the race
    /// steps (see the module docs), and is passed over entirely once
    /// every cell of the block is written and no record is out of bounds.
    fn shared_batch(
        &mut self,
        bx: usize,
        by: usize,
        phase: usize,
        len: usize,
        batch: &SharedBatch,
    ) {
        let races = batch.stores() > 0 && !batch.one_thread();
        if !races && self.unwritten == 0 && batch.index_end() <= len {
            return;
        }
        self.enter(bx, by, phase);
        for a in batch.iter() {
            if a.idx >= len {
                let at = AccessPoint { bx, by, tx: a.tx, ty: a.ty, phase };
                self.report_oob(MemSpace::Shared, None, at, a.store, a.idx, len);
            } else if races || self.unwritten > 0 {
                self.shared_access(a.idx, a.tx, a.ty, a.store, races);
            }
        }
    }

    /// A bulk phase's global records. The buffer table is consulted once
    /// per run instead of once per access, and a store-free phase keeps
    /// only the inter-block history, without entering the phase. (Unlike
    /// the shared batch, no scan for a second thread: global batches with
    /// stores are few, and the scan did not pay for itself.)
    fn global_batch(&mut self, bx: usize, by: usize, phase: usize, batch: &GlobalBatch) {
        let races = batch.stores() > 0;
        if races {
            self.enter(bx, by, phase);
        } else {
            self.enter_block(bx, by);
        }
        for run in batch.runs() {
            let ordinal = self.table.ordinal(run.buf);
            for a in run.accesses() {
                if a.idx >= run.len {
                    let at = AccessPoint { bx, by, tx: a.tx, ty: a.ty, phase };
                    self.report_oob(MemSpace::Global, ordinal, at, a.store, a.idx, run.len);
                } else if let Some(o) = ordinal {
                    self.global_access(o, a.idx, a.tx, a.ty, a.store, races);
                }
            }
        }
    }

    /// Reports an inter-block race of the block in progress with the
    /// earlier block `first`.
    #[cold]
    #[inline(never)]
    fn report_inter_block(
        &mut self,
        ordinal: usize,
        idx: usize,
        write: bool,
        (first, first_kind): (u64, AccessKind),
    ) {
        let name = self.table.name(ordinal).to_owned();
        let block = self.blocks[self.block as usize - 1];
        let first_block = self.blocks[first as usize - 1];
        self.push(Finding::inter_block_race(
            Some(&name),
            idx,
            block,
            kind(write),
            first_block,
            first_kind,
        ));
    }
}

/// Outcome of a monitored launch: every finding, in deterministic order,
/// plus the count of findings dropped past the per-launch cap.
#[derive(Debug)]
pub struct MonitorOutcome {
    /// The findings, in the order they were discovered.
    pub findings: Vec<Finding>,
    /// Findings dropped because the launch hit its reporting cap.
    pub suppressed: usize,
}

/// Owns the shadow state for one kernel launch and dispenses per-block
/// [`MonitorSink`]s to `run_grid_monitored`.
pub struct LaunchMonitor {
    state: Rc<RefCell<MonitorState>>,
}

/// Findings reported per launch before further ones are counted as
/// suppressed — keeps a pathological kernel from flooding the report.
pub const DEFAULT_FINDING_CAP: usize = 64;

impl LaunchMonitor {
    /// A monitor for a launch with `shared_len` doubles of shared memory
    /// per block, tracking the buffers registered in `table`.
    pub fn new(table: BufferTable, shared_len: usize) -> Self {
        Self::with_cap(table, shared_len, DEFAULT_FINDING_CAP)
    }

    /// [`LaunchMonitor::new`] with an explicit reporting cap.
    pub fn with_cap(table: BufferTable, shared_len: usize, cap: usize) -> Self {
        let global = table.entries.iter().map(|e| vec![CellShadow::default(); e.len]).collect();
        let history = table.entries.iter().map(|e| vec![BlockHistory::default(); e.len]).collect();
        LaunchMonitor {
            state: Rc::new(RefCell::new(MonitorState {
                table,
                shared: vec![CellShadow::default(); shared_len],
                global,
                history,
                runs: Runs {
                    phase: None,
                    base: 1,
                    next: 1,
                    thread: NO_THREAD,
                    id: 0,
                    threads: Vec::new(),
                },
                blocks: Vec::new(),
                block: 0,
                block_base: 1,
                unwritten: shared_len,
                uninit: Vec::new(),
                findings: Vec::new(),
                suppressed: 0,
                cap,
            })),
        }
    }

    /// A sink handle for the next block (call [`begin_block`](Self::begin_block) first).
    pub fn sink(&self) -> MonitorSink {
        MonitorSink { state: Rc::clone(&self.state) }
    }

    /// Starts the next block: from here on every shared cell reads as
    /// unwritten and unread, and the uninitialized-read candidates are
    /// dropped. No shadow is touched. Global shadows persist — they are
    /// launch-wide by design.
    pub fn begin_block(&self) {
        let mut st = self.state.borrow_mut();
        st.runs.phase = None;
        st.block = 0;
        st.block_base = st.runs.next;
        st.unwritten = st.shared.len();
        st.uninit.clear();
    }

    /// Finalizes a block: uninitialized-read candidates whose cell was
    /// never written become memcheck findings, and a structured
    /// divergence becomes a synccheck finding.
    pub fn end_block(&self, bx: usize, by: usize, exit: &BlockExit) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let candidates = std::mem::take(&mut st.uninit);
        for (cell, at) in candidates {
            if st.shared[cell].writer() < st.block_base {
                st.push(Finding::uninit_read(cell, at));
            }
        }
        if let BlockExit::Diverged { phase, synced, returned } = exit {
            st.push(Finding::divergence(bx, by, *phase, synced, returned));
        }
    }

    /// Consumes the monitor and returns everything it saw. Panics if a
    /// sink handle is still alive (they are dropped by `collect`).
    pub fn finish(self) -> MonitorOutcome {
        let state = Rc::try_unwrap(self.state)
            .unwrap_or_else(|_| panic!("a MonitorSink outlived the launch"))
            .into_inner();
        MonitorOutcome { findings: state.findings, suppressed: state.suppressed }
    }
}

/// The per-block [`AccessSink`] handle: a shared reference to the
/// launch's shadow state. Never suppresses an in-bounds access (so a
/// clean monitored run is observationally identical to an uninstrumented
/// one); out-of-bounds accesses are reported and vetoed, letting the run
/// continue where the uninstrumented interpreter would panic.
pub struct MonitorSink {
    state: Rc<RefCell<MonitorState>>,
}

impl MonitorSink {
    /// The scalar shared hook: reports and vetoes an out-of-bounds access,
    /// checks an in-bounds one.
    fn shared(&mut self, at: AccessPoint, idx: usize, len: usize, write: bool) -> bool {
        let mut st = self.state.borrow_mut();
        if idx >= len {
            st.report_oob(MemSpace::Shared, None, at, write, idx, len);
            return false;
        }
        st.enter(at.bx, at.by, at.phase);
        st.shared_access(idx, at.tx, at.ty, write, true);
        true
    }

    /// The scalar global hook; accesses to unregistered buffers are only
    /// bounds-checked.
    fn global(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize, write: bool) -> bool {
        let mut st = self.state.borrow_mut();
        let ordinal = st.table.ordinal(buf);
        if idx >= len {
            st.report_oob(MemSpace::Global, ordinal, at, write, idx, len);
            return false;
        }
        if let Some(o) = ordinal {
            st.enter(at.bx, at.by, at.phase);
            st.global_access(o, idx, at.tx, at.ty, write, true);
        }
        true
    }

    /// Everything of [`observe_phase`](AccessSink::observe_phase) but an
    /// in-bounds range alone, kept out of line so that the interpreter's
    /// loop inlines only that check.
    #[inline(never)]
    fn observe_records(
        &mut self,
        bx: usize,
        by: usize,
        phase: usize,
        shared_len: usize,
        trace: &PhaseTrace,
    ) {
        let (shared, global) = (&trace.shared, &trace.global);
        let mut st = self.state.borrow_mut();
        if let Some(range) = shared.load_range().filter(|r| r.cells.end > shared_len) {
            let (tx, ty) = range.last;
            let at = AccessPoint { bx, by, tx, ty, phase };
            st.report_oob(MemSpace::Shared, None, at, false, range.cells.end - 1, shared_len);
        }
        if !shared.is_empty() {
            st.shared_batch(bx, by, phase, shared_len, shared);
        }
        if !global.is_empty() {
            st.global_batch(bx, by, phase, global);
        }
    }
}

impl AccessSink for MonitorSink {
    /// The monitor consumes per-phase bulk records, so kernels with
    /// batched phase bodies run monitored on the batched interpreter —
    /// one `RefCell` borrow per phase instead of one per access.
    const BULK: bool = true;

    /// Loads are wanted until every shared cell of the block is written.
    /// From then on a phase without shared stores can neither race (that
    /// takes a store) nor read an uninitialized cell, so its loads can
    /// fail only the bounds check, which a [`LoadRange`] answers.
    ///
    /// [`LoadRange`]: enprop_gpusim::emulator::LoadRange
    fn wants_shared_loads(&self) -> bool {
        self.state.borrow().unwritten > 0
    }

    fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.shared(at, idx, len, false)
    }

    fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.shared(at, idx, len, true)
    }

    fn global_load(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.global(at, buf, idx, len, false)
    }

    fn global_store(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.global(at, buf, idx, len, true)
    }

    /// The batched counterpart of the four hooks: the same checks in the
    /// same per-record order, under one `RefCell` borrow for the whole
    /// phase. Bulk sinks cannot veto, so an out-of-bounds record is
    /// reported without suppression — batched bodies bounds-check their
    /// own accesses, making a veto unreachable here anyway.
    ///
    /// A [`LoadRange`] comes only after [`wants_shared_loads`] said no,
    /// so only its end is checked; a phase with nothing else to observe
    /// returns without a borrow when that end is in bounds.
    ///
    /// [`LoadRange`]: enprop_gpusim::emulator::LoadRange
    /// [`wants_shared_loads`]: Self::wants_shared_loads
    #[inline]
    fn observe_phase(
        &mut self,
        bx: usize,
        by: usize,
        phase: usize,
        shared_len: usize,
        trace: &PhaseTrace,
    ) {
        let in_bounds = trace.shared.load_range().is_none_or(|r| r.cells.end <= shared_len);
        if !(in_bounds && trace.shared.is_empty() && trace.global.is_empty()) {
            self.observe_records(bx, by, phase, shared_len, trace);
        }
    }
}
