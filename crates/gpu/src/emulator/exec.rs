//! The cooperative barrier-phase block interpreter.
//!
//! CUDA kernels written for this emulator are expressed as an explicit
//! phase state machine: a [`BlockKernel`] carries per-thread state and a
//! [`run_phase`](BlockKernel::run_phase) body holding the code *between*
//! `__syncthreads` boundaries. One host thread executes all threads of a
//! block in lockstep phase order — phase `p` runs for every thread of the
//! block before phase `p + 1` starts — which reproduces the barrier's
//! ordering guarantees exactly, without spawning an OS thread per CUDA
//! thread, without a [`std::sync::Barrier`], and without atomic bit-store
//! memories. Event counts accumulate in plain per-block counters
//! ([`BlockCounters`]) flushed once into the launch-wide
//! [`EventCounters`] at block retirement.
//!
//! # Instrumentation: the [`AccessSink`] seam
//!
//! Every emulated memory access funnels through the four [`PhaseCtx`]
//! accessors, which makes them the natural instrumentation point — the
//! same seam NVIDIA's `compute-sanitizer` exploits by binary-patching
//! loads and stores on real hardware. [`PhaseCtx`] is generic over an
//! [`AccessSink`] that observes each access (with full block/thread/phase
//! attribution) *before* it happens and may veto it; the default
//! [`NoSink`] compiles every hook to an inlined `true`, so the
//! uninstrumented hot path is monomorphized back to exactly the
//! un-instrumented code — zero overhead. `crates/sanitizer` builds its
//! racecheck/memcheck analyses on this trait.
//!
//! The barrier-misuse detection the OS-thread engine got from a real
//! barrier (deadlock) is preserved, but *loudly*: if the threads of a
//! block disagree on whether another phase follows — some return
//! [`PhaseOutcome::Sync`], others [`PhaseOutcome::Done`] — the plain
//! interpreter panics with a diagnostic instead of hanging, while the
//! monitored interpreter ([`run_grid_monitored`]) returns the divergence
//! as a structured [`BlockExit::Diverged`] naming the early-retired
//! threads (the sanitizer's synccheck).
//!
//! Blocks are independent (no inter-block communication in this model),
//! so the grid is executed in parallel *across blocks* by a small worker
//! pool whose width — the "wave" width, analogous to blocks resident
//! across SMs — comes from [`WavePlan`]: the host's parallelism
//! ([`enprop_par::host_parallelism`]), optionally capped by the
//! architecture's occupancy-limited resident-block count, and overridable
//! for tests. The blocks are claimed in chunks through
//! [`enprop_par::for_chunks`], the workspace's one fan-out primitive.
//!
//! The previous engine (one OS thread per CUDA thread) lives on in
//! [`super::legacy`] solely so equivalence tests can assert the two
//! engines produce identical results and event counts.

use super::mem::{BlockCounters, BufId, EventCounters, GlobalMem};
use crate::arch::GpuArch;
use crate::occupancy::Occupancy;

/// A 2-D extent (grid or block dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim2 {
    /// Extent along x.
    pub x: usize,
    /// Extent along y.
    pub y: usize,
}

impl Dim2 {
    /// Creates an extent; both dimensions must be positive.
    pub fn new(x: usize, y: usize) -> Self {
        assert!(x > 0 && y > 0, "dimensions must be positive");
        Self { x, y }
    }

    /// Total elements `x × y`.
    pub fn count(&self) -> usize {
        self.x * self.y
    }
}

/// What a thread did at the end of a phase segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The thread reached a `__syncthreads` — another phase follows.
    Sync,
    /// The thread returned from the kernel.
    Done,
}

/// Full attribution of one emulated memory access: which thread of which
/// block touched memory, and in which barrier phase. Handed to every
/// [`AccessSink`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPoint {
    /// `blockIdx.x`.
    pub bx: usize,
    /// `blockIdx.y`.
    pub by: usize,
    /// `threadIdx.x`.
    pub tx: usize,
    /// `threadIdx.y`.
    pub ty: usize,
    /// The barrier phase the access occurs in.
    pub phase: usize,
}

impl AccessPoint {
    /// The thread coordinate `(tx, ty)`.
    pub fn thread(&self) -> (usize, usize) {
        (self.tx, self.ty)
    }

    /// The block coordinate `(bx, by)`.
    pub fn block(&self) -> (usize, usize) {
        (self.bx, self.by)
    }
}

/// Observer of every memory access a kernel performs — the emulator's
/// `compute-sanitizer` attach point.
///
/// Each hook fires *before* the access with full [`AccessPoint`]
/// attribution plus the index and the allocation length, and returns
/// whether the access should proceed. Returning `false` suppresses it:
/// a suppressed load reads `0.0`, a suppressed store is dropped — which
/// is how the sanitizer's memcheck survives an out-of-bounds access long
/// enough to report it instead of tearing the process down. Event
/// counters are bumped either way, so a sink that never suppresses is
/// observationally transparent.
///
/// The default implementation, [`NoSink`], answers `true` from inlined
/// empty bodies; monomorphization erases it entirely, keeping the
/// uninstrumented interpreter at zero overhead.
pub trait AccessSink {
    /// Whether this sink is statically known to observe nothing — `true`
    /// only for sinks whose hooks are inlined no-ops ([`NoSink`]).
    ///
    /// The interpreter consults this constant (a compile-time branch,
    /// erased by monomorphization) to decide whether a kernel's batched
    /// fast path ([`BlockKernel::run_phase_batch`]) may replace the
    /// per-thread scalar loop: batched bodies perform the same memory
    /// accesses but do not report them one by one, so they are only
    /// admissible when no sink is listening — or when the sink consumes
    /// per-phase bulk records instead ([`AccessSink::BULK`]). Plain
    /// instrumented runs (`INERT = false`, `BULK = false`) always take
    /// the scalar loop and see every access one by one.
    const INERT: bool = false;

    /// Whether this sink consumes per-phase **bulk** access records
    /// ([`observe_phase`](AccessSink::observe_phase)), letting kernels
    /// with batched phase bodies run under monitoring without falling
    /// back to the scalar interpreter.
    ///
    /// A bulk sink observes the same accesses with the same
    /// block/thread/phase attribution, but *after* the phase body ran
    /// rather than before each access — so it cannot veto (suppress) an
    /// access. That is sound for the monitoring use case: batched bodies
    /// bounds-check every access themselves (an overrun panics instead of
    /// proceeding), and kernels whose phases need veto-based survival
    /// (the sanitizer's buggy fixtures) carry no batched bodies, so they
    /// take the scalar hook path regardless of this flag.
    const BULK: bool = false;

    /// A shared-memory load of `idx` (allocation length `len`).
    fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool;

    /// A shared-memory store to `idx` (allocation length `len`).
    fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool;

    /// A global-memory load of `idx` from allocation `buf` (length `len`).
    fn global_load(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool;

    /// A global-memory store to `idx` of allocation `buf` (length `len`).
    fn global_store(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool;

    /// Whether the next batched phase must record its shared loads one by
    /// one. The batched interpreter asks a bulk sink before the batched
    /// phases of a block until it first answers `false`, so the answer
    /// may go from `true` to `false` within a block but not back; the
    /// kernel reads it through [`BatchCtx::shared_loads_wanted`].
    ///
    /// On `false`, a phase without shared stores may report its loads as
    /// one [`LoadRange`] (every load lies in it) instead of one record
    /// each. Answer `false` only when such a phase can fail no check but
    /// the bounds check. The race monitor does so once every shared cell
    /// of the block has been written: a race needs a store in the phase,
    /// and an uninitialized read needs an unwritten cell. Phases with
    /// shared stores, and every access of a sink that is not
    /// [`BULK`](AccessSink::BULK) (which takes the scalar hooks), are
    /// reported access by access whatever the answer. The default asks
    /// for every load.
    #[inline(always)]
    fn wants_shared_loads(&self) -> bool {
        true
    }

    /// Consumes one batched phase's access trace (block `(bx, by)`,
    /// barrier phase `phase`, shared allocation length `shared_len`):
    /// called once per batched phase that made any access.
    ///
    /// Shared records arrive in scalar program order per thread, threads
    /// in row-major order — the same per-cell access order the scalar
    /// loop would have reported. Global records come in per-buffer runs
    /// (each run names the allocation and its length), each run in that
    /// same order; per-buffer shadow state is independent, so regrouping
    /// by buffer is unobservable. The call carries one **whole** phase:
    /// no other access of that block and phase reaches the sink, before
    /// or after, so a sink may conclude from the trace alone that a phase
    /// without stores to a memory, or with one thread accessing it, has
    /// no race on it.
    ///
    /// A phase without shared stores may carry its shared loads as one
    /// [`LoadRange`] instead of records, but only when the sink answered
    /// `false` to [`wants_shared_loads`](AccessSink::wants_shared_loads)
    /// before the phase ran; the interpreter asserts both conditions.
    ///
    /// The default implementation replays every record through the
    /// scalar hooks, shared records first (veto answers are ignored; see
    /// [`AccessSink::BULK`]). It never sees a range, because the default
    /// `wants_shared_loads` asks for every load.
    fn observe_phase(
        &mut self,
        bx: usize,
        by: usize,
        phase: usize,
        shared_len: usize,
        trace: &PhaseTrace,
    ) {
        debug_assert!(trace.shared.load_range().is_none(), "a range needs a sink that handles it");
        for a in trace.shared.iter() {
            let at = AccessPoint { bx, by, tx: a.tx, ty: a.ty, phase };
            if a.store {
                self.shared_store(at, a.idx, shared_len);
            } else {
                self.shared_load(at, a.idx, shared_len);
            }
        }
        for run in trace.global.runs() {
            for a in run.accesses() {
                let at = AccessPoint { bx, by, tx: a.tx, ty: a.ty, phase };
                if a.store {
                    self.global_store(at, run.buf, a.idx, run.len);
                } else {
                    self.global_load(at, run.buf, a.idx, run.len);
                }
            }
        }
    }
}

/// One decoded access record from a [`SharedBatch`] or [`GlobalBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAccess {
    /// `threadIdx.x` of the accessing thread.
    pub tx: usize,
    /// `threadIdx.y` of the accessing thread.
    pub ty: usize,
    /// The accessed cell index.
    pub idx: usize,
    /// `true` for a store, `false` for a load.
    pub store: bool,
}

/// Packs one access into a 64-bit word: bit 0 = store flag, bits 1..32 =
/// cell index, bits 32..48 = tx, bits 48..64 = ty. The ranges comfortably
/// cover every kernel in this tree (shared regions are KiB-scale, block
/// dimensions are bounded by the architecture's 1024-thread block limit);
/// emission debug-asserts the bounds.
#[inline(always)]
fn encode_access(tx: usize, ty: usize, idx: usize, store: bool) -> u64 {
    debug_assert!(idx < (1 << 31), "batch access index {idx} exceeds the 31-bit record field");
    debug_assert!(tx < (1 << 16) && ty < (1 << 16), "thread ({tx}, {ty}) exceeds 16-bit fields");
    store as u64 | ((idx as u64) << 1) | ((tx as u64) << 32) | ((ty as u64) << 48)
}

#[inline(always)]
fn decode_access(word: u64) -> BatchAccess {
    BatchAccess {
        tx: ((word >> 32) & 0xffff) as usize,
        ty: (word >> 48) as usize,
        idx: ((word >> 1) & 0x7fff_ffff) as usize,
        store: word & 1 != 0,
    }
}

/// The shared-memory access records of one batched phase, packed one
/// access per 64-bit word (see [`BatchAccess`] for the decoded view).
/// Batched phase bodies append records in scalar program order per
/// thread, threads row-major — the order the scalar loop reports.
///
/// The batch also counts its stores as they are pushed, so a sink tells a
/// store-free phase in O(1). Records are only pushed under a bulk sink, so
/// the uninstrumented path never pays for the count.
///
/// A phase without shared stores may instead carry its loads as one
/// [`LoadRange`], when the sink does not want them one by one (see
/// [`AccessSink::wants_shared_loads`]).
#[derive(Debug, Default)]
pub struct SharedBatch {
    words: Vec<u64>,
    stores: usize,
    range: Option<LoadRange>,
}

/// The shared loads of a phase without shared stores, as one index range
/// instead of one record per load: every load of the phase reads a cell
/// in `cells`.
///
/// For an allocation of `len` cells, a range with `cells.end <= len` has
/// every load in bounds. Past that, the race monitor reports one
/// out-of-bounds load of cell `cells.end − 1` by thread `last`, where the
/// records would have given one finding per out-of-range load: a range
/// proves a phase in bounds or names one witness. The batched bodies
/// index their shared slice, which panics past its end, so for them the
/// check guards the trace itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadRange {
    /// The loaded cells lie in this range.
    pub cells: std::ops::Range<usize>,
    /// `(tx, ty)` of the first thread, in record order, that loads cell
    /// `cells.end − 1`.
    pub last: (usize, usize),
}

impl SharedBatch {
    /// Reports the phase's shared loads as `range` instead of records. Only
    /// for a phase without shared stores, under a sink that does not want
    /// its loads ([`BatchCtx::shared_loads_wanted`]).
    pub fn set_load_range(&mut self, range: LoadRange) {
        self.range = Some(range);
    }

    /// The loads carried as one range, if any.
    #[inline]
    pub fn load_range(&self) -> Option<&LoadRange> {
        self.range.as_ref()
    }

    /// Appends a load record for thread `(tx, ty)` at cell `idx`.
    #[inline(always)]
    pub fn push_load(&mut self, tx: usize, ty: usize, idx: usize) {
        self.words.push(encode_access(tx, ty, idx, false));
    }

    /// Appends a store record for thread `(tx, ty)` at cell `idx`.
    #[inline(always)]
    pub fn push_store(&mut self, tx: usize, ty: usize, idx: usize) {
        self.words.push(encode_access(tx, ty, idx, true));
        self.stores += 1;
    }

    /// Number of access records (a load range counts none).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Number of recorded stores.
    #[inline]
    pub fn stores(&self) -> usize {
        self.stores
    }

    /// Whether one thread made every recorded access (`true` when there
    /// is none): with no other thread, the phase cannot race on shared
    /// memory. Compares the records' packed thread fields, undecoded.
    #[inline]
    pub fn one_thread(&self) -> bool {
        // The thread sits in bits 32..64 of a record word.
        let thread = |w: &u64| w >> 32;
        self.words
            .first()
            .map(thread)
            .is_none_or(|first| self.words.iter().all(|w| thread(w) == first))
    }

    /// One past the largest recorded cell index (`0` when empty): every
    /// record is in bounds of an allocation at least this long.
    ///
    /// A branch-free scan with independent lanes, which compiles to vector
    /// code. Keeping a running maximum in `push_*` instead chains every
    /// push through memory, which costs more than this scan.
    #[inline]
    pub fn index_end(&self) -> usize {
        if self.words.is_empty() {
            return 0;
        }
        // The index sits in bits 1..32 of a record word.
        let index = |w: u64| (w as u32) >> 1;
        let mut lanes = [0u32; 8];
        let mut chunks = self.words.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (lane, &w) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane).max(index(w));
            }
        }
        let tail = chunks.remainder().iter().map(|&w| index(w));
        lanes.into_iter().chain(tail).max().map_or(0, |max| max as usize + 1)
    }

    /// True when no access was recorded (a load range is not a record).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Drops all records and the range, keeping the allocation for the
    /// next phase.
    pub fn clear(&mut self) {
        self.words.clear();
        self.stores = 0;
        self.range = None;
    }

    /// Pre-sizes the record buffer for a phase of `n` accesses.
    pub fn reserve(&mut self, n: usize) {
        self.words.reserve(n);
    }

    /// Decoded records in emission order.
    pub fn iter(&self) -> impl Iterator<Item = BatchAccess> + '_ {
        self.words.iter().map(|&w| decode_access(w))
    }
}

/// The global-memory access records of one batched phase, grouped into
/// per-buffer runs. A batched body opens a run with
/// [`begin_run`](GlobalBatch::begin_run) and appends that buffer's
/// records; per-buffer shadow state is independent, so emitting one
/// buffer's accesses before another's is unobservable to the checkers
/// even where the scalar loop interleaved them. Like [`SharedBatch`], it
/// counts its stores as they are pushed.
#[derive(Debug, Default)]
pub struct GlobalBatch {
    /// `(buffer, allocation length, starting word offset)` per run; a
    /// run's records end where the next run starts (or at `words.len()`).
    runs: Vec<(BufId, usize, usize)>,
    words: Vec<u64>,
    stores: usize,
}

/// One per-buffer run of records inside a [`GlobalBatch`].
#[derive(Debug, Clone, Copy)]
pub struct GlobalRun<'a> {
    /// The accessed allocation.
    pub buf: BufId,
    /// The allocation's length in doubles.
    pub len: usize,
    words: &'a [u64],
}

impl GlobalRun<'_> {
    /// Decoded records of this run in emission order.
    pub fn accesses(&self) -> impl Iterator<Item = BatchAccess> + '_ {
        self.words.iter().map(|&w| decode_access(w))
    }
}

impl GlobalBatch {
    /// Starts a run of records against `buf` (allocation length `len`).
    #[inline]
    pub fn begin_run(&mut self, buf: BufId, len: usize) {
        self.runs.push((buf, len, self.words.len()));
    }

    /// Appends a load record for thread `(tx, ty)` at cell `idx` of the
    /// current run's buffer.
    #[inline(always)]
    pub fn push_load(&mut self, tx: usize, ty: usize, idx: usize) {
        debug_assert!(!self.runs.is_empty(), "global batch record before begin_run");
        self.words.push(encode_access(tx, ty, idx, false));
    }

    /// Appends a store record for thread `(tx, ty)` at cell `idx` of the
    /// current run's buffer.
    #[inline(always)]
    pub fn push_store(&mut self, tx: usize, ty: usize, idx: usize) {
        debug_assert!(!self.runs.is_empty(), "global batch record before begin_run");
        self.words.push(encode_access(tx, ty, idx, true));
        self.stores += 1;
    }

    /// Number of recorded accesses across all runs.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Number of recorded stores across all runs.
    #[inline]
    pub fn stores(&self) -> usize {
        self.stores
    }

    /// True when no access was recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Drops all records and runs, keeping the allocations.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.words.clear();
        self.stores = 0;
    }

    /// Pre-sizes the record buffer for a phase of `n` accesses.
    pub fn reserve(&mut self, n: usize) {
        self.words.reserve(n);
    }

    /// The per-buffer runs in emission order.
    pub fn runs(&self) -> impl Iterator<Item = GlobalRun<'_>> + '_ {
        (0..self.runs.len()).map(move |i| {
            let (buf, len, start) = self.runs[i];
            let end = self.runs.get(i + 1).map_or(self.words.len(), |&(_, _, s)| s);
            GlobalRun { buf, len, words: &self.words[start..end] }
        })
    }
}

/// The access trace of one batched phase: everything a bulk sink needs to
/// reconstruct what the scalar loop would have reported.
#[derive(Debug, Default)]
pub struct PhaseTrace {
    /// Shared-memory records.
    pub shared: SharedBatch,
    /// Global-memory records, grouped per buffer.
    pub global: GlobalBatch,
}

impl PhaseTrace {
    /// Drops all records, keeping allocations for the next phase.
    pub fn clear(&mut self) {
        self.shared.clear();
        self.global.clear();
    }

    /// True when the phase made no access to either memory: no record
    /// and no load range.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty() && self.shared.range.is_none() && self.global.is_empty()
    }
}

/// The inert sink: every hook is an inlined `true`, so the compiler
/// erases the instrumentation from the uninstrumented path entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSink;

impl AccessSink for NoSink {
    const INERT: bool = true;

    #[inline(always)]
    fn shared_load(&mut self, _at: AccessPoint, _idx: usize, _len: usize) -> bool {
        true
    }

    #[inline(always)]
    fn shared_store(&mut self, _at: AccessPoint, _idx: usize, _len: usize) -> bool {
        true
    }

    #[inline(always)]
    fn global_load(&mut self, _at: AccessPoint, _buf: BufId, _idx: usize, _len: usize) -> bool {
        true
    }

    #[inline(always)]
    fn global_store(&mut self, _at: AccessPoint, _buf: BufId, _idx: usize, _len: usize) -> bool {
        true
    }
}

/// Pins any sink to the per-thread scalar loop by masking its bulk
/// capability: `INERT` and `BULK` both stay `false` whatever the wrapped
/// sink declares, so every access flows through the scalar hooks one by
/// one. `ForceScalar<NoSink>` runs exactly the pre-batching interpreter
/// ([`run_grid_unbatched`]); around a monitor's sink it is the oracle for
/// monitored batch equivalence, in tests and in `bench-json`'s
/// findings-identity check.
#[derive(Debug, Default)]
#[must_use]
pub struct ForceScalar<S>(pub S);

impl<S: AccessSink> AccessSink for ForceScalar<S> {
    #[inline(always)]
    fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.0.shared_load(at, idx, len)
    }

    #[inline(always)]
    fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
        self.0.shared_store(at, idx, len)
    }

    #[inline(always)]
    fn global_load(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.0.global_load(at, buf, idx, len)
    }

    #[inline(always)]
    fn global_store(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
        self.0.global_store(at, buf, idx, len)
    }
}

/// How a block's execution ended under the monitored interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockExit {
    /// Every thread returned from the kernel in the same phase.
    Retired,
    /// Barrier divergence: in `phase`, the `synced` threads reached
    /// `__syncthreads` while the `returned` threads exited the kernel —
    /// on real hardware the block would deadlock. The monitored
    /// interpreter stops the block here (no further phase can run) and
    /// reports both sides.
    Diverged {
        /// The phase in which the threads disagreed.
        phase: usize,
        /// Threads `(tx, ty)` that reached the barrier.
        synced: Vec<(usize, usize)>,
        /// Threads `(tx, ty)` that retired early.
        returned: Vec<(usize, usize)>,
    },
}

/// A kernel expressed as barrier-delimited phases over per-thread state.
///
/// [`run_phase`](BlockKernel::run_phase) holds the straight-line code of
/// one segment between `__syncthreads` boundaries (loops whose body spans
/// a barrier become state-machine steps, with induction variables stored
/// in [`State`](BlockKernel::State)). Every thread of a block must return
/// the same [`PhaseOutcome`] from a given phase — the CUDA requirement
/// that `__syncthreads` is reached uniformly — and the interpreter
/// enforces it.
///
/// `run_phase` is generic over the [`AccessSink`] so the same kernel body
/// runs uninstrumented ([`NoSink`], zero overhead) or under the sanitizer
/// without duplication.
pub trait BlockKernel: Sync {
    /// Per-thread state carried across phases (registers + the program
    /// counter of the implicit coroutine).
    type State: Send;

    /// Block dimensions (`blockDim`).
    fn block(&self) -> Dim2;

    /// Doubles of per-block shared memory.
    fn shared_len(&self) -> usize;

    /// Builds the state of thread `(tx, ty)` of block `(bx, by)`.
    fn init(&self, bx: usize, by: usize, tx: usize, ty: usize) -> Self::State;

    /// Executes phase `phase` for one thread.
    fn run_phase<S: AccessSink>(
        &self,
        phase: usize,
        state: &mut Self::State,
        ctx: &mut PhaseCtx<'_, S>,
    ) -> PhaseOutcome;

    /// Optional batched fast path: executes `phase` for **every** thread
    /// of the block in one call, over the structure-of-arrays view the
    /// interpreter maintains (`states` in row-major thread order,
    /// contiguous shared memory, bulk event counters in [`BatchCtx`]).
    ///
    /// Returning `None` (the default) makes the interpreter fall back to
    /// looping the scalar [`run_phase`](BlockKernel::run_phase) over the
    /// threads, so existing kernels keep working unchanged. A kernel that
    /// returns `Some(outcome)` asserts that every thread of the block
    /// finished the phase with that same outcome — which is the CUDA
    /// uniformity requirement anyway; a kernel whose threads can diverge
    /// must answer `None` for the divergent phase so the scalar loop can
    /// report the divergence per thread.
    ///
    /// # Contract (checked by the batch-equivalence suite)
    ///
    /// The batched body must be observationally identical to the scalar
    /// loop: same memory contents bit for bit (each thread's arithmetic
    /// in the same order — reassociating a per-thread accumulation is a
    /// contract violation), and the same event-counter totals. Per-access
    /// ordering between *different* threads may differ, which is
    /// unobservable for a race-free phase. The hook runs when no
    /// [`AccessSink`] is attached ([`AccessSink::INERT`]) **or** when the
    /// attached sink consumes bulk records ([`AccessSink::BULK`]); plain
    /// per-access sinks take the scalar loop, so their veto semantics are
    /// untouched.
    ///
    /// When the interpreter demands an access trace
    /// ([`BatchCtx::tracing`] is `true` — a bulk sink is attached), the
    /// body must either record **every** shared and global access of the
    /// phase into [`BatchCtx::trace`] with exact thread/index/kind
    /// attribution, or return `None` for that phase so the scalar loop
    /// reports the accesses itself. Silently computing without emitting
    /// the trace would blind the sanitizer. The one exception: when
    /// [`BatchCtx::shared_loads_wanted`] is `false`, a phase without
    /// shared stores may give its shared loads as one [`LoadRange`].
    fn run_phase_batch(
        &self,
        phase: usize,
        states: &mut [Self::State],
        ctx: &mut BatchCtx<'_>,
    ) -> Option<PhaseOutcome> {
        let _ = (phase, states, ctx);
        None
    }
}

/// Block-wide execution context of one batched phase: the whole block's
/// shared memory and event counters, without the per-thread bookkeeping
/// of [`PhaseCtx`].
///
/// A batched kernel body addresses shared memory directly as a contiguous
/// slice ([`shared`](BatchCtx::shared)), reaches global memory through
/// [`GlobalMem`]'s bounds-checked accessors, which count nothing, and
/// adds its event counts in bulk ([`counters`](BatchCtx::counters)) — one
/// add per phase instead of one per access. The totals must match what
/// the scalar loop would have counted; the batch-equivalence suite
/// enforces it.
#[must_use]
pub struct BatchCtx<'a> {
    /// This block's `blockIdx.x`.
    pub bx: usize,
    /// This block's `blockIdx.y`.
    pub by: usize,
    /// The barrier phase being executed.
    pub phase: usize,
    shared: &'a mut [f64],
    counts: &'a mut BlockCounters,
    /// Present when a bulk sink is attached: the body must record every
    /// access of the phase here (see [`BlockKernel::run_phase_batch`]).
    trace: Option<&'a mut PhaseTrace>,
    /// The sink's [`AccessSink::wants_shared_loads`] answer for this phase.
    shared_loads: bool,
}

impl BatchCtx<'_> {
    /// The block's shared memory as one contiguous slice.
    #[inline]
    pub fn shared(&mut self) -> &mut [f64] {
        self.shared
    }

    /// Whether the interpreter demands an access trace for this phase —
    /// `true` exactly when a bulk sink ([`AccessSink::BULK`]) is
    /// attached. A body that cannot trace a phase must return `None`
    /// when this is `true`.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The phase's access-record buffers, when tracing is demanded.
    #[inline]
    pub fn trace(&mut self) -> Option<&mut PhaseTrace> {
        self.trace.as_deref_mut()
    }

    /// Whether the sink wants this phase's shared loads as records. When
    /// `false`, a phase without shared stores may report its loads as one
    /// [`LoadRange`] ([`SharedBatch::set_load_range`]) instead; see
    /// [`AccessSink::wants_shared_loads`].
    #[inline]
    pub fn shared_loads_wanted(&self) -> bool {
        self.shared_loads
    }

    /// The block's event counters, for bulk accounting. The batched body
    /// is responsible for adding exactly what the scalar loop would have
    /// counted (flops, shared/global loads and stores).
    #[inline]
    pub fn counters(&mut self) -> &mut BlockCounters {
        self.counts
    }
}

/// Per-thread view of a block's execution context during one phase: the
/// thread/block coordinates plus shared memory, global memory access and
/// event accounting. The emulator's equivalent of `threadIdx`/`blockIdx`
/// and the device intrinsics, minus `__syncthreads` — which is implicit
/// in returning [`PhaseOutcome::Sync`].
///
/// Generic over the attached [`AccessSink`]; the default [`NoSink`] keeps
/// the accessors identical to uninstrumented code after inlining.
pub struct PhaseCtx<'a, S: AccessSink = NoSink> {
    /// This thread's `threadIdx.x`.
    pub tx: usize,
    /// This thread's `threadIdx.y`.
    pub ty: usize,
    /// This block's `blockIdx.x`.
    pub bx: usize,
    /// This block's `blockIdx.y`.
    pub by: usize,
    /// The barrier phase being executed.
    pub phase: usize,
    shared: &'a mut [f64],
    counts: &'a mut BlockCounters,
    sink: &'a mut S,
}

impl<S: AccessSink> PhaseCtx<'_, S> {
    /// This access's full attribution.
    #[inline]
    fn point(&self) -> AccessPoint {
        AccessPoint { bx: self.bx, by: self.by, tx: self.tx, ty: self.ty, phase: self.phase }
    }

    /// Panics with full attribution on an out-of-bounds access that no
    /// sink suppressed.
    #[cold]
    #[inline(never)]
    fn oob(&self, kind: &str, op: &str, idx: usize, len: usize) -> ! {
        panic!(
            "{kind} memory {op} out of bounds: index {idx} >= len {len} \
             at block ({}, {}) thread ({}, {}) phase {}",
            self.bx, self.by, self.tx, self.ty, self.phase
        )
    }

    /// Shared-memory load with event accounting.
    #[inline]
    pub fn shared_load(&mut self, idx: usize) -> f64 {
        self.counts.shared_loads += 1;
        let (at, len) = (self.point(), self.shared.len());
        if self.sink.shared_load(at, idx, len) {
            match self.shared.get(idx) {
                Some(v) => *v,
                None => self.oob("shared", "load", idx, len),
            }
        } else {
            0.0
        }
    }

    /// Shared-memory store with event accounting.
    #[inline]
    pub fn shared_store(&mut self, idx: usize, v: f64) {
        self.counts.shared_stores += 1;
        let (at, len) = (self.point(), self.shared.len());
        if self.sink.shared_store(at, idx, len) {
            match self.shared.get_mut(idx) {
                Some(cell) => *cell = v,
                None => self.oob("shared", "store", idx, len),
            }
        }
    }

    /// Global-memory load with event accounting.
    #[inline]
    pub fn global_load(&mut self, mem: &GlobalMem, idx: usize) -> f64 {
        self.counts.global_loads += 1;
        let (at, len) = (self.point(), mem.len());
        if self.sink.global_load(at, mem.id(), idx, len) {
            if idx < len {
                mem.load(idx)
            } else {
                self.oob("global", "load", idx, len)
            }
        } else {
            0.0
        }
    }

    /// Global-memory store with event accounting.
    #[inline]
    pub fn global_store(&mut self, mem: &GlobalMem, idx: usize, v: f64) {
        self.counts.global_stores += 1;
        let (at, len) = (self.point(), mem.len());
        if self.sink.global_store(at, mem.id(), idx, len) {
            if idx < len {
                mem.store(idx, v);
            } else {
                self.oob("global", "store", idx, len)
            }
        }
    }

    /// Records `n` double-precision flops.
    #[inline]
    pub fn count_flops(&mut self, n: u64) {
        self.counts.flops += n;
    }
}

/// The number of thread blocks a launch executes concurrently.
///
/// Replaces the old hardcoded `WAVE_WIDTH = 4`: the width is derived from
/// the host's parallelism ([`enprop_par::host_parallelism`]) — there is no
/// point in more workers than cores — optionally capped by the modeled
/// device's occupancy (the number of blocks that can actually be resident
/// across its SMs), and overridable for tests via [`WavePlan::fixed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavePlan {
    width: usize,
}

impl WavePlan {
    /// A fixed wave width (clamped to at least 1) — the test override.
    pub fn fixed(width: usize) -> Self {
        Self { width: width.max(1) }
    }

    /// Width from host parallelism alone (no architecture bound).
    pub fn auto() -> Self {
        Self::fixed(enprop_par::host_parallelism())
    }

    /// Width from host parallelism capped by `arch`'s occupancy-limited
    /// resident blocks (`blocks_per_sm × num_sms`) for a kernel with
    /// `threads_per_block` threads and `shared_bytes` of shared memory
    /// per block. Falls back to 1 when the kernel cannot launch on the
    /// architecture at all.
    pub fn for_arch(arch: &GpuArch, threads_per_block: usize, shared_bytes: usize) -> Self {
        let resident = Occupancy::compute(arch, threads_per_block, shared_bytes)
            .map(|o| o.blocks_per_sm * arch.num_sms)
            .unwrap_or(1);
        Self::fixed(enprop_par::host_parallelism().min(resident))
    }

    /// The wave width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Default for WavePlan {
    fn default() -> Self {
        Self::auto()
    }
}

/// The buffers a block runs in, allocated once per launch (monitored) or
/// per claimed band of blocks (block waves) and reset for each block:
/// shared memory, the threads' states, their outcomes in the current
/// phase, and the access-record buffers a bulk sink reads. At BS = 1 a
/// block is a few hundred nanoseconds of work, so allocating these per
/// block cost as much as some of its phases.
struct BlockScratch<K: BlockKernel> {
    shared: Vec<f64>,
    states: Vec<K::State>,
    /// Per-thread outcomes of the current phase, kept so a divergence can
    /// name exactly which threads retired early (one byte write per thread
    /// per phase — noise next to the phase body itself).
    outcomes: Vec<PhaseOutcome>,
    /// Written only under a bulk sink.
    trace: PhaseTrace,
}

impl<K: BlockKernel> BlockScratch<K> {
    fn new(kernel: &K) -> Self {
        let threads = kernel.block().count();
        Self {
            shared: vec![0.0; kernel.shared_len()],
            states: Vec::with_capacity(threads),
            outcomes: vec![PhaseOutcome::Done; threads],
            trace: PhaseTrace::default(),
        }
    }
}

/// Executes one block to retirement (or divergence) on the calling
/// thread in `scratch`, reporting every access to `sink`, and flushes its
/// event counts. The shared engine under both the plain and the monitored
/// interpreters; with [`NoSink`] it monomorphizes to the uninstrumented
/// hot path.
fn exec_block<K: BlockKernel, S: AccessSink>(
    kernel: &K,
    bx: usize,
    by: usize,
    events: &EventCounters,
    sink: &mut S,
    scratch: &mut BlockScratch<K>,
) -> BlockExit {
    let block = kernel.block();
    let threads = block.count();
    let BlockScratch { shared, states, outcomes, trace } = scratch;
    // Shared memory starts zeroed in every block, as a fresh allocation
    // would; states are rebuilt, outcomes are written before being read.
    shared.fill(0.0);
    states.clear();
    for ty in 0..block.y {
        for tx in 0..block.x {
            states.push(kernel.init(bx, by, tx, ty));
        }
    }
    let mut counts = BlockCounters::default();
    // A bulk sink's `wants_shared_loads`, asked until it first says no.
    let mut shared_loads = true;
    let mut phase = 0usize;
    let exit = loop {
        // Batched fast path: when no sink is listening, or when the sink
        // consumes per-phase bulk records (both compile-time branches —
        // `S::INERT` / `S::BULK` are associated consts, so the dead arms
        // are erased by monomorphization) and the kernel carries a
        // batched body for this phase. A batched phase is uniform by
        // contract, so divergence bookkeeping is skipped entirely.
        if S::INERT || S::BULK {
            if S::BULK {
                shared_loads = shared_loads && sink.wants_shared_loads();
                trace.clear();
            }
            let batched = {
                let mut bctx = BatchCtx {
                    bx,
                    by,
                    phase,
                    shared,
                    counts: &mut counts,
                    trace: if S::BULK { Some(&mut *trace) } else { None },
                    shared_loads,
                };
                kernel.run_phase_batch(phase, states, &mut bctx)
            };
            if let Some(outcome) = batched {
                if S::BULK {
                    // The trace holds every access of the phase, and this
                    // is the phase's only call: sinks rely on both (see
                    // `AccessSink::observe_phase`).
                    let t = &*trace;
                    assert!(
                        t.shared.load_range().is_none() || !shared_loads && t.shared.stores() == 0,
                        "a load range stands only for a store-free phase whose loads \
                         the sink does not want"
                    );
                    if !t.is_empty() {
                        sink.observe_phase(bx, by, phase, shared.len(), t);
                    }
                }
                if outcome == PhaseOutcome::Done {
                    break BlockExit::Retired;
                }
                counts.barriers += 1;
                phase += 1;
                continue;
            }
        }
        let mut syncs = 0usize;
        for ty in 0..block.y {
            for tx in 0..block.x {
                let mut ctx = PhaseCtx {
                    tx,
                    ty,
                    bx,
                    by,
                    phase,
                    shared,
                    counts: &mut counts,
                    sink: &mut *sink,
                };
                let state = &mut states[ty * block.x + tx];
                let outcome = kernel.run_phase(phase, state, &mut ctx);
                outcomes[ty * block.x + tx] = outcome;
                if outcome == PhaseOutcome::Sync {
                    syncs += 1;
                }
            }
        }
        if syncs == 0 {
            break BlockExit::Retired; // every thread returned from the kernel
        }
        if syncs != threads {
            let coords = |want: PhaseOutcome| {
                (0..block.y)
                    .flat_map(|ty| (0..block.x).map(move |tx| (tx, ty)))
                    .filter(|&(tx, ty)| outcomes[ty * block.x + tx] == want)
                    .collect::<Vec<_>>()
            };
            break BlockExit::Diverged {
                phase,
                synced: coords(PhaseOutcome::Sync),
                returned: coords(PhaseOutcome::Done),
            };
        }
        counts.barriers += 1;
        phase += 1;
    };
    counts.flush_into(events);
    exit
}

/// The shared engine behind [`run_grid`] and [`run_grid_unbatched`]: the
/// sink type selects (at compile time, via [`AccessSink::INERT`]) whether
/// kernels may take their batched fast path. Each block runs under a fresh
/// default-constructed sink and panics on barrier divergence (the plain
/// interpreter's contract).
fn run_grid_with<K: BlockKernel, S: AccessSink + Default>(
    grid: Dim2,
    kernel: &K,
    events: &EventCounters,
    plan: WavePlan,
) {
    // Chunked claiming: blocks of one launch cost about the same, so
    // amortize claims over runs of blocks, and one scratch over each run.
    let mut blocks: Vec<(usize, usize)> =
        (0..grid.y).flat_map(|by| (0..grid.x).map(move |bx| (bx, by))).collect();
    enprop_par::for_chunks(&mut blocks, 1, plan.width(), |_, run| {
        let mut scratch = BlockScratch::new(kernel);
        for &(bx, by) in &*run {
            let exit = exec_block(kernel, bx, by, events, &mut S::default(), &mut scratch);
            if let BlockExit::Diverged { phase, synced, returned } = exit {
                panic!(
                    "__syncthreads divergence: at phase {phase} of block ({bx}, {by}), \
                     {} of {} threads reached the barrier while the rest \
                     returned — this kernel would deadlock on real hardware",
                    synced.len(),
                    synced.len() + returned.len()
                );
            }
        }
    });
}

/// Runs `kernel` over `grid` blocks with `plan.width()` blocks in flight.
///
/// Blocks are claimed in chunks ([`enprop_par::for_chunks`]), each
/// executed to retirement by one worker; because blocks are independent
/// and their event totals are summed commutatively, any schedule produces
/// identical memory contents and counts. Kernels that implement
/// [`BlockKernel::run_phase_batch`] execute each phase as one batched
/// call across all threads of the block.
pub fn run_grid<K: BlockKernel>(grid: Dim2, kernel: &K, events: &EventCounters, plan: WavePlan) {
    run_grid_with::<K, NoSink>(grid, kernel, events, plan)
}

/// [`run_grid`] with the batched fast path disabled: every phase runs the
/// per-thread scalar loop, exactly as before batching existed. The
/// baseline of the batched-vs-scalar benchmark and the oracle of the
/// batch-equivalence suite; results and event counts are bitwise-identical
/// to [`run_grid`] by contract.
pub fn run_grid_unbatched<K: BlockKernel>(
    grid: Dim2,
    kernel: &K,
    events: &EventCounters,
    plan: WavePlan,
) {
    run_grid_with::<K, ForceScalar<NoSink>>(grid, kernel, events, plan)
}

/// Runs `kernel` over `grid` under instrumentation: each block gets a
/// fresh sink from `make_sink(bx, by)`, executes to retirement *or*
/// structured divergence ([`BlockExit`]), and hands the sink back through
/// `collect`.
///
/// Blocks run serially in row-major order on the calling thread, so the
/// access stream each sink observes — and therefore every diagnostic the
/// sanitizer derives from it — is deterministic. Sanitized runs trade the
/// block-wave parallelism for reproducible reports; the uninstrumented
/// path through [`run_grid`] is untouched.
pub fn run_grid_monitored<K, S, MF, CF>(
    grid: Dim2,
    kernel: &K,
    events: &EventCounters,
    mut make_sink: MF,
    mut collect: CF,
) where
    K: BlockKernel,
    S: AccessSink,
    MF: FnMut(usize, usize) -> S,
    CF: FnMut(usize, usize, S, BlockExit),
{
    let mut scratch = BlockScratch::new(kernel);
    for by in 0..grid.y {
        for bx in 0..grid.x {
            let mut sink = make_sink(bx, by);
            let exit = exec_block(kernel, bx, by, events, &mut sink, &mut scratch);
            collect(bx, by, sink, exit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially phase-structured kernel for engine tests: phase 0
    /// writes each thread's slot, phase 1 reads the neighbour's.
    struct NeighbourRead<'a> {
        out: &'a GlobalMem,
        width: usize,
    }

    impl BlockKernel for NeighbourRead<'_> {
        type State = ();

        fn block(&self) -> Dim2 {
            Dim2::new(self.width, 1)
        }

        fn shared_len(&self) -> usize {
            self.width
        }

        fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

        fn run_phase<S: AccessSink>(
            &self,
            phase: usize,
            _state: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            match phase {
                0 => {
                    ctx.shared_store(ctx.tx, ctx.tx as f64 + 1.0);
                    PhaseOutcome::Sync
                }
                1 => {
                    let neighbour = (ctx.tx + 1) % self.width;
                    let v = ctx.shared_load(neighbour);
                    ctx.global_store(self.out, ctx.tx, v);
                    PhaseOutcome::Done
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn phase_order_replaces_the_barrier() {
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(8);
        let k = NeighbourRead { out: &out, width: 8 };
        run_grid(Dim2::new(1, 1), &k, &events, WavePlan::fixed(1));
        let expect: Vec<f64> = (0..8).map(|i| ((i + 1) % 8) as f64 + 1.0).collect();
        assert_eq!(out.to_vec(), expect);
        // One barrier (the phase-0 → phase-1 boundary), counted per block.
        assert_eq!(events.snapshot().barriers, 1);
    }

    /// Each thread stores 1.0 at its global slot; used for grid coverage
    /// and wave-width invariance.
    struct MarkAll<'a> {
        out: &'a GlobalMem,
        grid: Dim2,
        block: Dim2,
    }

    impl BlockKernel for MarkAll<'_> {
        type State = ();

        fn block(&self) -> Dim2 {
            self.block
        }

        fn shared_len(&self) -> usize {
            0
        }

        fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

        fn run_phase<S: AccessSink>(
            &self,
            _p: usize,
            _s: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            let block_id = ctx.by * self.grid.x + ctx.bx;
            let thread_id = ctx.ty * self.block.x + ctx.tx;
            ctx.global_store(self.out, block_id * self.block.count() + thread_id, 1.0);
            PhaseOutcome::Done
        }
    }

    #[test]
    fn every_thread_runs_once_at_any_wave_width() {
        for wave in [1usize, 2, 3, 16] {
            let events = EventCounters::new();
            let out = GlobalMem::zeroed(4 * 9);
            let k = MarkAll { out: &out, grid: Dim2::new(2, 2), block: Dim2::new(3, 3) };
            run_grid(Dim2::new(2, 2), &k, &events, WavePlan::fixed(wave));
            assert_eq!(out.to_vec(), vec![1.0; 36], "wave {wave}");
            assert_eq!(events.snapshot().global_stores, 36, "wave {wave}");
        }
    }

    /// Threads disagree on phase count: tx 0 wants a second phase, the
    /// rest return — the misuse the old engine punished with a deadlock.
    struct Divergent;

    impl BlockKernel for Divergent {
        type State = ();

        fn block(&self) -> Dim2 {
            Dim2::new(4, 1)
        }

        fn shared_len(&self) -> usize {
            0
        }

        fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

        fn run_phase<S: AccessSink>(
            &self,
            phase: usize,
            _s: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            if ctx.tx == 0 && phase == 0 {
                PhaseOutcome::Sync
            } else {
                PhaseOutcome::Done
            }
        }
    }

    #[test]
    #[should_panic(expected = "__syncthreads divergence")]
    fn divergent_phase_counts_fail_loudly() {
        let events = EventCounters::new();
        run_grid(Dim2::new(1, 1), &Divergent, &events, WavePlan::fixed(1));
    }

    /// The same diagnostic must survive a multi-worker wave, where the
    /// panic happens on a spawned thread rather than the caller.
    #[test]
    #[should_panic(expected = "__syncthreads divergence")]
    fn divergent_phase_counts_fail_loudly_in_a_parallel_wave() {
        let events = EventCounters::new();
        run_grid(Dim2::new(2, 1), &Divergent, &events, WavePlan::fixed(2));
    }

    #[test]
    fn monitored_run_reports_divergence_structurally() {
        let events = EventCounters::new();
        let mut exits = Vec::new();
        run_grid_monitored(
            Dim2::new(1, 1),
            &Divergent,
            &events,
            |_, _| NoSink,
            |bx, by, _sink, exit| exits.push((bx, by, exit)),
        );
        assert_eq!(exits.len(), 1);
        let (bx, by, exit) = &exits[0];
        assert_eq!((*bx, *by), (0, 0));
        match exit {
            BlockExit::Diverged { phase, synced, returned } => {
                assert_eq!(*phase, 0);
                assert_eq!(synced, &[(0, 0)]);
                assert_eq!(returned, &[(1, 0), (2, 0), (3, 0)]);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    /// A sink that records every access and suppresses out-of-bounds ones.
    #[derive(Default)]
    struct Recorder {
        shared: Vec<(AccessPoint, usize, bool)>,
        global: Vec<(AccessPoint, usize, bool)>,
    }

    impl AccessSink for Recorder {
        fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
            self.shared.push((at, idx, false));
            idx < len
        }

        fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
            self.shared.push((at, idx, true));
            idx < len
        }

        fn global_load(&mut self, at: AccessPoint, _buf: BufId, idx: usize, len: usize) -> bool {
            self.global.push((at, idx, false));
            idx < len
        }

        fn global_store(&mut self, at: AccessPoint, _buf: BufId, idx: usize, len: usize) -> bool {
            self.global.push((at, idx, true));
            idx < len
        }
    }

    #[test]
    fn sink_observes_attributed_accesses() {
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(8);
        let k = NeighbourRead { out: &out, width: 8 };
        let mut recorders = Vec::new();
        run_grid_monitored(
            Dim2::new(1, 1),
            &k,
            &events,
            |_, _| Recorder::default(),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                recorders.push(sink);
            },
        );
        let rec = &recorders[0];
        // Phase 0: 8 shared stores; phase 1: 8 shared loads.
        assert_eq!(rec.shared.len(), 16);
        assert!(rec.shared[..8].iter().all(|(at, _, write)| at.phase == 0 && *write));
        assert!(rec.shared[8..].iter().all(|(at, _, write)| at.phase == 1 && !*write));
        // Thread attribution: store i comes from thread (i, 0).
        assert!(rec.shared[..8]
            .iter()
            .enumerate()
            .all(|(i, (at, idx, _))| { at.thread() == (i, 0) && *idx == i }));
        assert_eq!(rec.global.len(), 8);
        // Counters identical to an uninstrumented run.
        let plain = EventCounters::new();
        let out2 = GlobalMem::zeroed(8);
        let k2 = NeighbourRead { out: &out2, width: 8 };
        run_grid(Dim2::new(1, 1), &k2, &plain, WavePlan::fixed(1));
        assert_eq!(events.snapshot(), plain.snapshot());
        assert_eq!(out.to_vec(), out2.to_vec());
    }

    /// A kernel whose thread 0 reads one element past shared memory in
    /// phase 0 — the OOB the sink may veto.
    struct SharedOob;

    impl BlockKernel for SharedOob {
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
            _p: usize,
            _s: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            if ctx.tx == 0 {
                ctx.shared_load(2); // one past the end
            }
            PhaseOutcome::Done
        }
    }

    #[test]
    #[should_panic(expected = "shared memory load out of bounds: index 2 >= len 2")]
    fn unsuppressed_oob_panics_with_attribution() {
        let events = EventCounters::new();
        run_grid(Dim2::new(1, 1), &SharedOob, &events, WavePlan::fixed(1));
    }

    #[test]
    fn suppressing_sink_survives_oob() {
        let events = EventCounters::new();
        let mut saw_oob = false;
        run_grid_monitored(
            Dim2::new(1, 1),
            &SharedOob,
            &events,
            |_, _| Recorder::default(),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                saw_oob = sink.shared.iter().any(|&(_, idx, _)| idx == 2);
            },
        );
        assert!(saw_oob, "the sink never observed the out-of-bounds index");
        // The suppressed load still counted as an event.
        assert_eq!(events.snapshot().shared_loads, 1);
    }

    #[test]
    fn per_block_counters_flush_to_launch_totals() {
        // 6 blocks × 9 threads × 1 store, plus per-block barrier counts.
        struct TwoPhase<'a> {
            out: &'a GlobalMem,
        }
        impl BlockKernel for TwoPhase<'_> {
            type State = ();
            fn block(&self) -> Dim2 {
                Dim2::new(3, 3)
            }
            fn shared_len(&self) -> usize {
                0
            }
            fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}
            fn run_phase<S: AccessSink>(
                &self,
                phase: usize,
                _s: &mut (),
                ctx: &mut PhaseCtx<'_, S>,
            ) -> PhaseOutcome {
                match phase {
                    0 => {
                        ctx.count_flops(10);
                        PhaseOutcome::Sync
                    }
                    _ => {
                        // One representative store per block (thread (0,0)).
                        if ctx.tx == 0 && ctx.ty == 0 {
                            let block_id = ctx.by * 3 + ctx.bx;
                            ctx.global_store(self.out, block_id, 1.0);
                        }
                        PhaseOutcome::Done
                    }
                }
            }
        }
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(6);
        run_grid(Dim2::new(3, 2), &TwoPhase { out: &out }, &events, WavePlan::fixed(4));
        let s = events.snapshot();
        assert_eq!(s.flops, 6 * 9 * 10);
        assert_eq!(s.global_stores, 6);
        assert_eq!(s.barriers, 6); // one per block
    }

    #[test]
    fn batch_records_roundtrip_through_the_packed_word() {
        for (tx, ty, idx, store) in
            [(0, 0, 0, false), (65535, 65535, (1 << 31) - 1, true), (3, 7, 4096, true)]
        {
            let got = decode_access(encode_access(tx, ty, idx, store));
            assert_eq!(got, BatchAccess { tx, ty, idx, store });
        }
    }

    #[test]
    fn shared_batch_counts_stores_and_bounds_its_indices() {
        let mut batch = SharedBatch::default();
        assert_eq!((batch.stores(), batch.index_end()), (0, 0));
        // More than one 8-word chunk, the largest index in the tail.
        for i in 0..9 {
            batch.push_load(i, 0, 3 * i);
        }
        batch.push_store(1, 2, 40);
        batch.push_load(0, 0, 7);
        assert_eq!((batch.len(), batch.stores(), batch.index_end()), (11, 1, 41));
        batch.push_store(65535, 65535, (1 << 31) - 1);
        assert_eq!((batch.stores(), batch.index_end()), (2, 1 << 31));
        batch.clear();
        assert_eq!((batch.stores(), batch.index_end()), (0, 0));
    }

    #[test]
    fn global_batch_groups_records_into_runs() {
        let mut batch = GlobalBatch::default();
        let (a, b) = (GlobalMem::zeroed(4), GlobalMem::zeroed(8));
        batch.begin_run(a.id(), a.len());
        batch.push_load(0, 0, 1);
        batch.push_store(1, 0, 2);
        batch.begin_run(b.id(), b.len());
        batch.push_load(2, 0, 7);
        assert_eq!(batch.stores(), 1);
        let runs: Vec<_> = batch.runs().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].buf, runs[0].len), (a.id(), 4));
        assert_eq!(runs[0].accesses().count(), 2);
        assert_eq!((runs[1].buf, runs[1].len), (b.id(), 8));
        let rec: Vec<_> = runs[1].accesses().collect();
        assert_eq!(rec, vec![BatchAccess { tx: 2, ty: 0, idx: 7, store: false }]);
        assert_eq!(batch.len(), 3);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!((batch.runs().count(), batch.stores()), (0, 0));
    }

    /// `NeighbourRead` with a traced batched body, for bulk-sink tests.
    struct BatchedNeighbourRead<'a> {
        inner: NeighbourRead<'a>,
    }

    impl BlockKernel for BatchedNeighbourRead<'_> {
        type State = ();

        fn block(&self) -> Dim2 {
            self.inner.block()
        }

        fn shared_len(&self) -> usize {
            self.inner.shared_len()
        }

        fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

        fn run_phase<S: AccessSink>(
            &self,
            phase: usize,
            state: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            self.inner.run_phase(phase, state, ctx)
        }

        fn run_phase_batch(
            &self,
            phase: usize,
            _states: &mut [()],
            ctx: &mut BatchCtx<'_>,
        ) -> Option<PhaseOutcome> {
            let width = self.inner.width;
            match phase {
                0 => {
                    for (tx, cell) in ctx.shared().iter_mut().enumerate().take(width) {
                        *cell = tx as f64 + 1.0;
                    }
                    if let Some(t) = ctx.trace() {
                        for tx in 0..width {
                            t.shared.push_store(tx, 0, tx);
                        }
                    }
                    ctx.counters().shared_stores += width as u64;
                    Some(PhaseOutcome::Sync)
                }
                1 => {
                    for tx in 0..width {
                        let neighbour = (tx + 1) % width;
                        let v = ctx.shared()[neighbour];
                        self.inner.out.store(tx, v);
                    }
                    if let Some(t) = ctx.trace() {
                        t.global.begin_run(self.inner.out.id(), self.inner.out.len());
                        for tx in 0..width {
                            t.shared.push_load(tx, 0, (tx + 1) % width);
                            t.global.push_store(tx, 0, tx);
                        }
                    }
                    ctx.counters().shared_loads += width as u64;
                    ctx.counters().global_stores += width as u64;
                    Some(PhaseOutcome::Done)
                }
                _ => unreachable!(),
            }
        }
    }

    /// A recording sink that consumes bulk records via the trait's
    /// default delegation to the scalar hooks.
    #[derive(Default)]
    struct BulkRecorder(Recorder);

    impl AccessSink for BulkRecorder {
        const BULK: bool = true;

        fn shared_load(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
            self.0.shared_load(at, idx, len)
        }

        fn shared_store(&mut self, at: AccessPoint, idx: usize, len: usize) -> bool {
            self.0.shared_store(at, idx, len)
        }

        fn global_load(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
            self.0.global_load(at, buf, idx, len)
        }

        fn global_store(&mut self, at: AccessPoint, buf: BufId, idx: usize, len: usize) -> bool {
            self.0.global_store(at, buf, idx, len)
        }
    }

    #[test]
    fn bulk_sink_rides_the_batched_path_and_sees_every_access() {
        // Scalar reference: the unbatched kernel under a plain recorder.
        let scalar_events = EventCounters::new();
        let scalar_out = GlobalMem::zeroed(8);
        let k = NeighbourRead { out: &scalar_out, width: 8 };
        let mut scalar_rec = Vec::new();
        run_grid_monitored(
            Dim2::new(1, 1),
            &k,
            &scalar_events,
            |_, _| Recorder::default(),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                scalar_rec.push(sink);
            },
        );

        // Bulk: the batched kernel under a BULK recorder — the batched
        // arm must run (same results, same counters) and the trace must
        // replay the identical attributed access stream.
        let bulk_events = EventCounters::new();
        let bulk_out = GlobalMem::zeroed(8);
        let bk = BatchedNeighbourRead { inner: NeighbourRead { out: &bulk_out, width: 8 } };
        let mut bulk_rec = Vec::new();
        run_grid_monitored(
            Dim2::new(1, 1),
            &bk,
            &bulk_events,
            |_, _| BulkRecorder::default(),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                bulk_rec.push(sink.0);
            },
        );

        assert_eq!(scalar_out.to_vec(), bulk_out.to_vec());
        assert_eq!(scalar_events.snapshot(), bulk_events.snapshot());
        assert_eq!(scalar_rec[0].shared, bulk_rec[0].shared);
        assert_eq!(scalar_rec[0].global, bulk_rec[0].global);
    }

    #[test]
    fn force_scalar_masks_bulk_and_pins_the_scalar_loop() {
        // The same batched kernel under ForceScalar<BulkRecorder> must
        // take the scalar loop — observationally identical to the plain
        // recorder run.
        let events = EventCounters::new();
        let out = GlobalMem::zeroed(8);
        let bk = BatchedNeighbourRead { inner: NeighbourRead { out: &out, width: 8 } };
        let mut recs = Vec::new();
        run_grid_monitored(
            Dim2::new(1, 1),
            &bk,
            &events,
            |_, _| ForceScalar(BulkRecorder::default()),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                recs.push(sink.0 .0);
            },
        );
        let expect: Vec<f64> = (0..8).map(|i| ((i + 1) % 8) as f64 + 1.0).collect();
        assert_eq!(out.to_vec(), expect);
        // 8 stores then 8 loads, exactly as the scalar loop reports them.
        assert_eq!(recs[0].shared.len(), 16);
        assert!(recs[0].shared[..8].iter().all(|(at, _, write)| at.phase == 0 && *write));
    }

    /// Each thread reads its shared cell before any write, publishes what
    /// it read at its global slot, then writes the cell: in a block that
    /// starts from zeroed shared memory every read is `0.0`. Carries a
    /// batched body, so both interpreter paths run it; block `diverge`
    /// splits at the barrier after writing.
    struct ReadBeforeWrite<'a> {
        out: &'a GlobalMem,
        grid: Dim2,
        diverge: Option<(usize, usize)>,
    }

    impl ReadBeforeWrite<'_> {
        const WIDTH: usize = 2;

        fn slot(&self, bx: usize, by: usize, tx: usize) -> usize {
            (by * self.grid.x + bx) * Self::WIDTH + tx
        }
    }

    impl BlockKernel for ReadBeforeWrite<'_> {
        type State = ();

        fn block(&self) -> Dim2 {
            Dim2::new(Self::WIDTH, 1)
        }

        fn shared_len(&self) -> usize {
            Self::WIDTH
        }

        fn init(&self, _bx: usize, _by: usize, _tx: usize, _ty: usize) {}

        fn run_phase<S: AccessSink>(
            &self,
            phase: usize,
            _state: &mut (),
            ctx: &mut PhaseCtx<'_, S>,
        ) -> PhaseOutcome {
            assert_eq!(phase, 0, "every block retires (or diverges) in phase 0");
            let v = ctx.shared_load(ctx.tx);
            ctx.global_store(self.out, self.slot(ctx.bx, ctx.by, ctx.tx), v);
            ctx.shared_store(ctx.tx, 1.0 + self.slot(ctx.bx, ctx.by, ctx.tx) as f64);
            if self.diverge == Some((ctx.bx, ctx.by)) && ctx.tx == 0 {
                PhaseOutcome::Sync
            } else {
                PhaseOutcome::Done
            }
        }

        fn run_phase_batch(
            &self,
            _phase: usize,
            _states: &mut [()],
            ctx: &mut BatchCtx<'_>,
        ) -> Option<PhaseOutcome> {
            if self.diverge == Some((ctx.bx, ctx.by)) {
                return None; // the scalar loop reports the split per thread
            }
            let (bx, by) = (ctx.bx, ctx.by);
            for tx in 0..Self::WIDTH {
                let v = ctx.shared()[tx];
                self.out.store(self.slot(bx, by, tx), v);
                ctx.shared()[tx] = 1.0 + self.slot(bx, by, tx) as f64;
            }
            if let Some(t) = ctx.trace() {
                t.global.begin_run(self.out.id(), self.out.len());
                for tx in 0..Self::WIDTH {
                    t.shared.push_load(tx, 0, tx);
                    t.global.push_store(tx, 0, self.slot(bx, by, tx));
                    t.shared.push_store(tx, 0, tx);
                }
            }
            let counts = ctx.counters();
            counts.shared_loads += Self::WIDTH as u64;
            counts.shared_stores += Self::WIDTH as u64;
            counts.global_stores += Self::WIDTH as u64;
            Some(PhaseOutcome::Done)
        }
    }

    #[test]
    fn shared_memory_reads_zero_in_every_block() {
        let grid = Dim2::new(3, 2);
        let cells = grid.count() * ReadBeforeWrite::WIDTH;
        let zeros = vec![0.0; cells];
        fn kernel(out: &GlobalMem, grid: Dim2) -> ReadBeforeWrite<'_> {
            ReadBeforeWrite { out, grid, diverge: None }
        }
        // Block waves share one scratch per claimed band of blocks.
        for wave in [1, 2] {
            let out = GlobalMem::from_slice(&vec![f64::NAN; cells]);
            run_grid(grid, &kernel(&out, grid), &EventCounters::new(), WavePlan::fixed(wave));
            assert_eq!(out.to_vec(), zeros, "batched, wave {wave}");
            let out = GlobalMem::from_slice(&vec![f64::NAN; cells]);
            let k = kernel(&out, grid);
            run_grid_unbatched(grid, &k, &EventCounters::new(), WavePlan::fixed(wave));
            assert_eq!(out.to_vec(), zeros, "scalar, wave {wave}");
        }
        // A monitored launch shares one scratch across all its blocks.
        let out = GlobalMem::from_slice(&vec![f64::NAN; cells]);
        let mut traced = 0;
        run_grid_monitored(
            grid,
            &kernel(&out, grid),
            &EventCounters::new(),
            |_, _| BulkRecorder::default(),
            |_, _, sink, exit| {
                assert_eq!(exit, BlockExit::Retired);
                traced += sink.0.shared.len();
            },
        );
        assert_eq!(out.to_vec(), zeros, "monitored");
        assert_eq!(traced, 2 * cells, "every shared access reached the bulk sink");
    }

    #[test]
    fn blocks_after_a_diverging_block_run_as_on_fresh_scratch() {
        // Block (1, 0) writes its shared cells, then splits at the barrier,
        // leaving its threads' outcomes mixed; the blocks after it must
        // still read zeroed shared memory and retire, as on fresh scratch.
        let grid = Dim2::new(3, 2);
        let cells = grid.count() * ReadBeforeWrite::WIDTH;
        let run = |diverge| {
            let out = GlobalMem::from_slice(&vec![f64::NAN; cells]);
            let kernel = ReadBeforeWrite { out: &out, grid, diverge };
            let mut exits = Vec::new();
            let mut shared = Vec::new();
            run_grid_monitored(
                grid,
                &kernel,
                &EventCounters::new(),
                |_, _| BulkRecorder::default(),
                |bx, by, sink, exit| {
                    exits.push(((bx, by), exit));
                    shared.push(sink.0.shared);
                },
            );
            (out.to_vec(), exits, shared)
        };
        let (fresh_out, fresh_exits, fresh_shared) = run(None);
        let (out, exits, shared) = run(Some((1, 0)));
        assert_eq!(out, vec![0.0; cells]);
        assert_eq!(out, fresh_out);
        assert!(matches!(exits[1], ((1, 0), BlockExit::Diverged { phase: 0, .. })), "{exits:?}");
        for b in (0..grid.count()).filter(|&b| b != 1) {
            assert_eq!(exits[b], fresh_exits[b], "block {b}");
            assert_eq!(shared[b], fresh_shared[b], "block {b}");
        }
    }

    #[test]
    fn wave_plan_from_arch_is_occupancy_capped() {
        let arch = GpuArch::k40c();
        // BS = 32 tiles: 1024 threads/block → 2 blocks/SM × 15 SMs = 30.
        let plan = WavePlan::for_arch(&arch, 32 * 32, 2 * 32 * 32 * 8);
        assert!(plan.width() <= 30.min(enprop_par::host_parallelism().max(1)).max(1));
        assert!(plan.width() >= 1);
        // An unlaunchable kernel degrades to a serial wave.
        let bad = WavePlan::for_arch(&arch, 33 * 33, 0);
        assert_eq!(bad.width(), 1);
    }

    #[test]
    fn fixed_wave_width_is_clamped_positive() {
        assert_eq!(WavePlan::fixed(0).width(), 1);
        assert_eq!(WavePlan::fixed(7).width(), 7);
        assert!(WavePlan::auto().width() >= 1);
    }
}
