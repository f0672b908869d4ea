//! Exhaustive small-case check of the race monitor. Every thread-serial
//! access stream of 2 threads on 2 cells, with at most 2 loads or stores
//! per thread per phase, over 1–2 phases (and over 2 blocks for global
//! memory), goes through a [`LaunchMonitor`] through the scalar hooks, as
//! one bulk trace per phase, and — for shared memory — as bulk traces in
//! which every store-free phase whose loads the monitor declines carries
//! them as a [`LoadRange`]. Each must report exactly what a brute-force
//! restatement of the reporting rule reports, finding for finding and in
//! order. The scalar hooks also take every interleaving of the two
//! threads' accesses within a phase.

use enprop_gpusim::emulator::{
    AccessPoint, AccessSink, BlockExit, GlobalMem, LoadRange, PhaseTrace,
};
use enprop_sanitize::{AccessKind, BufferTable, Finding, LaunchMonitor, MemSpace, MonitorSink};

/// The two threads, in the row-major order the interpreter runs them.
const THREADS: [(usize, usize); 2] = [(1, 0), (0, 1)];
/// The two blocks, in row-major order.
const BLOCKS: [(usize, usize); 2] = [(1, 0), (0, 1)];
/// Cells per allocation.
const CELLS: usize = 2;
/// The registered name of the global buffer.
const NAME: &str = "g";

/// One access: block, phase and thread indices, cell, load or store.
#[derive(Debug, Clone, Copy)]
struct Event {
    block: usize,
    phase: usize,
    thread: usize,
    cell: usize,
    store: bool,
}

impl Event {
    fn at(&self) -> AccessPoint {
        let ((bx, by), (tx, ty)) = (BLOCKS[self.block], THREADS[self.thread]);
        AccessPoint { bx, by, tx, ty, phase: self.phase }
    }

    fn kind(&self) -> AccessKind {
        if self.store {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }
}

/// Every `(cell, store)` choice.
fn accesses() -> impl Iterator<Item = (usize, bool)> + Clone {
    (0..CELLS).flat_map(|cell| [(cell, false), (cell, true)])
}

/// Every sequence of at most 2 loads or stores of the 2 cells: 21 of them.
fn sequences() -> Vec<Vec<(usize, bool)>> {
    let mut out = vec![vec![]];
    out.extend(accesses().map(|a| vec![a]));
    out.extend(accesses().flat_map(|a| accesses().map(move |b| vec![a, b])));
    out
}

/// Every thread-serial stream of `blocks` blocks of `phases` phases each:
/// in each phase, thread 0 runs its sequence, then thread 1.
fn streams(blocks: usize, phases: usize) -> impl Iterator<Item = Vec<Event>> {
    let seqs = sequences();
    let per_phase = seqs.len() * seqs.len();
    let total = per_phase.pow((blocks * phases) as u32);
    (0..total).map(move |mut code| {
        let mut events = Vec::new();
        for block in 0..blocks {
            for phase in 0..phases {
                let pair = code % per_phase;
                code /= per_phase;
                for (thread, seq) in [pair % seqs.len(), pair / seqs.len()].into_iter().enumerate()
                {
                    events.extend(seqs[seq].iter().map(|&(cell, store)| Event {
                        block,
                        phase,
                        thread,
                        cell,
                        store,
                    }));
                }
            }
        }
        events
    })
}

/// Every order of up to `n` accesses by either thread in one phase of one
/// block, threads interleaved freely.
fn interleavings(n: u32) -> impl Iterator<Item = Vec<Event>> {
    let symbols: Vec<Event> = (0..THREADS.len())
        .flat_map(|thread| {
            accesses().map(move |(cell, store)| Event { block: 0, phase: 0, thread, cell, store })
        })
        .collect();
    (0..=n).flat_map(move |len| {
        let symbols = symbols.clone();
        (0..symbols.len().pow(len)).map(move |mut code| {
            (0..len)
                .map(|_| {
                    let e = symbols[code % symbols.len()];
                    code /= symbols.len();
                    e
                })
                .collect()
        })
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Space {
    Shared,
    Global,
}

impl Space {
    fn mem(self) -> MemSpace {
        match self {
            Space::Shared => MemSpace::Shared,
            Space::Global => MemSpace::Global,
        }
    }

    fn name(self) -> Option<&'static str> {
        match self {
            Space::Shared => None,
            Space::Global => Some(NAME),
        }
    }
}

/// The reporting rule, recomputed from the whole history at every access
/// of a block-serial stream:
///
/// - out of bounds: reported at once, nothing else;
/// - intra-block race: among the earlier same-block, same-phase accesses
///   to the cell, take the first write and the first read. Any access
///   conflicts with that write if another thread made it; a write also
///   conflicts with that read if another thread made it (the write is
///   checked first). A cell reports once per phase;
/// - inter-block race (global): a read conflicts with the first writing
///   block if that is another block; a write also with the first reading
///   block, then with the second distinct reading block. A cell reports
///   once per launch;
/// - uninitialized read (shared): a block's first touch of a cell is a
///   read, and the block never writes the cell; reported at block end.
///
/// Within one access the intra-block finding comes first.
fn reference(space: Space, events: &[Event], len: usize) -> Vec<Finding> {
    let mut out = Vec::new();
    // In-bounds accesses so far.
    let mut history: Vec<Event> = Vec::new();
    let mut flagged_intra: Vec<(usize, usize, usize)> = Vec::new();
    let mut flagged_inter = [false; CELLS];
    for block in events.chunk_by(|a, b| a.block == b.block) {
        let block_start = history.len();
        let mut candidates = Vec::new();
        for e in block {
            if e.cell >= len {
                out.push(Finding::oob(space.mem(), space.name(), e.at(), e.kind(), e.cell, len));
                continue;
            }
            let in_block = &history[block_start..];
            if !flagged_intra.contains(&(e.block, e.phase, e.cell)) {
                let same_phase =
                    || in_block.iter().filter(|h| h.phase == e.phase && h.cell == e.cell);
                let writer = same_phase().find(|h| h.store).map(|h| h.thread);
                let reader = same_phase().find(|h| !h.store).map(|h| h.thread);
                let hit = match (writer, reader) {
                    (Some(w), _) if w != e.thread => Some((w, AccessKind::Write)),
                    (_, Some(r)) if r != e.thread && e.store => Some((r, AccessKind::Read)),
                    _ => None,
                };
                if let Some((first, first_kind)) = hit {
                    out.push(Finding::race(
                        space.mem(),
                        space.name(),
                        e.cell,
                        e.at(),
                        e.kind(),
                        THREADS[first],
                        first_kind,
                    ));
                    flagged_intra.push((e.block, e.phase, e.cell));
                }
            }
            if space == Space::Global && !flagged_inter[e.cell] {
                let prior = || history.iter().filter(|h| h.cell == e.cell);
                let wrote = prior().find(|h| h.store).map(|h| h.block);
                let read1 = prior().find(|h| !h.store).map(|h| h.block);
                let read2 =
                    prior().filter(|h| !h.store).map(|h| h.block).find(|&r| Some(r) != read1);
                let other = |b: Option<usize>| b.filter(|&b| b != e.block);
                let conflict = other(wrote).map(|w| (w, AccessKind::Write)).or_else(|| {
                    if e.store {
                        other(read1).or(other(read2)).map(|r| (r, AccessKind::Read))
                    } else {
                        None
                    }
                });
                if let Some((first, first_kind)) = conflict {
                    out.push(Finding::inter_block_race(
                        Some(NAME),
                        e.cell,
                        BLOCKS[e.block],
                        e.kind(),
                        BLOCKS[first],
                        first_kind,
                    ));
                    flagged_inter[e.cell] = true;
                }
            }
            if space == Space::Shared && !e.store && !in_block.iter().any(|h| h.cell == e.cell) {
                candidates.push((e.cell, e.at()));
            }
            history.push(*e);
        }
        for (cell, at) in candidates {
            if !history[block_start..].iter().any(|h| h.cell == cell && h.store) {
                out.push(Finding::uninit_read(cell, at));
            }
        }
    }
    out
}

/// Runs `events` through a fresh monitor one block at a time, handing
/// each phase's events to `deliver`.
fn run(
    space: Space,
    events: &[Event],
    mem: &GlobalMem,
    mut deliver: impl FnMut(&mut MonitorSink, &[Event]),
) -> Vec<Finding> {
    let monitor = match space {
        Space::Shared => LaunchMonitor::new(BufferTable::new(), CELLS),
        Space::Global => {
            let mut table = BufferTable::new();
            table.register(mem.id(), NAME, CELLS);
            LaunchMonitor::new(table, 0)
        }
    };
    for block in events.chunk_by(|a, b| a.block == b.block) {
        monitor.begin_block();
        let mut sink = monitor.sink();
        for phase in block.chunk_by(|a, b| a.phase == b.phase) {
            deliver(&mut sink, phase);
        }
        drop(sink);
        let (bx, by) = BLOCKS[block[0].block];
        monitor.end_block(bx, by, &BlockExit::Retired);
    }
    let out = monitor.finish();
    assert_eq!(out.suppressed, 0);
    out.findings
}

/// Through the per-access hooks, in stream order.
fn scalar(space: Space, events: &[Event], mem: &GlobalMem) -> Vec<Finding> {
    run(space, events, mem, |sink, phase| {
        for e in phase {
            match (space, e.store) {
                (Space::Shared, false) => sink.shared_load(e.at(), e.cell, CELLS),
                (Space::Shared, true) => sink.shared_store(e.at(), e.cell, CELLS),
                (Space::Global, false) => sink.global_load(e.at(), mem.id(), e.cell, CELLS),
                (Space::Global, true) => sink.global_store(e.at(), mem.id(), e.cell, CELLS),
            };
        }
    })
}

/// What the batched interpreter hands a bulk sink: each phase as one
/// trace.
fn bulk(space: Space, events: &[Event], mem: &GlobalMem) -> Vec<Finding> {
    let mut trace = PhaseTrace::default();
    run(space, events, mem, |sink, phase| {
        trace.clear();
        if space == Space::Global {
            trace.global.begin_run(mem.id(), CELLS);
        }
        for e in phase {
            let (tx, ty) = THREADS[e.thread];
            match (space, e.store) {
                (Space::Shared, false) => trace.shared.push_load(tx, ty, e.cell),
                (Space::Shared, true) => trace.shared.push_store(tx, ty, e.cell),
                (Space::Global, false) => trace.global.push_load(tx, ty, e.cell),
                (Space::Global, true) => trace.global.push_store(tx, ty, e.cell),
            }
        }
        let at = phase[0].at();
        sink.observe_phase(at.bx, at.by, at.phase, CELLS, &trace);
    })
}

/// [`bulk`], but a shared phase without stores carries its loads as one
/// [`LoadRange`] whenever the sink, asked before the phase, does not want
/// them: the cells from the smallest to the largest loaded one, and the
/// first thread to load the largest. Returns the findings and how many
/// phases took the range.
fn ranged(events: &[Event]) -> (Vec<Finding>, usize) {
    let mem = GlobalMem::zeroed(CELLS);
    let mut trace = PhaseTrace::default();
    let mut taken = 0;
    let findings = run(Space::Shared, events, &mem, |sink, phase| {
        trace.clear();
        let cells = phase.iter().map(|e| e.cell);
        let (lo, hi) = (cells.clone().min().unwrap(), cells.max().unwrap());
        if !sink.wants_shared_loads() && phase.iter().all(|e| !e.store) {
            let last = phase.iter().find(|e| e.cell == hi).unwrap().thread;
            trace.shared.set_load_range(LoadRange { cells: lo..hi + 1, last: THREADS[last] });
            taken += 1;
        } else {
            for e in phase {
                let (tx, ty) = THREADS[e.thread];
                if e.store {
                    trace.shared.push_store(tx, ty, e.cell);
                } else {
                    trace.shared.push_load(tx, ty, e.cell);
                }
            }
        }
        let at = phase[0].at();
        sink.observe_phase(at.bx, at.by, at.phase, CELLS, &trace);
    });
    (findings, taken)
}

/// Checks both paths against the reference on every thread-serial stream
/// of the shape, returning how many streams report anything. Shared
/// streams also go through [`ranged`].
fn check_streams(space: Space, blocks: usize, phases: usize) -> usize {
    let mem = GlobalMem::zeroed(CELLS);
    let (mut dirty, mut ranges) = (0, 0);
    for events in streams(blocks, phases) {
        let expect = reference(space, &events, CELLS);
        assert_eq!(scalar(space, &events, &mem), expect, "scalar hooks: {events:?}");
        assert_eq!(bulk(space, &events, &mem), expect, "bulk batches: {events:?}");
        if space == Space::Shared {
            let (found, taken) = ranged(&events);
            assert_eq!(found, expect, "load ranges: {events:?}");
            ranges += taken;
        }
        dirty += usize::from(!expect.is_empty());
    }
    assert_eq!(ranges > 0, space == Space::Shared && phases > 1, "ranges taken: {ranges}");
    dirty
}

#[test]
fn every_shared_stream_of_one_phase_matches_the_reference() {
    assert!(check_streams(Space::Shared, 1, 1) > 0);
}

#[test]
fn every_shared_stream_of_two_phases_matches_the_reference() {
    assert!(check_streams(Space::Shared, 1, 2) > 0);
}

#[test]
fn every_global_stream_of_two_phases_matches_the_reference() {
    assert!(check_streams(Space::Global, 1, 2) > 0);
}

#[test]
fn every_global_stream_over_two_blocks_matches_the_reference() {
    assert!(check_streams(Space::Global, 2, 1) > 0);
}

#[test]
fn every_interleaving_through_the_hooks_matches_the_reference() {
    // A thread that comes back within a phase is still the same thread,
    // e.g. read, another thread's read, then a write of one cell: the
    // first reader is the writer itself, so nothing is reported.
    let mem = GlobalMem::zeroed(CELLS);
    for space in [Space::Shared, Space::Global] {
        for events in interleavings(4) {
            let expect = reference(space, &events, CELLS);
            assert_eq!(scalar(space, &events, &mem), expect, "{space:?}: {events:?}");
        }
    }
}

#[test]
fn a_store_free_phase_still_finds_a_never_written_read() {
    // Phase 0 writes cell 0 only; phase 1 is store-free and reads cell 1,
    // which the block never writes.
    let e = |phase, thread, cell, store| Event { block: 0, phase, thread, cell, store };
    let events = [e(0, 0, 0, true), e(1, 1, 1, false)];
    let mem = GlobalMem::zeroed(CELLS);
    let expect = vec![Finding::uninit_read(1, events[1].at())];
    assert_eq!(reference(Space::Shared, &events, CELLS), expect);
    assert_eq!(scalar(Space::Shared, &events, &mem), expect);
    assert_eq!(bulk(Space::Shared, &events, &mem), expect);
}

#[test]
fn a_store_free_batch_still_reports_an_out_of_range_record() {
    // Phase 0 writes every cell, so phase 1 has nothing to race on and
    // nothing uninitialized; its one out-of-range load must still report.
    let e = |phase, thread, cell, store| Event { block: 0, phase, thread, cell, store };
    let events = [e(0, 0, 0, true), e(0, 1, 1, true), e(1, 0, 0, false), e(1, 0, CELLS, false)];
    let mem = GlobalMem::zeroed(CELLS);
    for space in [Space::Shared, Space::Global] {
        let expect = vec![Finding::oob(
            space.mem(),
            space.name(),
            events[3].at(),
            AccessKind::Read,
            CELLS,
            CELLS,
        )];
        assert_eq!(reference(space, &events, CELLS), expect, "{space:?}");
        assert_eq!(scalar(space, &events, &mem), expect, "{space:?}");
        assert_eq!(bulk(space, &events, &mem), expect, "{space:?}");
    }
}

#[test]
fn a_load_range_past_the_end_reports_what_its_records_did() {
    // Phase 0 writes every cell, so the store-free phase 1 may carry its
    // loads as a range. Every phase 1 of at most 2 loads per thread over
    // the cells and the one past the end, with at most one load past the
    // end: the range reports exactly the records' findings — the one
    // out-of-bounds load, or nothing.
    let e = |phase, thread, cell, store| Event { block: 0, phase, thread, cell, store };
    let loads = |thread| {
        let one = (0..=CELLS).map(move |c| vec![e(1, thread, c, false)]);
        let two = (0..=CELLS).flat_map(move |a| {
            (0..=CELLS).map(move |b| vec![e(1, thread, a, false), e(1, thread, b, false)])
        });
        std::iter::once(vec![]).chain(one).chain(two)
    };
    let mem = GlobalMem::zeroed(CELLS);
    let (mut reported, mut clean) = (0, 0);
    for first in loads(0) {
        for second in loads(1) {
            let phase1: Vec<Event> = first.iter().chain(&second).copied().collect();
            if phase1.is_empty() || phase1.iter().filter(|e| e.cell >= CELLS).count() > 1 {
                continue;
            }
            let mut events = vec![e(0, 0, 0, true), e(0, 1, 1, true)];
            events.extend(phase1);
            let records = bulk(Space::Shared, &events, &mem);
            let (found, taken) = ranged(&events);
            assert_eq!(taken, 1, "{events:?}");
            assert_eq!(found, records, "{events:?}");
            assert_eq!(records, reference(Space::Shared, &events, CELLS), "{events:?}");
            if found.is_empty() {
                clean += 1;
            } else {
                assert_eq!(found.len(), 1);
                reported += 1;
            }
        }
    }
    assert!(reported > 0 && clean > 0, "reported {reported}, clean {clean}");
}
