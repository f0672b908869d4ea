//! Emulated device memories and event counters.
//!
//! Global and shared memory are arrays of `AtomicU64` cells, each holding
//! one `f64`'s bits and accessed with `Relaxed` ordering, which compiles
//! to plain moves on x86-64. Relaxed suffices because nothing is ever
//! published through a cell's ordering:
//!
//! - blocks touch disjoint cells: within a block, threads exchange data
//!   only across `__syncthreads` boundaries, and the phase interpreter
//!   runs a block's threads in sequence on one host thread; across
//!   blocks, a kernel writes only cells no other block touches during the
//!   launch (the CUDA contract the tiled DGEMM and row FFT obey by
//!   construction);
//! - a launch's results are read after `enprop_par::for_chunks` has
//!   joined its wave workers, and the join orders every worker's stores
//!   before the read;
//! - the legacy OS-thread engine's threads meet at a
//!   [`std::sync::Barrier`], whose `wait` orders the accesses on either
//!   side of it.
//!
//! A kernel that breaks the disjoint-cell convention therefore gets a
//! wrong value (whichever store a load happens to see), which the
//! sanitizer's race checker reports. It cannot cause undefined
//! behaviour: nothing in the crate bypasses the compiler's checks, and
//! `lib.rs` forbids anything that would. Every access is bounds-checked
//! and panics with the memory kind, index and length.
//!
//! This reverses an earlier choice. The first phase interpreter made the
//! cells plain `f64`s shared between threads on the strength of that
//! convention alone, assuming atomic cells cost speed. Measured, they do
//! not: with the batched DGEMM bodies on a 2-core AVX-512 host (one
//! binary alternating both builds per round, medians of 21–31 serial
//! launches), plain cells took 0.98–1.00× the relaxed cells' time at
//! BS = 16 and 32 and 1.02–1.06× at BS = 2 and 8. What made the original
//! atomic emulator slow was one atomic event-counter bump per access;
//! the per-block counters ([`BlockCounters`]) flushed once per block
//! into [`EventCounters`] replace that.

use std::sync::atomic::{AtomicU64, Ordering};

/// A flat array of `f64` cells shared by concurrently executing blocks.
#[derive(Debug)]
struct Cells {
    cells: Box<[AtomicU64]>,
    /// Memory kind for diagnostics ("global" / "shared"): an
    /// out-of-bounds access must name what it overran, not just where.
    kind: &'static str,
}

impl Cells {
    fn zeroed(len: usize, kind: &'static str) -> Self {
        Self { cells: (0..len).map(|_| AtomicU64::new(0)).collect(), kind }
    }

    fn from_slice(data: &[f64], kind: &'static str) -> Self {
        Self { cells: data.iter().map(|v| AtomicU64::new(v.to_bits())).collect(), kind }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    /// A launch-stable identity for this allocation (its base address).
    fn id(&self) -> BufId {
        BufId(self.cells.as_ptr() as usize)
    }

    /// Panics with an attributable diagnostic: memory kind, index, length.
    #[cold]
    #[inline(never)]
    fn oob(&self, op: &str, idx: usize) -> ! {
        panic!("{} memory {op} out of bounds: index {idx} >= len {}", self.kind, self.cells.len())
    }

    #[inline]
    fn cell(&self, op: &str, idx: usize) -> &AtomicU64 {
        match self.cells.get(idx) {
            Some(cell) => cell,
            None => self.oob(op, idx),
        }
    }

    #[inline]
    fn load(&self, idx: usize) -> f64 {
        f64::from_bits(self.cell("load", idx).load(Ordering::Relaxed))
    }

    #[inline]
    fn store(&self, idx: usize, v: f64) {
        self.cell("store", idx).store(v.to_bits(), Ordering::Relaxed)
    }

    fn to_vec(&self) -> Vec<f64> {
        self.cells.iter().map(|c| f64::from_bits(c.load(Ordering::Relaxed))).collect()
    }
}

/// A launch-stable identity of one [`GlobalMem`] allocation — how an
/// access observer ([`crate::emulator::AccessSink`]) tells apart the
/// distinct global buffers (A, B, C, a signal…) a kernel touches. Derived
/// from the allocation's base address, so it is unique among the live
/// allocations of a launch but *not* stable across processes; report
/// writers should map it to a registered buffer name instead of printing
/// the raw value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(usize);

/// Device global memory: a flat array of `f64` cells shared by all blocks.
#[derive(Debug)]
pub struct GlobalMem {
    cells: Cells,
}

impl GlobalMem {
    /// Allocates zeroed global memory of `len` doubles.
    pub fn zeroed(len: usize) -> Self {
        Self { cells: Cells::zeroed(len, "global") }
    }

    /// Uploads host data.
    pub fn from_slice(data: &[f64]) -> Self {
        Self { cells: Cells::from_slice(data, "global") }
    }

    /// This allocation's identity for access observers.
    pub fn id(&self) -> BufId {
        self.cells.id()
    }

    /// Number of doubles.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.len() == 0
    }

    /// Raw load without event accounting: a host-side access, or one
    /// element of a batched phase body, which counts its events in bulk.
    #[inline]
    pub fn load(&self, idx: usize) -> f64 {
        self.cells.load(idx)
    }

    /// Raw store without event accounting (see [`load`](GlobalMem::load)).
    #[inline]
    pub fn store(&self, idx: usize, v: f64) {
        self.cells.store(idx, v)
    }

    /// Downloads device data back to the host.
    pub fn to_vec(&self) -> Vec<f64> {
        self.cells.to_vec()
    }
}

/// Per-block shared memory (the `__shared__` arrays of Fig. 5), used by
/// the legacy OS-thread engine. The phase interpreter runs each block in a
/// plain `Vec<f64>` instead, zeroed per block.
#[derive(Debug)]
pub struct SharedMem {
    cells: Cells,
}

impl SharedMem {
    /// Allocates zeroed shared memory of `len` doubles.
    pub fn zeroed(len: usize) -> Self {
        Self { cells: Cells::zeroed(len, "shared") }
    }

    /// Number of doubles.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no shared memory was requested.
    pub fn is_empty(&self) -> bool {
        self.cells.len() == 0
    }

    /// Raw load (event accounting happens in the engine contexts).
    #[inline]
    pub fn load(&self, idx: usize) -> f64 {
        self.cells.load(idx)
    }

    /// Raw store (event accounting happens in the engine contexts).
    #[inline]
    pub fn store(&self, idx: usize, v: f64) {
        self.cells.store(idx, v)
    }
}

/// Atomic event counters mirroring the CUPTI counters of
/// [`crate::cupti::CuptiCounter`].
///
/// The phase interpreter never touches these from a hot path: each block
/// accumulates into a plain [`BlockCounters`] and flushes the totals here
/// once, at block retirement. The legacy engine still increments them per
/// event, which is part of why it is slow.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Double-precision flops.
    pub flops: AtomicU64,
    /// Shared-memory loads.
    pub shared_loads: AtomicU64,
    /// Shared-memory stores.
    pub shared_stores: AtomicU64,
    /// Global-memory loads.
    pub global_loads: AtomicU64,
    /// Global-memory stores.
    pub global_stores: AtomicU64,
    /// Barriers executed (counted once per block).
    pub barriers: AtomicU64,
}

/// Plain per-block event counters: incremented without synchronization
/// while a block runs, flushed into the launch-wide [`EventCounters`]
/// exactly once when the block retires.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockCounters {
    /// Double-precision flops.
    pub flops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
    /// Barriers executed by this block.
    pub barriers: u64,
}

impl BlockCounters {
    /// Adds this block's totals into the launch counters (one atomic RMW
    /// per counter per block, instead of one per event).
    pub fn flush_into(&self, events: &EventCounters) {
        events.flops.fetch_add(self.flops, Ordering::Relaxed);
        events.shared_loads.fetch_add(self.shared_loads, Ordering::Relaxed);
        events.shared_stores.fetch_add(self.shared_stores, Ordering::Relaxed);
        events.global_loads.fetch_add(self.global_loads, Ordering::Relaxed);
        events.global_stores.fetch_add(self.global_stores, Ordering::Relaxed);
        events.barriers.fetch_add(self.barriers, Ordering::Relaxed);
    }
}

/// A plain snapshot of [`EventCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmuEvents {
    /// Double-precision flops.
    pub flops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
    /// Barriers executed (per block).
    pub barriers: u64,
}

impl EventCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the current counts.
    pub fn snapshot(&self) -> EmuEvents {
        EmuEvents {
            flops: self.flops.load(Ordering::Relaxed),
            shared_loads: self.shared_loads.load(Ordering::Relaxed),
            shared_stores: self.shared_stores.load(Ordering::Relaxed),
            global_loads: self.global_loads.load(Ordering::Relaxed),
            global_stores: self.global_stores.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }
}

impl EmuEvents {
    /// Element-wise sum — the compound-application count of the additivity
    /// theory.
    pub fn plus(self, o: EmuEvents) -> EmuEvents {
        EmuEvents {
            flops: self.flops + o.flops,
            shared_loads: self.shared_loads + o.shared_loads,
            shared_stores: self.shared_stores + o.shared_stores,
            global_loads: self.global_loads + o.global_loads,
            global_stores: self.global_stores + o.global_stores,
            barriers: self.barriers + o.barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_roundtrip() {
        let g = GlobalMem::from_slice(&[1.0, -2.5, 3.25]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.load(1), -2.5);
        g.store(1, 7.0);
        assert_eq!(g.to_vec(), vec![1.0, 7.0, 3.25]);
    }

    #[test]
    fn zeroed_memories() {
        let g = GlobalMem::zeroed(4);
        assert_eq!(g.to_vec(), vec![0.0; 4]);
        let s = SharedMem::zeroed(2);
        assert_eq!(s.load(0), 0.0);
        s.store(0, 1.5);
        assert_eq!(s.load(0), 1.5);
    }

    #[test]
    #[should_panic(expected = "global memory load out of bounds: index 4 >= len 4")]
    fn out_of_bounds_load_fails_loudly() {
        GlobalMem::zeroed(4).load(4);
    }

    #[test]
    #[should_panic(expected = "shared memory store out of bounds: index 7 >= len 2")]
    fn out_of_bounds_store_fails_loudly() {
        SharedMem::zeroed(2).store(7, 1.0);
    }

    #[test]
    fn buffer_ids_distinguish_allocations() {
        let a = GlobalMem::zeroed(4);
        let b = GlobalMem::zeroed(4);
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn counters_snapshot_and_sum() {
        let c = EventCounters::new();
        c.flops.fetch_add(10, Ordering::Relaxed);
        c.barriers.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.flops, 10);
        assert_eq!(s.barriers, 2);
        let sum = s.plus(s);
        assert_eq!(sum.flops, 20);
        assert_eq!(sum.global_loads, 0);
    }

    #[test]
    fn block_counters_flush_once() {
        let events = EventCounters::new();
        let block = BlockCounters {
            flops: 7,
            shared_loads: 6,
            shared_stores: 5,
            global_loads: 4,
            global_stores: 3,
            barriers: 2,
        };
        block.flush_into(&events);
        block.flush_into(&events);
        let s = events.snapshot();
        assert_eq!(
            (s.flops, s.shared_loads, s.shared_stores, s.global_loads, s.global_stores, s.barriers),
            (14, 12, 10, 8, 6, 4)
        );
    }

    #[test]
    fn nan_and_negative_bits_survive() {
        let g = GlobalMem::zeroed(1);
        g.store(0, -0.0);
        assert_eq!(g.load(0).to_bits(), (-0.0f64).to_bits());
        g.store(0, f64::NAN);
        assert!(g.load(0).is_nan());
    }
}
