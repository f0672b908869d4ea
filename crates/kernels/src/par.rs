//! Chunked lock-free work claiming shared by the threaded host kernels.
//!
//! A shared atomic cursor hands each worker a run of consecutive work
//! indices per `fetch_add`, amortizing cursor traffic by the chunk length
//! while dynamic claiming still keeps stragglers from idling the other
//! workers. The sweep executor in `enprop_apps::parallel` claims one item
//! at a time instead, because sweep configurations differ in cost by
//! orders of magnitude; a kernel's rows cost about the same.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A raw pointer that may cross thread boundaries.
///
/// Soundness is the caller's obligation: every use in this crate derives
/// from the pointer only slices over index ranges handed out by the
/// [`claim_chunks`] cursor — which are pairwise disjoint — and the scope
/// join inside `claim_chunks` provides the happens-before edge that
/// publishes the writes.
/// The pointer field stays private behind [`SendPtr::get`] so closures
/// capture the wrapper (whose `Sync` impl applies), not the bare pointer —
/// edition-2021 closures capture individual fields otherwise.
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is a plain address; the disjointness contract above
// makes the concurrent accesses through it race-free.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` — workers only ever touch disjoint ranges.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Runs `work(start, end)` over a partition of `0..items` claimed in
/// chunks from a shared atomic cursor by `workers` scoped threads.
///
/// Every index in `0..items` lands in exactly one `(start, end)` call, and
/// no two calls overlap — that disjointness is what lets callers hand each
/// claim a mutable sub-slice through a [`SendPtr`]. With one worker (or an
/// empty range) no threads are spawned and `work` runs on the caller.
///
/// Chunk length: ~4 claims per worker balances cursor amortization against
/// tail imbalance; capped so enormous ranges still rebalance.
pub(crate) fn claim_chunks(items: usize, workers: usize, work: impl Fn(usize, usize) + Sync) {
    if items == 0 {
        return;
    }
    if workers <= 1 {
        work(0, items);
        return;
    }
    let chunk = items.div_ceil(workers * 4).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let run_worker = || loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= items {
            break;
        }
        work(start, (start + chunk).min(items));
    };
    // Join each handle explicitly so a worker panic is re-raised with its
    // own payload; `std::thread::scope` would replace it with a generic
    // message.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn claims_cover_every_index_exactly_once() {
        // Lengths around chunk-size multiples, odd worker counts, and
        // workers > items all partition the range with no gap or overlap.
        for &items in &[0usize, 1, 5, 63, 64, 65, 257, 1000] {
            for &workers in &[1usize, 2, 3, 8, 2000] {
                let hits: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
                claim_chunks(items, workers, |start, end| {
                    assert!(start < end && end <= items);
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "items = {items}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk at 64 failed")]
    fn a_worker_panic_keeps_its_payload() {
        claim_chunks(256, 2, |start, _| {
            if start == 64 {
                panic!("chunk at {start} failed");
            }
        });
    }
}
