#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The workspace's one fan-out primitive.
//!
//! Every parallel path in the workspace — measured sweeps, emulator block
//! waves, sanitizer launches, static-verifier probes and lattice configs,
//! the threadgroup host DGEMM, the legacy engine's threads and the serve
//! load generator's clients — runs on one of three shapes:
//!
//! * [`map_with`]: a map over `0..len` with per-worker state, one index
//!   claimed per `fetch_add`, for items whose costs differ by orders of
//!   magnitude (one worker never holds several costly items while another
//!   idles);
//! * [`for_chunks`]: a loop over disjoint `&mut` bands of a slice, claimed
//!   a few units at a time, for near-uniform items whose claims are worth
//!   amortizing;
//! * [`join`]: one scoped thread per input.
//!
//! All three share one contract. Results come back in input order, so no
//! output depends on the schedule. With at most one worker the closure
//! runs on the calling thread and nothing is spawned. Once an item panics,
//! the other workers claim nothing more; every thread is joined, and the
//! first panic in worker order is re-raised on the caller with its own
//! payload, never a generic "a scoped thread panicked".

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Host threads available to the process (1 if indeterminate).
pub fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The text of a caught panic payload: `panic!` with a message produces a
/// `&str` or a `String`; anything else is opaque.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Maps `f(state, i)` over `0..len` on up to `workers` threads and returns
/// the results in index order.
///
/// Each worker builds its state with `init` once, then claims one index per
/// `fetch_add` until none are left, keeping its `(index, value)` pairs; the
/// pairs are put back in index order after the join.
pub fn map_with<S, T: Send>(
    len: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.min(len);
    if workers <= 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    // Relaxed is enough: neither the cursor nor the stop flag publishes
    // data, and the results reach the caller through the join.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut done: Vec<(usize, T)> = join(0..workers, |_| {
        let _stop = StopOnPanic(&stop);
        let mut state = init();
        let mut mine = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            mine.push((i, f(&mut state, i)));
        }
        mine
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// Runs `f(first_unit, band)` over disjoint `&mut` bands that together
/// cover `data` once, on up to `workers` threads.
///
/// `data` is read as consecutive units of `unit` elements (the last may be
/// short), and each band is a run of whole units: band `b` starts at unit
/// `first_unit = b · chunk`, element `first_unit · unit`. A claim takes the
/// next band from a lock-guarded iterator; `chunk` is
/// `units.div_ceil(4 · workers)` clamped to `1..=64` — about four claims
/// per worker, enough to rebalance a straggler, and capped so large inputs
/// still rebalance. With at most one worker, `f` sees all of `data` as one
/// band.
pub fn for_chunks<T: Send>(
    data: &mut [T],
    unit: usize,
    workers: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(unit > 0, "a unit must hold at least one element");
    let units = data.len().div_ceil(unit);
    let workers = workers.min(units);
    if workers <= 1 {
        if units > 0 {
            f(0, data);
        }
        return;
    }
    let chunk = units.div_ceil(4 * workers).clamp(1, 64);
    let bands = Mutex::new(data.chunks_mut(chunk * unit).enumerate());
    let stop = AtomicBool::new(false);
    join(0..workers, |_| {
        let _stop = StopOnPanic(&stop);
        while !stop.load(Ordering::Relaxed) {
            let claim = bands.lock().expect("no worker panics while claiming").next();
            let Some((b, band)) = claim else { break };
            f(b * chunk, band);
        }
    });
}

/// Runs `f` on every input, one scoped thread per input, and returns the
/// results in input order.
pub fn join<I: Send, R: Send>(
    inputs: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let inputs: Vec<I> = inputs.into_iter().collect();
    if inputs.len() <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> =
            inputs.into_iter().map(|input| scope.spawn(move || f(input))).collect();
        // Join every handle before looking at any result, so a panic is
        // re-raised only once all threads have stopped; `collect` into a
        // `Result` then keeps the first panic in input order.
        let joined: Vec<thread::Result<R>> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().collect::<thread::Result<Vec<R>>>()
    })
    .unwrap_or_else(|payload| resume_unwind(payload))
}

/// Raises the shared stop flag if its worker unwinds, so the other workers
/// claim nothing more.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    /// Every length up to 17, then lengths around the 64-unit chunk cap and
    /// the 408-config lattice.
    fn lens() -> impl Iterator<Item = usize> {
        (0..=17).chain([39, 63, 64, 65, 129, 408])
    }

    const WORKERS: [usize; 6] = [0, 1, 2, 3, 8, 2000];

    /// The text `run` panics with (it must panic).
    fn panic_text(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the call must panic");
        panic_message(payload.as_ref()).to_string()
    }

    #[test]
    fn map_with_returns_every_index_once_in_order() {
        for len in lens() {
            for workers in WORKERS {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let inits = AtomicUsize::new(0);
                let out = map_with(
                    len,
                    workers,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        i * 3
                    },
                );
                let case = format!("len {len}, workers {workers}");
                assert_eq!(out, (0..len).map(|i| i * 3).collect::<Vec<_>>(), "{case}");
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{case}");
                assert!(inits.into_inner() <= workers.max(1).min(len), "{case}");
            }
        }
    }

    #[test]
    fn for_chunks_covers_every_element_once_in_disjoint_bands() {
        for len in lens() {
            for workers in WORKERS {
                for unit in [1usize, 3, 8] {
                    let case = format!("len {len}, workers {workers}, unit {unit}");
                    // (index, visits): a band's first index must sit at
                    // `first_unit · unit`, and overlapping bands would
                    // visit an element twice.
                    let mut data: Vec<(usize, u32)> = (0..len).map(|i| (i, 0)).collect();
                    for_chunks(&mut data, unit, workers, |first_unit, band| {
                        assert!(!band.is_empty(), "{case}: empty band");
                        assert_eq!(band[0].0, first_unit * unit, "{case}");
                        for (_, visits) in band {
                            *visits += 1;
                        }
                    });
                    assert!(data.iter().enumerate().all(|(i, &e)| e == (i, 1)), "{case}");
                }
            }
        }
    }

    #[test]
    fn join_keeps_input_order() {
        for len in lens() {
            let out = join(0..len, |i| i * 7);
            assert_eq!(out, (0..len).map(|i| i * 7).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn map_with_runs_items_concurrently() {
        // A rendezvous with a timeout: each item waits for the other to
        // arrive, so two concurrent workers meet, while a serial map times
        // out on item 0 instead of hanging.
        let arrived = Mutex::new(0usize);
        let all_here = Condvar::new();
        let met = map_with(
            2,
            2,
            || (),
            |_, _| {
                let mut count = arrived.lock().expect("no item panics holding the lock");
                *count += 1;
                all_here.notify_all();
                let timeout = Duration::from_secs(10);
                let (_count, wait) = all_here
                    .wait_timeout_while(count, timeout, |count| *count < 2)
                    .expect("no item panics holding the lock");
                !wait.timed_out()
            },
        );
        assert_eq!(met, [true, true]);
    }

    #[test]
    fn every_shape_reraises_the_original_payload() {
        let len = 9;
        for at in [0, len / 2, len - 1] {
            let expect = format!("item {at} failed");
            for workers in [1usize, 2, 3] {
                let text = panic_text(|| {
                    map_with(len, workers, || (), |_, i| assert!(i != at, "item {i} failed"));
                });
                assert_eq!(text, expect, "map_with, workers {workers}");

                let mut data: Vec<usize> = (0..len).collect();
                let text = panic_text(|| {
                    for_chunks(&mut data, 1, workers, |_, band| {
                        for &i in &*band {
                            assert!(i != at, "item {i} failed");
                        }
                    });
                });
                assert_eq!(text, expect, "for_chunks, workers {workers}");
            }
            let text = panic_text(|| {
                join(0..len, |i| assert!(i != at, "item {i} failed"));
            });
            assert_eq!(text, expect, "join");
        }
    }

    #[test]
    fn claiming_stops_after_a_panic() {
        // 64 items of 2 ms each on 2 workers, item 0 panicking at once: the
        // other worker finishes the item it holds and claims no more. Without
        // the stop flag it would run all 63 others; the bound leaves room
        // for a loaded host. The other items wait for item 0 to start, so a
        // slow thread start cannot let one worker finish everything first.
        let started = AtomicUsize::new(0);
        let zero_started = AtomicBool::new(false);
        let text = panic_text(|| {
            map_with(
                64,
                2,
                || (),
                |_, i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        zero_started.store(true, Ordering::SeqCst);
                        panic!("item 0 failed");
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !zero_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                        thread::yield_now();
                    }
                    thread::sleep(Duration::from_millis(2));
                },
            );
        });
        assert_eq!(text, "item 0 failed");
        let started = started.into_inner();
        assert!(started <= 32, "{started} of 64 items started after the panic");
    }

    #[test]
    fn non_string_payloads_are_named_opaque() {
        assert_eq!(panic_message(&7u32), "<non-string panic payload>");
    }
}
