//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer, and the per-layer self-time attribution built on them.
//!
//! A span has a static name, a start and end on one monotonic clock, the
//! span that caused it, and the operation (pass or request) it belongs to.
//! Spans nest through a thread-local "current span"; a sweep worker thread
//! adopts the executor span as its parent with [`adopt`]. Recording is off
//! unless [`enable`] was called, and then costs two clock reads and one
//! uncontended lock per span. Spans stay in memory until [`take`].
//!
//! Names starting with `ref.` mark reference measurements (an
//! uninstrumented emulator run beside a sanitized one, an offline replay
//! of a served sweep). They and everything under them are written out but
//! left out of the attribution totals; workloads use their self times to
//! split a layer's self time with [`Attribution::split`].

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since recording was enabled.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// The pass or request id shared by every span of one operation.
    pub op: u32,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

/// The span new spans on this thread nest under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parent {
    id: u32,
    op: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<Parent> = const { Cell::new(Parent { id: 0, op: 0 }) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Recording is on and not paused on this thread.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !PAUSED.with(Cell::get)
}

/// Runs `f` without recording spans on this thread: the untraced half of
/// a traced run, timed for the tracing overhead.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let saved = PAUSED.with(|p| p.replace(true));
    let out = f();
    PAUSED.with(|p| p.set(saved));
    out
}

/// This thread's current span, to hand to worker threads.
pub fn current() -> Parent {
    CURRENT.with(Cell::get)
}

/// Makes `parent` this thread's current span (sweep workers call this
/// once, when the executor builds their state).
pub fn adopt(parent: Parent) {
    CURRENT.with(|c| c.set(parent));
}

/// Runs `f` inside a span named `name`, nested under the current span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let parent = current();
    record(name, parent.id, parent.op, f)
}

/// Runs `f` as the root span of operation `op`.
pub fn root<R>(name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
    record(name, 0, op, f)
}

/// Reserves the id of a root span of operation `op` that is recorded
/// later with [`record_interval`], so its children can name it first.
pub fn reserve(op: u32) -> Parent {
    Parent {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        op,
    }
}

/// Records a span whose interval the caller measured (an open-loop
/// request is timed from when it was due, before any closure runs).
/// `me` is a [`reserve`]d root, or `None` for a fresh child of `parent`.
pub fn record_interval(
    name: &'static str,
    me: Option<Parent>,
    parent: Parent,
    start: Instant,
    end: Instant,
) {
    if !enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let (id, op) = match me {
        Some(me) => (me.id, me.op),
        None => (NEXT_ID.fetch_add(1, Ordering::Relaxed), parent.op),
    };
    push(Span {
        name,
        id,
        parent: parent.id,
        op,
        thread: THREAD.with(|t| *t),
        start: ns(start),
        end: ns(end),
    });
}

fn record<R>(name: &'static str, parent: u32, op: u32, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let saved = CURRENT.with(|c| c.replace(Parent { id, op }));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    CURRENT.with(|c| c.set(saved));
    push(Span {
        name,
        id,
        parent,
        op,
        thread: THREAD.with(|t| *t),
        start,
        end,
    });
    out
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span buffer lock poisoned by a panicking span")
        .push(span);
}

/// Removes and returns every recorded span, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer lock poisoned by a panicking span"),
    );
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Writes spans as a JSON array of
/// `{"name","id","parent","op","thread","start_ns","end_ns"}` objects.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.id,
            s.parent,
            s.op,
            s.thread,
            s.start,
            s.end
        )?;
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}

/// Per-layer self time: a span's duration minus the part of it its child
/// spans cover, summed by span name. Spans under a `ref.` root are kept
/// apart in `reference`.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time by layer (span name), nanoseconds of thread time.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time of reference spans by name, nanoseconds.
    pub reference: BTreeMap<&'static str, u64>,
    /// Self time of root spans: time inside an operation that no layer
    /// span covers.
    pub unattributed_ns: u64,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Self {
        let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(&p) = index.get(&s.parent) {
                children[p].push((s.start, s.end));
            }
        }
        let under_ref = |mut i: usize| loop {
            match index.get(&spans[i].parent) {
                Some(&p) => i = p,
                None => return spans[i].name.starts_with("ref."),
            }
        };
        let mut out = Attribution::default();
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.end.saturating_sub(s.start) - covered(&mut children[i], s.start, s.end);
            if under_ref(i) {
                *out.reference.entry(s.name).or_default() += self_ns;
            } else if index.contains_key(&s.parent) {
                *out.self_ns.entry(s.name).or_default() += self_ns;
            } else {
                out.unattributed_ns += self_ns;
            }
        }
        out
    }

    /// All attributed and unattributed thread time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.values().sum::<u64>() + self.unattributed_ns
    }

    /// Moves up to `ns` of `from`'s self time to each named part in turn:
    /// how a layer measured as one span (a sanitized launch, a served
    /// miss) is split by reference measurements of its parts.
    pub fn split(&mut self, from: &'static str, parts: &[(&'static str, u64)]) {
        for &(name, ns) in parts {
            let available = self.self_ns.get(from).copied().unwrap_or(0);
            let moved = ns.min(available);
            if moved > 0 {
                *self.self_ns.entry(from).or_default() -= moved;
                *self.self_ns.entry(name).or_default() += moved;
            }
        }
    }

    /// A layer's share of all thread time, in percent.
    pub fn pct(&self, layer: &str) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.self_ns.get(layer).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Share of all thread time some layer span covers, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.unattributed_ns as f64 / total as f64)
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on different threads cover 10..40 of
        // the parent's 0..50; the grandchild is its parent's only child.
        let spans = [
            span("op", 1, 0, 0, 100),
            span("exec", 2, 1, 0, 50),
            span("item", 3, 2, 10, 30),
            span("item", 4, 2, 20, 40),
            span("meter", 5, 3, 12, 18),
            span("ref.emu", 6, 0, 100, 130),
            span("meter", 7, 6, 100, 110),
        ];
        let mut a = Attribution::of(&spans);
        assert_eq!(a.unattributed_ns, 50);
        assert_eq!(a.self_ns["exec"], 20);
        assert_eq!(a.self_ns["item"], 20 - 6 + 20);
        assert_eq!(a.self_ns["meter"], 6);
        assert_eq!(a.reference["ref.emu"], 20);
        assert_eq!(a.reference["meter"], 10);
        assert_eq!(a.total_ns(), 50 + 20 + 34 + 6);
        a.split("item", &[("emu", 30), ("pre", 10)]);
        assert_eq!(
            (a.self_ns["item"], a.self_ns["emu"], a.self_ns["pre"]),
            (0, 30, 4)
        );
    }
}
