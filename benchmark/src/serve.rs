//! `serve-mixed`: an in-process `enprop-serve` daemon queried for K40c
//! N = 512 sweeps with 4 products, streamed in chunks of 16. The daemon runs
//! one sweep worker per request and keeps its persistent cache in the work
//! directory. Set-up starts it and computes the 8 hot keys. Then one
//! request in four asks for a fresh seed and the rest for hot keys:
//!
//! - an open loop sends at a seeded Poisson 20 req/s for 60% of the run
//!   over 2 connections, each request timed from when it was due — the
//!   latency metrics;
//! - a closed loop keeps 2 connections busy for the rest, in batches —
//!   throughput.
//!
//! The closed loop's batches are scaled by host-speed readings (see
//! [`speed`]) taken between them, while the daemon is idle; open-loop
//! latencies are reported as measured.
//!
//! A hit exercises only the HTTP layer, the accept loop and the cache; a
//! miss is a small sweep dominated by the Student-t repeat loop rather than
//! the meter, and appends to `cache.log`. The traced run replays sampled
//! cold requests offline through the public pieces the daemon calls,
//! requires each body to equal the served one bitwise, and splits the
//! served misses' time by the replays' layer times.

use crate::speed::Gauge;
use crate::sweep::{counted_runner, estimates, meter_metrics};
use crate::{median_rate, ms, overhead_pct, percentile, setup, trace, Ctx, Run, Timed, WORKERS};
use enprop_apps::parallel::split_seed;
use enprop_apps::{GpuMatMulApp, SweepExecutor};
use enprop_gpusim::{GpuArch, TiledDgemmConfig};
use enprop_pareto::{BiPoint, FrontTracker};
use enprop_serve::http::{http_request, Response};
use enprop_serve::{ServeConfig, Server, SweepRequest};
use serde::Serialize;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const ARCH: &str = "k40c";
const N: usize = 512;
const PRODUCTS: usize = 4;
const CHUNK: usize = 16;
const HOT_KEYS: usize = 8;
/// One request in this many asks for a fresh seed; the rest for hot keys.
const COLD_EVERY: usize = 4;
/// Open-loop arrivals per second. At 50/s the median request waited
/// behind misses whenever the shared host slowed down, and its latency
/// ranged from 2.3 to 9.8 ms across ten seeds.
const RATE_PER_S: f64 = 20.0;
/// Share of the run the open loop takes; the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.6;
/// A generator whose lateness p99 exceeds this invalidates the run: it
/// fell so far behind its schedule that arrivals bunched, and stalls of
/// its own would pass as server latency. The limit is the mean gap between
/// arrivals. A limit of 5 ms failed runs whenever the shared host got
/// busy: at 50 req/s the lateness p99 reached 27 ms there.
const LATE_LIMIT_MS: f64 = 1e3 / RATE_PER_S;
/// Cold requests re-requested after the loops (hit and `no_cache` bodies
/// must equal the cold one) and, in the traced run, replayed offline.
const SAMPLED_COLD: usize = 8;

/// Independent random streams drawn from `--seed`.
const HOT_STREAM: u64 = 0x686f74;
const COLD_STREAM: u64 = 0x636f6c64;
const ARRIVAL_STREAM: u64 = 0x6172726976;
const OPEN_STREAM: u64 = 0x6f70656e;
const CLOSED_STREAM: u64 = 0x636c6f736564;

#[derive(Debug, Clone, Copy)]
enum Key {
    /// Index into the hot seeds.
    Hot(usize),
    /// A seed no other request uses.
    Cold(u64),
}

/// The request stream, a pure function of `--seed`.
struct Keys {
    seed: u64,
}

impl Keys {
    fn draw(&self, stream: u64, i: usize) -> u64 {
        split_seed(self.seed ^ stream, i)
    }

    fn uniform(&self, stream: u64, i: usize) -> f64 {
        (self.draw(stream, i) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn hot_seed(&self, j: usize) -> u64 {
        self.draw(HOT_STREAM, j)
    }

    /// Request `i` of stream `stream`: one cold request in each block of
    /// [`COLD_EVERY`], at a seeded position, so every run has the same mix.
    fn pick(&self, stream: u64, i: usize) -> Key {
        let block = i / COLD_EVERY;
        if self.draw(stream, block) % COLD_EVERY as u64 == (i % COLD_EVERY) as u64 {
            Key::Cold(self.draw(COLD_STREAM ^ stream, i))
        } else {
            Key::Hot((self.draw(HOT_STREAM ^ stream, i) % HOT_KEYS as u64) as usize)
        }
    }

    fn seed_of(&self, key: Key) -> u64 {
        match key {
            Key::Hot(j) => self.hot_seed(j),
            Key::Cold(seed) => seed,
        }
    }
}

fn request(seed: u64, no_cache: bool) -> SweepRequest {
    SweepRequest {
        arch: ARCH.into(),
        n: N,
        products: PRODUCTS,
        seed,
        chunk: CHUNK,
        no_cache,
    }
}

fn post(addr: SocketAddr, seed: u64, no_cache: bool) -> Result<Response, String> {
    http_request(
        addr,
        "POST",
        "/sweep",
        request(seed, no_cache).to_json().as_bytes(),
    )
}

/// The daemon and the bodies of its hot keys; stopped on drop.
struct Daemon {
    server: Option<Server>,
    hot: Vec<Vec<u8>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf, keys: &Keys) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            threads: 1,
            read_timeout: Duration::from_secs(10),
            cache_dir: Some(dir.clone()),
        };
        let server =
            Server::start(config, "127.0.0.1:0").map_err(|e| format!("start daemon: {e}"))?;
        let mut daemon = Daemon {
            server: Some(server),
            hot: Vec::new(),
            dir,
        };
        for j in 0..HOT_KEYS {
            let reply = post(daemon.addr(), keys.hot_seed(j), false)?;
            if reply.status != 200 {
                return Err(format!("hot key {j}: status {}", reply.status));
            }
            daemon.hot.push(reply.body);
        }
        Ok(daemon)
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("daemon running").addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One request as the client saw it. The reply is checked as it arrives
/// and its body dropped, so the peak RSS is the daemon's, not the
/// benchmark's.
struct Served {
    key: Key,
    /// Why the reply is wrong, if it is.
    error: Option<String>,
    miss: bool,
    body_len: usize,
    /// A sampled cold body, kept for the checks after the loops.
    body: Option<Vec<u8>>,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
    traced: bool,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

/// What a client needs to send requests and judge their replies.
#[derive(Clone, Copy)]
struct Client<'a> {
    addr: SocketAddr,
    keys: &'a Keys,
    /// The hot keys' bodies, computed at set-up.
    hot: &'a [Vec<u8>],
}

impl Client<'_> {
    /// Sends one request, checks the reply (a 200; a hot key hits with
    /// the set-up bytes; a fresh seed misses with a complete sweep) and,
    /// when traced, records an `op.request` root over `serve.queue` (due to
    /// sent) and `serve.http` (sent to done).
    fn serve(&self, key: Key, due: Instant, op: u32, traced: bool, keep: bool) -> Served {
        let seed = self.keys.seed_of(key);
        let sent = Instant::now();
        let reply = post(self.addr, seed, false);
        let done = Instant::now();
        if traced {
            let root = trace::reserve(op);
            trace::record_interval("serve.queue", None, root, due, sent);
            trace::record_interval("serve.http", None, root, sent, done);
            trace::record_interval(
                "op.request",
                Some(root),
                trace::Parent::default(),
                due,
                done,
            );
        }
        let (error, miss, body) = match reply {
            Err(e) => (Some(format!("seed {seed}: {e}")), false, Vec::new()),
            Ok(r) => {
                let cache = r.header("X-Cache").map(str::to_owned);
                let miss = cache.as_deref() == Some("miss");
                let right = match key {
                    Key::Hot(j) => cache.as_deref() == Some("hit") && r.body == self.hot[j],
                    Key::Cold(_) => miss && is_complete(&r.body),
                };
                let error = (r.status != 200 || !right).then(|| {
                    format!(
                        "{key:?} seed {seed}: status {}, X-Cache {cache:?}, wrong body",
                        r.status
                    )
                });
                (error, miss, r.body)
            }
        };
        let body_len = body.len();
        let body = (keep && error.is_none()).then_some(body);
        Served {
            key,
            error,
            miss,
            body_len,
            body,
            due,
            sent,
            done,
            traced,
        }
    }
}

struct OpenLoop {
    served: Vec<Served>,
    /// How late the generator dispatched each request, ms.
    late_ms: Vec<f64>,
    /// Most requests dispatched but not yet answered.
    backlog_peak: usize,
}

/// Poisson arrivals at [`RATE_PER_S`] for `seconds`, dispatched on schedule
/// to [`WORKERS`] connection threads through a queue. The first
/// [`SAMPLED_COLD`] cold bodies are kept.
fn open_loop(client: Client<'_>, seconds: f64, traced: bool) -> OpenLoop {
    let mut schedule = Vec::new();
    let (mut t, mut kept) = (0.0, 0);
    loop {
        let k = schedule.len();
        t += -(1.0 - client.keys.uniform(ARRIVAL_STREAM, k)).ln() / RATE_PER_S;
        if t >= seconds {
            break;
        }
        let key = client.keys.pick(OPEN_STREAM, k);
        let keep = matches!(key, Key::Cold(_)) && kept < SAMPLED_COLD;
        kept += usize::from(keep);
        schedule.push((t, key, keep));
    }
    let (tx, rx) = mpsc::channel::<(u32, Instant, Key, bool)>();
    let rx = Mutex::new(rx);
    let answered = AtomicUsize::new(0);
    let served = Mutex::new(Vec::with_capacity(schedule.len()));
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut backlog_peak = 0;
    let start = Instant::now() + Duration::from_millis(10);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let job = rx
                    .lock()
                    .expect("queue lock poisoned by a panicking client")
                    .recv();
                let Ok((op, due, key, keep)) = job else {
                    return;
                };
                let s = client.serve(key, due, op, traced, keep);
                answered.fetch_add(1, Ordering::SeqCst);
                served
                    .lock()
                    .expect("tally lock poisoned by a panicking client")
                    .push(s);
            });
        }
        for (i, (offset, key, keep)) in schedule.into_iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            tx.send((i as u32, due, key, keep))
                .expect("client threads outlive the generator");
            backlog_peak = backlog_peak.max(i + 1 - answered.load(Ordering::SeqCst));
        }
        drop(tx);
    });
    OpenLoop {
        served: served
            .into_inner()
            .expect("tally lock poisoned by a panicking client"),
        late_ms,
        backlog_peak,
    }
}

/// Requests each connection sends per closed-loop batch: a multiple of
/// [`COLD_EVERY`], so every batch has the same mix of hits and misses.
const BATCH: usize = 16;

/// Batches of [`BATCH`] requests on each of [`WORKERS`] connections, each
/// connection sending its next request as soon as the last is answered,
/// until `seconds` have passed. The host's speed is read between batches,
/// while the daemon is idle, to scale each batch's time. Traced runs trace
/// every other request and leave the rest untraced, for the tracing
/// overhead. Returns every request and each batch's time.
fn closed_loop(client: Client<'_>, seconds: f64, traced: bool) -> (Vec<Served>, Timed) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut served = Vec::new();
    let mut batches = Timed::default();
    let mut gauge = Gauge::new();
    while batches.ms.is_empty() || Instant::now() < deadline {
        let first = batches.ms.len() * BATCH;
        let start = Instant::now();
        let batch: Vec<Served> = std::thread::scope(|scope| {
            let connections: Vec<_> = (0..WORKERS)
                .map(|c| {
                    scope.spawn(move || {
                        (first..first + BATCH)
                            .map(|k| {
                                let key = client.keys.pick(CLOSED_STREAM + c as u64, k);
                                let op = 1_000_000 * (c as u32 + 1) + k as u32;
                                let trace = traced && k % 2 == 0;
                                client.serve(key, Instant::now(), op, trace, false)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            connections
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        batches.push(&mut gauge, ms(start.elapsed()));
        served.extend(batch);
    }
    batches.readings = gauge.readings;
    (served, batches)
}

fn is_complete(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    text.ends_with('\n')
        && text
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"done\":true"))
}

/// A served cold body, a later hit for the same key, and a `no_cache`
/// recomputation must be the same bytes.
fn check_cold_bodies(run: &mut Run, daemon: &Daemon, cold: &[(u64, Vec<u8>)]) {
    for (seed, body) in cold {
        let hit = post(daemon.addr(), *seed, false);
        run.check(
            matches!(&hit, Ok(r) if r.header("X-Cache") == Some("hit") && r.body == *body),
            || format!("cold seed {seed}: the cached hit differs from the cold body"),
        );
        let fresh = post(daemon.addr(), *seed, true);
        run.check(matches!(&fresh, Ok(r) if r.body == *body), || {
            format!("cold seed {seed}: the no_cache recomputation differs from the cold body")
        });
    }
}

pub fn mixed(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let keys = Keys { seed: ctx.seed };
    let (daemon, setups) = setup(|i| Daemon::start(ctx.work.join(format!("cache-{i}")), &keys));
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            run.errors.push(e);
            return run;
        }
    };

    let client = Client {
        addr: daemon.addr(),
        keys: &keys,
        hot: &daemon.hot,
    };
    let mut open = open_loop(client, ctx.seconds * OPEN_SHARE, ctx.trace);
    let (closed, batches) = closed_loop(client, ctx.seconds * (1.0 - OPEN_SHARE), ctx.trace);

    for s in open.served.iter().chain(&closed) {
        if let Some(e) = &s.error {
            run.errors.push(e.clone());
            run.failed += 1;
        }
    }
    let cold: Vec<(u64, Vec<u8>)> = open
        .served
        .iter_mut()
        .filter_map(|s| Some((keys.seed_of(s.key), s.body.take()?)))
        .collect();
    run.attempted = (open.served.len() + closed.len()) as u64;
    check_cold_bodies(&mut run, &daemon, &cold);
    let late_p99 = percentile(&open.late_ms, 99.0);
    run.check(late_p99 <= LATE_LIMIT_MS, || {
        format!("invalid run: generator lateness p99 {late_p99:.3} ms exceeds {LATE_LIMIT_MS} ms")
    });
    // A request's latency is partly waiting (loopback, the accept loop),
    // which a slower host does not stretch as it stretches the reference
    // loop: when the loop ran 1.8 times slower than on a quiet host, the
    // median request took 1.14 times as long. So it is reported as
    // measured, not scaled.
    let latency = Timed::as_measured(open.served.iter().map(Served::latency_ms).collect());
    let misses = |v: &[Served]| v.iter().filter(|s| s.miss).count();
    run.notes.push(format!(
        "open loop: {} requests ({} misses) at {RATE_PER_S}/s, generator late p50 {:.3} ms p99 {late_p99:.3} ms, backlog peak {}",
        open.served.len(),
        misses(&open.served),
        percentile(&open.late_ms, 50.0),
        open.backlog_peak
    ));
    run.notes.push(format!(
        "closed loop: {} requests ({} misses) on {WORKERS} connections in {} batches, {:.3} s as measured; reference loop between batches: median {:.3} ms",
        closed.len(),
        misses(&closed),
        batches.ms.len(),
        batches.raw_ms.iter().sum::<f64>() / 1e3,
        percentile(&batches.readings, 50.0)
    ));

    if !ctx.trace {
        let requests = vec![(WORKERS * BATCH) as f64; batches.ms.len()];
        run.end_to_end(median_rate(&requests, &batches.ms), &latency, &setups);
        return run;
    }

    // Offline replays of the sampled cold requests split the served
    // misses' time into the sweep layers.
    let (mut reps, mut configs) = (0, 0);
    for (op, (seed, body)) in cold.iter().enumerate() {
        let (replayed, points) = trace::root("ref.replay", op as u32, || replay(*seed));
        run.check(replayed == *body, || {
            format!("cold seed {seed}: traced replay differs from the served body")
        });
        reps += points.iter().map(|p| p.reps).sum::<usize>();
        configs += points.len();
    }
    run.set("stats.protocol.reps", reps as f64);
    run.set(
        "stats.protocol.reps_per_config",
        reps as f64 / configs.max(1) as f64,
    );
    let spans = trace::take();
    let mut attribution = trace::Attribution::of(&spans);
    let traced: Vec<&Served> = open
        .served
        .iter()
        .chain(&closed)
        .filter(|s| s.traced)
        .collect();
    let scale = traced.iter().filter(|s| s.miss).count() as f64 / cold.len().max(1) as f64;
    let parts: Vec<(&'static str, u64)> = [
        "power.meter",
        "power.baseline",
        "stats.protocol",
        "apps.parallel",
        "apps.enumerate",
        "gpu.model",
        "pareto.front",
        "bench.serialize",
    ]
    .iter()
    .map(|&l| {
        (
            l,
            (attribution.reference.get(l).copied().unwrap_or(0) as f64 * scale) as u64,
        )
    })
    .collect();
    attribution.split("serve.http", &parts);
    run.attribution(&attribution, spans.len());
    meter_metrics(&mut run, &attribution.reference);

    let request_ms = |hit: bool| -> f64 {
        traced
            .iter()
            .filter(|s| s.miss != hit)
            .map(|s| ms(s.done - s.sent))
            .sum()
    };
    run.set(
        "serve.http.hit_time_pct",
        100.0 * request_ms(true) / (request_ms(true) + request_ms(false)),
    );
    run.set(
        "serve.http.body_bytes",
        traced.iter().map(|s| s.body_len).sum::<usize>() as f64,
    );
    let (traced_ms, untraced_ms): (Vec<_>, Vec<_>) = closed.iter().partition(|s| s.traced);
    let lat = |v: Vec<&Served>| v.iter().map(|s| s.latency_ms()).collect::<Vec<_>>();
    run.set(
        "trace.overhead_pct",
        overhead_pct(&lat(traced_ms), &lat(untraced_ms)),
    );
    run.tail(&latency.raw_ms);
    let stats = daemon.server.as_ref().expect("daemon running").stats();
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    run.set("serve.cache.hits", stats.cache_hits as f64);
    run.set("serve.cache.misses", stats.cache_misses as f64);
    run.set("serve.cache.coalesced", stats.cache_coalesced as f64);
    run.set(
        "serve.cache.hit_pct",
        100.0 * stats.cache_hits as f64 / lookups as f64,
    );
    run.set("serve.cache.entries", stats.cache_entries as f64);
    let log = std::fs::metadata(daemon.dir.join("cache.log")).map_or(0, |m| m.len());
    run.set("serve.cache.log_bytes", log as f64);
    run.set("serve.generator.backlog_peak", open.backlog_peak as f64);
    run.spans = spans;
    run
}

// The daemon's NDJSON lines, field for field; the replay must serialize
// to the served bytes.
#[derive(Serialize)]
struct FrontEntry {
    index: usize,
    config: String,
    time: f64,
    energy: f64,
}

#[derive(Serialize)]
struct FrontUpdate {
    chunk: usize,
    measured: usize,
    total: usize,
    front: Vec<FrontEntry>,
}

#[derive(Serialize)]
struct PointOut {
    config: String,
    time: f64,
    energy: f64,
    reps: usize,
    converged: bool,
}

#[derive(Serialize)]
struct SweepFinal {
    done: bool,
    workload: String,
    total: usize,
    front: Vec<FrontEntry>,
    points: Vec<PointOut>,
}

fn render_front(tracker: &FrontTracker, configs: &[TiledDgemmConfig]) -> Vec<FrontEntry> {
    tracker
        .front()
        .iter()
        .map(|(p, id)| FrontEntry {
            index: *id,
            config: configs[*id].to_string(),
            time: p.time,
            energy: p.energy,
        })
        .collect()
}

/// A cold request's response body, computed as the daemon computes it:
/// configurations measured in chunk-sized runs on one worker, reseeded by
/// sweep index, each run merged into an incremental front and emitted as
/// one NDJSON line, then the final line. Returns the body and the points.
fn replay(seed: u64) -> (Vec<u8>, Vec<PointOut>) {
    let app = GpuMatMulApp::new(GpuArch::k40c(), PRODUCTS);
    let estimates = estimates(&app, N);
    let configs: Vec<TiledDgemmConfig> = estimates.iter().map(|(c, _)| *c).collect();
    let exec = SweepExecutor::new(seed).with_threads(1);
    let total = configs.len();
    let indices: Vec<usize> = (0..total).collect();
    let mut tracker = FrontTracker::new();
    let mut points = Vec::with_capacity(total);
    let mut body = Vec::new();
    for (ordinal, chunk) in indices.chunks(CHUNK).enumerate() {
        let measured = trace::span("apps.parallel", || {
            let parent = trace::current();
            exec.map_with(
                chunk,
                || {
                    trace::adopt(parent);
                    counted_runner()
                },
                |runner, &i, _| {
                    trace::span("stats.protocol", || {
                        runner.reseed(exec.config_seed(i));
                        let e = &estimates[i].1;
                        runner.measure(e.time, e.steady_power, e.warmup_power, e.warmup_time)
                    })
                },
            )
        });
        trace::span("pareto.front", || {
            for (&i, m) in chunk.iter().zip(&measured) {
                let (time, energy) = (m.time.value(), m.dynamic_energy.value());
                tracker.insert(BiPoint::new(time, energy), i);
                points.push(PointOut {
                    config: configs[i].to_string(),
                    time,
                    energy,
                    reps: m.reps,
                    converged: m.converged,
                });
            }
        });
        let update = FrontUpdate {
            chunk: ordinal + 1,
            measured: points.len(),
            total,
            front: render_front(&tracker, &configs),
        };
        let line = trace::span("bench.serialize", || serde_json::to_string(&update));
        body.extend_from_slice(line.expect("serialize front update").as_bytes());
        body.push(b'\n');
    }
    let last = SweepFinal {
        done: true,
        workload: format!("gpu-matmul/{ARCH}/N={N}/P={PRODUCTS}"),
        total,
        front: render_front(&tracker, &configs),
        points,
    };
    let line = trace::span("bench.serialize", || serde_json::to_string(&last));
    body.extend_from_slice(line.expect("serialize final sweep").as_bytes());
    body.push(b'\n');
    (body, last.points)
}
