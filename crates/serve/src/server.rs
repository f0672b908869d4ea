//! The sweep-serving daemon: accept loop, worker pool, request lifecycle,
//! and the streamed sweep computation.
//!
//! ## Request lifecycle
//!
//! 1. The accept thread blocks in `accept` and hands each connection to a
//!    fixed pool of handler threads through a bounded queue. The pool has
//!    W = max(host cores, 4) threads, spawned once at start, and the queue
//!    holds Q = 16 × W connections; neither is configured. When the queue
//!    is full, the accept thread itself answers a typed 503 with
//!    `Retry-After` and closes, so the daemon holds at most W + Q
//!    connections and W + 1 threads of its own (a miss served with
//!    `threads` above 1 fans its sweep out to that many more while it
//!    measures). A handler runs each request
//!    under `catch_unwind`: a panicking request answers 500 and dies alone
//!    — it cannot take the daemon or any other client down.
//!    [`Server::shutdown`] sets a stop flag and wakes `accept` with one
//!    self-connect, which is never dispatched.
//! 2. [`crate::http::read_request`] parses the request under the socket
//!    read timeout; malformed, torn, oversized, or stalled requests answer
//!    a typed 4xx JSON body and close.
//! 3. `POST /sweep` parses the JSON request, derives the canonical cache
//!    key, and probes the [`ResultCache`]: a hit sends the cached bytes
//!    (`X-Cache: hit`); a miss computes the sweep and streams each update
//!    as it is produced (`X-Cache: miss`); concurrent requests for the
//!    same key coalesce onto the one computation and then send the same
//!    bytes (`X-Cache: hit`).
//! 4. A fixed reply or a hit is framed in memory and sent with one write;
//!    a miss sends its head, then one write per front update. A miss ends
//!    the connection before it persists its body: the client reads to
//!    EOF, and the fsync of `cache.log` need not delay that EOF.
//!
//! ## Cache key derivation
//!
//! The canonical key folds in everything that changes the response:
//! `gpu-matmul/{arch}/N={n}/P={products}/seed={seed}/chunk={chunk}` — the
//! same convention as the checkpoint journal's manifest workload string.
//! Because configuration `i` of a sweep is always measured under
//! `split_seed(seed, i)` on a worker-local rig, the response body is a
//! pure function of this key at *any* worker thread count — which is what
//! makes serving cached bytes sound, and bitwise-exact rather than
//! approximate.
//!
//! ## Streaming-front protocol
//!
//! The response is `Transfer-Encoding: chunked`, `application/x-ndjson`.
//! Configurations are measured in fixed `chunk`-sized runs of enumeration
//! order; after each run, its points merge into a [`FrontTracker`] and one
//! NDJSON line — one HTTP chunk — carries the current incremental Pareto
//! front. The final line carries the complete point set and front. Cache
//! hits replay the identical NDJSON bytes (chunk boundaries may differ;
//! the de-chunked body is bitwise-identical).

use crate::cache::{content_hash, Lookup, ResultCache};
use crate::http::{read_request, write_response, ChunkedWriter, Request};
use enprop_apps::parallel::SweepExecutor;
use enprop_apps::GpuMatMulApp;
use enprop_gpusim::GpuArch;
use enprop_pareto::front::BiPoint;
use enprop_pareto::incremental::FrontTracker;
use serde::{Serialize, Value};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fewest handler threads: coalesced waiters and long misses each hold
/// one, and a handful of clients must not find every handler taken.
const MIN_WORKERS: usize = 4;
/// Queued connections per handler thread before the daemon sheds load.
const QUEUE_PER_WORKER: usize = 16;
/// How long [`Server::shutdown`] waits for queued and in-flight requests.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);
/// Pause after a failed `accept` (say, out of file descriptors), so that
/// a persistent failure does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sweep worker threads per request (0 = all available cores). The
    /// response is bitwise-identical at any setting.
    pub threads: usize,
    /// Socket read timeout — bounds how long a torn or stalled client can
    /// hold a handler thread.
    pub read_timeout: Duration,
    /// Directory for the persistent result store (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { threads: 0, read_timeout: Duration::from_secs(10), cache_dir: None }
    }
}

/// A parsed, validated sweep request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Architecture name: `k40c` or `p100`.
    pub arch: String,
    /// Matrix dimension N.
    pub n: usize,
    /// Total products `G × R` every configuration must compute.
    pub products: usize,
    /// The sweep seed (configuration `i` measures under `split_seed(seed, i)`).
    pub seed: u64,
    /// Configurations per streamed front update.
    pub chunk: usize,
    /// Bypass the cache entirely (read *and* write) — the bench uses this
    /// to prove cached bytes equal freshly computed bytes.
    pub no_cache: bool,
}

/// Bounds that keep one request from monopolizing the daemon.
const MAX_N: usize = 32768;
const MAX_PRODUCTS: usize = 64;
const MAX_CHUNK: usize = 1024;

impl SweepRequest {
    /// Parses and validates the JSON request body. Errors are the `detail`
    /// of a 400 response.
    pub fn from_json(body: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let value = serde_json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
        let field_u64 = |name: &str, default: Option<u64>| -> Result<u64, String> {
            match value.field(name) {
                Ok(Value::UInt(v)) => {
                    u64::try_from(*v).map_err(|_| format!("`{name}` out of range"))
                }
                Ok(Value::Int(v)) => {
                    u64::try_from(*v).map_err(|_| format!("`{name}` must be non-negative"))
                }
                Ok(other) => Err(format!("`{name}` must be an integer, found {}", other.kind())),
                Err(e) => default.ok_or_else(|| e.to_string()),
            }
        };
        let arch = match value.field("arch") {
            Ok(v) => v.as_str().map_err(|e| e.to_string())?.to_string(),
            Err(e) => return Err(e.to_string()),
        };
        parse_arch(&arch)?;
        let n = field_u64("n", None)? as usize;
        let products = field_u64("products", None)? as usize;
        let seed = field_u64("seed", Some(42))?;
        let chunk = field_u64("chunk", Some(32))? as usize;
        let no_cache = match value.field("no_cache") {
            Ok(Value::Bool(b)) => *b,
            Ok(other) => return Err(format!("`no_cache` must be a bool, found {}", other.kind())),
            Err(_) => false,
        };
        if n == 0 || n > MAX_N {
            return Err(format!("`n` must be in 1..={MAX_N}, got {n}"));
        }
        if products == 0 || products > MAX_PRODUCTS {
            return Err(format!("`products` must be in 1..={MAX_PRODUCTS}, got {products}"));
        }
        if chunk == 0 || chunk > MAX_CHUNK {
            return Err(format!("`chunk` must be in 1..={MAX_CHUNK}, got {chunk}"));
        }
        Ok(Self { arch, n, products, seed, chunk, no_cache })
    }

    /// The canonical cache key — everything that changes the response.
    /// `no_cache` is deliberately excluded: a bypassed computation produces
    /// the same bytes, that being the property the flag exists to prove.
    pub fn canonical_key(&self) -> String {
        format!(
            "gpu-matmul/{}/N={}/P={}/seed={}/chunk={}",
            self.arch, self.n, self.products, self.seed, self.chunk
        )
    }

    /// Renders this request as the JSON body a client would POST.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"arch\":\"{}\",\"n\":{},\"products\":{},\"seed\":{},\"chunk\":{}{}}}",
            self.arch,
            self.n,
            self.products,
            self.seed,
            self.chunk,
            if self.no_cache { ",\"no_cache\":true" } else { "" }
        )
    }
}

fn parse_arch(name: &str) -> Result<GpuArch, String> {
    match name {
        "k40c" => Ok(GpuArch::k40c()),
        "p100" => Ok(GpuArch::p100_pcie()),
        other => Err(format!("unknown arch {other:?} (expected \"k40c\" or \"p100\")")),
    }
}

/// Daemon-wide counters surfaced by `GET /stats`.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    sweeps: AtomicU64,
    bad_requests: AtomicU64,
    panics: AtomicU64,
    rejected: AtomicU64,
}

/// Snapshot of [`ServeStats`] plus the pool bounds and the cache counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServeStatsSnapshot {
    /// Requests accepted (all endpoints).
    pub requests: u64,
    /// Sweep requests served.
    pub sweeps: u64,
    /// Requests rejected with a typed 4xx.
    pub bad_requests: u64,
    /// Handler panics converted to 500s.
    pub panics: u64,
    /// Handler threads in the pool.
    pub workers: usize,
    /// Connections the queue holds before the daemon sheds load.
    pub queue_capacity: usize,
    /// Connections shed with a 503 because the queue was full.
    pub rejected: u64,
    /// Cache hits (including coalesced waiters).
    pub cache_hits: u64,
    /// Cache misses (computations performed).
    pub cache_misses: u64,
    /// Requests that coalesced onto an in-flight computation.
    pub cache_coalesced: u64,
    /// Completed entries in memory.
    pub cache_entries: usize,
    /// Entries replayed from the persistent store's clean log prefix at
    /// startup (0 for in-memory caches).
    pub cache_replayed: usize,
    /// Torn trailing bytes truncated from the persistent log during
    /// replay (a nonzero value records a crash mid-append that the store
    /// recovered from).
    pub cache_torn_tail_bytes: u64,
}

struct ServerState {
    config: ServeConfig,
    cache: ResultCache,
    stats: ServeStats,
    workers: usize,
    queue_capacity: usize,
}

/// A running daemon. Dropping does *not* stop it; call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    /// The accept thread, then the handlers.
    threads: Vec<JoinHandle<()>>,
    /// Disconnects once every daemon thread has exited: each holds a
    /// sender and nothing is ever sent.
    exited: Receiver<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), spawns the
    /// handler pool and starts the accept loop.
    pub fn start(config: ServeConfig, addr: &str) -> io::Result<Server> {
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::open(dir)?,
            None => ResultCache::in_memory(),
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = enprop_par::host_parallelism().max(MIN_WORKERS);
        let queue_capacity = QUEUE_PER_WORKER * workers;
        let state = Arc::new(ServerState {
            config,
            cache,
            stats: ServeStats::default(),
            workers,
            queue_capacity,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (alive, exited) = mpsc::channel::<()>();
        let (queue, connections) = mpsc::sync_channel::<TcpStream>(queue_capacity);
        let connections = Arc::new(Mutex::new(connections));
        let mut threads = Vec::with_capacity(workers + 1);
        threads.push({
            let (state, stop, alive) = (Arc::clone(&state), Arc::clone(&stop), alive.clone());
            std::thread::spawn(move || {
                let _alive = alive;
                accept_loop(&listener, &state, &stop, &queue);
            })
        });
        for _ in 0..workers {
            let (state, connections, alive) =
                (Arc::clone(&state), Arc::clone(&connections), alive.clone());
            threads.push(std::thread::spawn(move || {
                let _alive = alive;
                loop {
                    // One idle handler waits in `recv`, the others for the
                    // lock. Taking the connection in its own statement
                    // drops the guard before the request is handled.
                    let next = connections
                        .lock()
                        .expect("no handler panics while holding the queue")
                        .recv();
                    let Ok(stream) = next else { return };
                    handle_connection(&state, stream);
                }
            }));
        }
        Ok(Server { addr: local, state, stop, threads, exited })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStatsSnapshot {
        snapshot(&self.state)
    }

    /// What loading the persistent store found at startup.
    pub fn cache_load_report(&self) -> crate::cache::LoadReportDisk {
        self.state.cache.load_report()
    }

    /// Stops accepting, lets in-flight and queued requests finish, and
    /// waits up to 10 s for every daemon thread to exit; threads still
    /// busy after that are detached.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking `accept`: the loop sees the flag and returns,
        // closing the queue, and the handlers drain it and exit.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        if let Err(RecvTimeoutError::Disconnected) = self.exited.recv_timeout(SHUTDOWN_GRACE) {
            for handle in self.threads.drain(..) {
                let _ = handle.join();
            }
        }
    }

    /// Blocks this thread while the daemon serves (the standalone binary's
    /// main loop). Returns only if the accept thread dies.
    pub fn serve_forever(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Where a self-connect reaches a listener bound to `addr`: loopback when
/// it is bound to every interface.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    match addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
        other => other,
    }
}

fn snapshot(state: &ServerState) -> ServeStatsSnapshot {
    let cache = state.cache.stats();
    let load = state.cache.load_report();
    ServeStatsSnapshot {
        requests: state.stats.requests.load(Ordering::Relaxed),
        sweeps: state.stats.sweeps.load(Ordering::Relaxed),
        bad_requests: state.stats.bad_requests.load(Ordering::Relaxed),
        panics: state.stats.panics.load(Ordering::Relaxed),
        workers: state.workers,
        queue_capacity: state.queue_capacity,
        rejected: state.stats.rejected.load(Ordering::Relaxed),
        cache_hits: cache.hits + cache.coalesced,
        cache_misses: cache.misses,
        cache_coalesced: cache.coalesced,
        cache_entries: state.cache.entries(),
        cache_replayed: load.replayed,
        cache_torn_tail_bytes: load.torn_tail_bytes,
    }
}

/// Accepts until the stop flag is set, queueing each connection for the
/// handlers, or shedding it when the queue is full. Returning drops the
/// queue's sender, so the handlers exit once they have drained it.
fn accept_loop(
    listener: &TcpListener,
    state: &ServerState,
    stop: &AtomicBool,
    queue: &SyncSender<TcpStream>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // The shutdown wake (or a client racing it): never dispatched.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => match queue.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => shed(state, stream),
                Err(TrySendError::Disconnected(_)) => return,
            },
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Answers a connection the full queue cannot take: a typed 503 with
/// `Retry-After`, then close. This runs on the accept thread, so the
/// socket is made non-blocking and the thread never waits on the client.
fn shed(state: &ServerState, mut stream: TcpStream) {
    state.stats.rejected.fetch_add(1, Ordering::Relaxed);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let detail = format!(
        "all {} handlers are busy and {} connections are queued; retry later",
        state.workers, state.queue_capacity
    );
    let _ = write_response(
        &mut stream,
        503,
        "Service Unavailable",
        &[("Content-Type", "application/json"), ("Retry-After", "1")],
        &error_body("overloaded", &detail),
    );
    // End the reply with a FIN, then take the request bytes that have
    // arrived: closing a socket with unread bytes resets the connection,
    // and some clients then lose the reply they have not read yet.
    let _ = stream.shutdown(Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut budget = crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES;
    while let Ok(n @ 1..) = stream.read(&mut scratch) {
        budget = budget.saturating_sub(n);
        if budget == 0 {
            break;
        }
    }
}

/// JSON error body: `{"error": KIND, "detail": TEXT}`.
fn error_body(kind: &str, detail: &str) -> Vec<u8> {
    let escape =
        |s: &str| serde_json::to_string(&s).unwrap_or_else(|_| "\"<unrenderable>\"".to_string());
    format!("{{\"error\":{},\"detail\":{}}}", escape(kind), escape(detail)).into_bytes()
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_nodelay(true);
    // A panicking request must not take the daemon down: answer 500 on this
    // connection and keep accepting. (Inside a sweep, `SweepExecutor` now
    // names the panicking configuration in the payload this forwards.)
    let result = catch_unwind(AssertUnwindSafe(|| handle_request(state, &mut stream)));
    if let Err(payload) = result {
        state.stats.panics.fetch_add(1, Ordering::Relaxed);
        let _ = write_response(
            &mut stream,
            500,
            "Internal Server Error",
            &[("Content-Type", "application/json")],
            &error_body("internal", enprop_par::panic_message(payload.as_ref())),
        );
    }
}

fn handle_request(state: &Arc<ServerState>, stream: &mut TcpStream) {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            // The typed-400 contract: torn, malformed, oversized, or
            // stalled requests answer a clean JSON error, never a panic or
            // a wedged handler.
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let (status, reason) = e.status();
            let _ = write_response(
                stream,
                status,
                reason,
                &[("Content-Type", "application/json")],
                &error_body(e.kind(), &e.to_string()),
            );
            return;
        }
    };
    route(state, stream, &request);
}

fn route(state: &Arc<ServerState>, stream: &mut TcpStream, request: &Request) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = write_response(stream, 200, "OK", &[("Content-Type", "text/plain")], b"ok\n");
        }
        ("GET", "/stats") => {
            let body =
                serde_json::to_string_pretty(&snapshot(state)).unwrap_or_default().into_bytes();
            let _ =
                write_response(stream, 200, "OK", &[("Content-Type", "application/json")], &body);
        }
        ("POST", "/sweep") => serve_sweep(state, stream, request),
        (_, "/sweep") => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                stream,
                405,
                "Method Not Allowed",
                &[("Content-Type", "application/json"), ("Allow", "POST")],
                &error_body("method-not-allowed", "use POST /sweep"),
            );
        }
        (_, path) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                stream,
                404,
                "Not Found",
                &[("Content-Type", "application/json")],
                &error_body("not-found", &format!("no route for {path}")),
            );
        }
    }
}

fn serve_sweep(state: &Arc<ServerState>, stream: &mut TcpStream, request: &Request) {
    let parsed = match SweepRequest::from_json(&request.body) {
        Ok(p) => p,
        Err(detail) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                stream,
                400,
                "Bad Request",
                &[("Content-Type", "application/json")],
                &error_body("bad-request", &detail),
            );
            return;
        }
    };
    // Validate the workload has configurations *before* committing to a
    // 200: an empty enumeration is a client error, not a streamed nothing.
    let app = GpuMatMulApp::new(parse_arch(&parsed.arch).expect("validated"), parsed.products);
    let configs = app.configs(parsed.n);
    if configs.is_empty() {
        state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = write_response(
            stream,
            400,
            "Bad Request",
            &[("Content-Type", "application/json")],
            &error_body(
                "bad-request",
                &format!(
                    "no valid configurations for arch={} n={} products={}",
                    parsed.arch, parsed.n, parsed.products
                ),
            ),
        );
        return;
    }
    state.stats.sweeps.fetch_add(1, Ordering::Relaxed);

    let key = parsed.canonical_key();
    let key_hash = format!("{:016x}", content_hash(&key));

    if parsed.no_cache {
        // Bypass both cache read and write: compute and stream.
        let body = compute_streaming(state, &app, &parsed, Some(stream), "bypass", &key_hash);
        drop(body);
        return;
    }

    match state.cache.lookup_or_begin(&key) {
        Lookup::Hit(body) => send_cached(stream, &body, "hit", &key_hash),
        Lookup::Miss(pending) => {
            let body = compute_streaming(state, &app, &parsed, Some(stream), "miss", &key_hash);
            // The client reads to EOF: end the reply before `fill` appends
            // and fsyncs. Waiters wake when `fill` publishes in memory,
            // before the disk append, as they did before.
            let _ = stream.shutdown(Shutdown::Write);
            let (_shared, disk) = pending.fill(body);
            if let Err(e) = disk {
                // Durability failed but the in-memory entry is published;
                // the daemon keeps serving.
                eprintln!("serve: cache store append failed: {e}");
            }
        }
    }
}

/// Sends a complete cached body with one write: the chunked reply is
/// framed in memory first, one NDJSON line per HTTP chunk, mirroring the
/// original streaming shape. Chunk boundaries need not match the original
/// computation's — the de-chunked body is what is bitwise-exact.
fn send_cached(stream: &mut TcpStream, body: &[u8], cache_state: &str, key_hash: &str) {
    let headers = [
        ("Content-Type", "application/x-ndjson"),
        ("X-Cache", cache_state),
        ("X-Cache-Key", key_hash),
    ];
    let mut reply = Vec::with_capacity(body.len() + 1024);
    let framed = ChunkedWriter::start(&mut reply, 200, "OK", &headers).and_then(|mut writer| {
        for line in body.split_inclusive(|&b| b == b'\n') {
            writer.chunk(line)?;
        }
        writer.finish()
    });
    if framed.is_ok() {
        let _ = stream.write_all(&reply);
    }
}

/// One entry of a rendered front.
#[derive(Serialize)]
struct FrontEntry {
    /// Sweep enumeration index of the configuration.
    index: usize,
    /// The paper's configuration naming, e.g. `N=256 BS=16 G=2 R=1`.
    config: String,
    /// Execution time, seconds.
    time: f64,
    /// Dynamic energy, joules.
    energy: f64,
}

/// One streamed incremental-front update (one NDJSON line per completed
/// chunk).
#[derive(Serialize)]
struct FrontUpdate {
    /// 1-based completed-chunk ordinal.
    chunk: usize,
    /// Configurations measured so far.
    measured: usize,
    /// Total configurations in the sweep.
    total: usize,
    /// The incremental Pareto front over everything measured so far.
    front: Vec<FrontEntry>,
}

/// One measured point of the final line.
#[derive(Serialize)]
struct PointOut {
    config: String,
    time: f64,
    energy: f64,
    reps: usize,
    converged: bool,
}

/// The final NDJSON line: the complete sweep.
#[derive(Serialize)]
struct SweepFinal {
    done: bool,
    workload: String,
    total: usize,
    front: Vec<FrontEntry>,
    points: Vec<PointOut>,
}

/// Computes the sweep, streaming updates to `stream` (when given) while
/// accumulating the complete NDJSON body, which is returned for caching.
/// A client that disappears mid-stream stops receiving but the computation
/// finishes — the body still fills the cache for the next client.
fn compute_streaming(
    state: &Arc<ServerState>,
    app: &GpuMatMulApp,
    request: &SweepRequest,
    stream: Option<&mut TcpStream>,
    cache_state: &str,
    key_hash: &str,
) -> Vec<u8> {
    // The estimate side of the measurement is deterministic; compute it
    // once per configuration.
    let (configs, estimates): (Vec<_>, Vec<_>) = app.estimates(request.n).into_iter().unzip();
    let total = configs.len();

    let threads = if state.config.threads == 0 {
        enprop_par::host_parallelism()
    } else {
        state.config.threads
    };
    let exec = SweepExecutor::new(request.seed).with_threads(threads);

    let mut body: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut writer = stream.and_then(|s| {
        let headers = [
            ("Content-Type", "application/x-ndjson"),
            ("X-Cache", cache_state),
            ("X-Cache-Key", key_hash),
        ];
        ChunkedWriter::start(s, 200, "OK", &headers).ok()
    });

    let mut emit = |line: &str, writer: &mut Option<ChunkedWriter<'_, TcpStream>>| {
        let start = body.len();
        body.extend_from_slice(line.as_bytes());
        body.push(b'\n');
        if let Some(w) = writer {
            if w.chunk(&body[start..]).is_err() {
                // Client gone: keep computing for the cache, stop writing.
                *writer = None;
            }
        }
    };

    let mut tracker = FrontTracker::new();
    let mut points: Vec<PointOut> = Vec::with_capacity(total);
    let mut measured = 0usize;
    let indices: Vec<usize> = (0..total).collect();
    for (chunk_ordinal, index_chunk) in indices.chunks(request.chunk).enumerate() {
        // Measure this run of enumeration order across the worker pool.
        // `map_with` hands out seeds positional to the chunk slice, so
        // reseed by the *sweep* index — the same convention the resumable
        // executor uses — keeping every outcome a pure function of
        // `(seed, index)` regardless of chunking or thread count.
        let chunk_points = exec.map_with(
            index_chunk,
            || GpuMatMulApp::default_runner(0),
            |runner, &i, _| {
                runner.reseed(exec.config_seed(i));
                let e = &estimates[i];
                runner.measure(e.time, e.steady_power, e.warmup_power, e.warmup_time)
            },
        );
        for (&i, m) in index_chunk.iter().zip(&chunk_points) {
            let time = m.time.value();
            let energy = m.dynamic_energy.value();
            tracker.insert(BiPoint::new(time, energy), i);
            points.push(PointOut {
                config: configs[i].to_string(),
                time,
                energy,
                reps: m.reps,
                converged: m.converged,
            });
        }
        measured += index_chunk.len();
        let update = FrontUpdate {
            chunk: chunk_ordinal + 1,
            measured,
            total,
            front: render_front(&tracker, &configs),
        };
        let line = serde_json::to_string(&update).expect("serialize front update");
        emit(&line, &mut writer);
    }

    let final_line = SweepFinal {
        done: true,
        workload: format!("gpu-matmul/{}/N={}/P={}", request.arch, request.n, request.products),
        total,
        front: render_front(&tracker, &configs),
        points,
    };
    let line = serde_json::to_string(&final_line).expect("serialize final sweep");
    emit(&line, &mut writer);
    if let Some(w) = writer {
        let _ = w.finish();
    }
    body
}

fn render_front(
    tracker: &FrontTracker,
    configs: &[enprop_gpusim::TiledDgemmConfig],
) -> Vec<FrontEntry> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_validates() {
        let ok =
            SweepRequest::from_json(br#"{"arch":"k40c","n":256,"products":2,"seed":7,"chunk":4}"#)
                .unwrap();
        assert_eq!(ok.arch, "k40c");
        assert_eq!((ok.n, ok.products, ok.seed, ok.chunk), (256, 2, 7, 4));
        assert!(!ok.no_cache);

        // Defaults: seed 42, chunk 32.
        let defaults = SweepRequest::from_json(br#"{"arch":"p100","n":512,"products":4}"#).unwrap();
        assert_eq!((defaults.seed, defaults.chunk), (42, 32));

        for (body, expect) in [
            (&br#"{"n":256,"products":2}"#[..], "missing field `arch`"),
            (&br#"{"arch":"h100","n":256,"products":2}"#[..], "unknown arch"),
            (&br#"{"arch":"k40c","products":2}"#[..], "missing field `n`"),
            (&br#"{"arch":"k40c","n":0,"products":2}"#[..], "`n` must be"),
            (&br#"{"arch":"k40c","n":256,"products":0}"#[..], "`products` must be"),
            (&br#"{"arch":"k40c","n":256,"products":2,"chunk":0}"#[..], "`chunk` must be"),
            (&b"not json"[..], "not JSON"),
            (&br#"{"arch":"k40c","n":"big","products":2}"#[..], "`n` must be an integer"),
        ] {
            let err = SweepRequest::from_json(body).unwrap_err();
            assert!(err.contains(expect), "{body:?}: {err}");
        }
    }

    #[test]
    fn canonical_key_excludes_no_cache_and_folds_everything_else() {
        let base = SweepRequest {
            arch: "k40c".into(),
            n: 256,
            products: 2,
            seed: 7,
            chunk: 4,
            no_cache: false,
        };
        let bypass = SweepRequest { no_cache: true, ..base.clone() };
        assert_eq!(base.canonical_key(), bypass.canonical_key());
        for other in [
            SweepRequest { n: 512, ..base.clone() },
            SweepRequest { products: 4, ..base.clone() },
            SweepRequest { seed: 8, ..base.clone() },
            SweepRequest { chunk: 8, ..base.clone() },
            SweepRequest { arch: "p100".into(), ..base.clone() },
        ] {
            assert_ne!(base.canonical_key(), other.canonical_key());
        }
    }

    #[test]
    fn request_json_round_trips() {
        let req = SweepRequest {
            arch: "p100".into(),
            n: 1024,
            products: 8,
            seed: 99,
            chunk: 16,
            no_cache: true,
        };
        let back = SweepRequest::from_json(req.to_json().as_bytes()).unwrap();
        assert_eq!(req, back);
    }
}
