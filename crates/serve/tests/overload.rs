//! Overload gate for the sweep daemon's bounded pool.
//!
//! With every handler stalled and the queue full, the daemon must shed
//! further connections with a typed 503 that the client reads in full,
//! must hold no more threads than its pool plus the accept thread, and
//! must afterwards serve the same bytes as when it was unloaded.
//!
//! This binary holds a single test because it counts the process's
//! threads (`/proc/self/task`): a test running beside it would add
//! threads of its own.

use enprop_serve::http::{http_request, read_response, Response};
use enprop_serve::{ServeConfig, Server, SweepRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections sent beyond what the pool and the queue can hold.
const EXTRA: usize = 8;
const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
/// A head that never ends: the handler waits out its read timeout.
const STALLED: &[u8] = b"GET /healthz HTTP/1.1\r\n";

/// Threads in this process, or `None` where `/proc` is unavailable.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// The soft limit on open files, where the platform reports it.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn sweep(addr: SocketAddr, no_cache: bool) -> Vec<u8> {
    let request = SweepRequest {
        arch: "k40c".to_string(),
        n: 256,
        products: 2,
        seed: 17,
        chunk: 8,
        no_cache,
    };
    let response = http_request(addr, "POST", "/sweep", request.to_json().as_bytes())
        .expect("sweep request should complete");
    assert_eq!(response.status, 200);
    response.body
}

fn send(addr: SocketAddr, bytes: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    stream.write_all(bytes).expect("send the request");
    stream
}

/// Reads one whole reply and then a clean EOF: a reset fails here.
fn reply(stream: &mut TcpStream) -> Response {
    let response = read_response(stream).expect("a complete reply");
    let mut rest = [0u8; 64];
    let after = stream.read(&mut rest).expect("EOF after the reply, not a reset");
    assert_eq!(after, 0, "nothing follows the reply");
    response
}

#[test]
fn overload_sheds_typed_503s_within_the_thread_bound() {
    let baseline = threads();
    let read_timeout = Duration::from_secs(2);
    let config = ServeConfig { threads: 1, read_timeout, cache_dir: None };
    let server = match Server::start(config, "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SKIP: cannot bind a loopback socket here: {e}");
            return;
        }
    };
    let addr = server.addr();
    let stats = server.stats();
    let (workers, queue) = (stats.workers, stats.queue_capacity);
    assert!(workers >= 4, "at least 4 handlers, got {workers}");
    assert!(queue >= workers, "queue {queue} shorter than the pool {workers}");
    let connections = workers + queue + EXTRA;
    // Both ends of every connection live in this process.
    if open_file_limit().is_some_and(|limit| limit < 2 * connections + 64) {
        eprintln!("SKIP: {connections} connections need more open files than the limit allows");
        server.shutdown();
        return;
    }
    let unloaded = sweep(addr, false);

    let mut peak = threads().unwrap_or(0);
    let sample = |peak: &mut usize| *peak = (*peak).max(threads().unwrap_or(0));
    // Every handler takes a stalled connection and holds it for the read
    // timeout; the next `queue` connections fill the queue, and the rest
    // find it full. A stalled connection still queued takes a queue slot
    // instead, so at least EXTRA connections are shed either way.
    let burst_start = Instant::now();
    let mut stalled = Vec::with_capacity(workers);
    for _ in 0..workers {
        stalled.push(send(addr, STALLED));
        sample(&mut peak);
    }
    let mut burst = Vec::with_capacity(queue + EXTRA);
    for _ in 0..queue + EXTRA {
        burst.push(send(addr, HEALTHZ));
        sample(&mut peak);
    }

    let mut shed = 0;
    for stream in burst.iter_mut().rev() {
        let response = reply(stream);
        sample(&mut peak);
        match response.status {
            200 => assert_eq!(response.body, b"ok\n"),
            503 => {
                shed += 1;
                assert_eq!(response.header("Retry-After"), Some("1"));
                assert_eq!(response.header("Content-Type"), Some("application/json"));
                let text = String::from_utf8_lossy(&response.body).to_string();
                assert!(text.starts_with("{\"error\":\"overloaded\",\"detail\":"), "{text}");
            }
            other => panic!("a queued or shed request got status {other}"),
        }
    }
    for stream in &mut stalled {
        assert_eq!(reply(stream).status, 408, "a stalled request times out");
        sample(&mut peak);
    }
    // The handlers wait out their stalls at once, not one after another.
    let drained = burst_start.elapsed();
    assert!(drained < 2 * read_timeout, "the burst took {drained:?}");
    assert!(shed >= EXTRA, "only {shed} of {} connections were shed", queue + EXTRA);
    assert_eq!(server.stats().rejected, shed as u64, "every 503 is counted");

    match baseline {
        Some(baseline) => assert!(
            peak <= baseline + workers + 1,
            "{peak} threads at the peak; the bound is {baseline} + {workers} handlers + 1"
        ),
        None => eprintln!("NOTE: /proc/self/task is unavailable; the thread bound is unchecked"),
    }

    // The load left no trace in the bytes.
    assert_eq!(sweep(addr, true), unloaded, "recomputed after the burst");
    assert_eq!(sweep(addr, false), unloaded, "served from the cache after the burst");
    server.shutdown();
    if let Some(baseline) = baseline {
        assert_eq!(threads(), Some(baseline), "shutdown joins every daemon thread");
    }

    // A daemon bound to every interface is woken through loopback.
    let idle = match Server::start(ServeConfig::default(), "0.0.0.0:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SKIP: cannot bind 0.0.0.0 here: {e}");
            return;
        }
    };
    let started = Instant::now();
    idle.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");
}
