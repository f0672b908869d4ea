//! Load generator: N concurrent clients hammering a daemon with a mixed
//! hot/cold key stream, reporting throughput, cache behaviour, and the
//! byte-identity of responses for repeated keys.
//!
//! Every client issues `requests_per_client` POSTs. Most draw from a small
//! pool of *hot* keys (seeds `seed_base..seed_base + hot_keys`), which
//! should coalesce or hit in the cache; every fourth request derives a
//! *cold* key unique to `(client, request)`, which must miss. The report
//! cross-checks each hot key's bodies: a daemon that is correct serves
//! every client the same bytes no matter which of them triggered the
//! computation.

use crate::http::http_request;
use crate::server::SweepRequest;
use serde::Serialize;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued by each client.
    pub requests_per_client: usize,
    /// Distinct hot seeds shared by all clients.
    pub hot_keys: usize,
    /// First hot seed (cold seeds are derived far away from this range).
    pub seed_base: u64,
    /// Architecture for every request.
    pub arch: String,
    /// Matrix dimension for every request.
    pub n: usize,
    /// Products for every request.
    pub products: usize,
    /// Streaming chunk size for every request.
    pub chunk: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            clients: 8,
            requests_per_client: 6,
            hot_keys: 3,
            seed_base: 42,
            arch: "k40c".to_string(),
            n: 512,
            products: 4,
            chunk: 16,
        }
    }
}

/// What a load run observed.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Total requests issued.
    pub requests: usize,
    /// Requests that returned 200 with a well-formed body.
    pub ok: usize,
    /// Responses the daemon marked `X-Cache: hit`.
    pub hits: usize,
    /// Responses the daemon marked `X-Cache: miss`.
    pub misses: usize,
    /// Wall-clock duration of the run, seconds.
    pub secs: f64,
    /// `requests / secs`.
    pub requests_per_sec: f64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Whether every response for a given hot key was byte-identical
    /// across all clients (the serving-correctness property).
    pub hot_identical: bool,
    /// Requests the daemon shed with a 503 because its queue was full.
    /// They are neither `ok` nor `errors`: the daemon answered as designed.
    pub rejected: usize,
    /// Transport or status errors, at most one message kept per kind.
    pub errors: Vec<String>,
}

/// Runs the mixed hot/cold load against `addr` and summarizes.
pub fn run_load(addr: SocketAddr, options: &LoadOptions) -> LoadReport {
    struct Tally {
        ok: usize,
        hits: usize,
        misses: usize,
        rejected: usize,
        bodies_by_seed: HashMap<u64, Vec<Vec<u8>>>,
        errors: Vec<String>,
    }
    let tally = Mutex::new(Tally {
        ok: 0,
        hits: 0,
        misses: 0,
        rejected: 0,
        bodies_by_seed: HashMap::new(),
        errors: Vec::new(),
    });

    let started = Instant::now();
    enprop_par::join(0..options.clients, |client| {
        for r in 0..options.requests_per_client {
            let cold = r % 4 == 3;
            let seed = if cold {
                // Unique per (client, request): a guaranteed miss,
                // placed far from the hot range.
                options.seed_base + 100_000 + (client as u64) * 1_000 + r as u64
            } else {
                options.seed_base + ((client + r) % options.hot_keys.max(1)) as u64
            };
            let request = SweepRequest {
                arch: options.arch.clone(),
                n: options.n,
                products: options.products,
                seed,
                chunk: options.chunk,
                no_cache: false,
            };
            let result = http_request(addr, "POST", "/sweep", request.to_json().as_bytes());
            let mut t = tally.lock().expect("no client panics holding the tally");
            match result {
                Ok(response) if response.status == 200 => {
                    t.ok += 1;
                    match response.header("X-Cache") {
                        Some("hit") => t.hits += 1,
                        Some("miss") => t.misses += 1,
                        other => t.errors.push(format!("unexpected X-Cache header: {other:?}")),
                    }
                    if !cold {
                        t.bodies_by_seed.entry(seed).or_default().push(response.body);
                    }
                }
                Ok(response) if response.status == 503 => t.rejected += 1,
                Ok(response) => t.errors.push(format!(
                    "status {} from /sweep: {}",
                    response.status,
                    String::from_utf8_lossy(&response.body)
                )),
                Err(e) => t.errors.push(e),
            }
        }
    });
    let secs = started.elapsed().as_secs_f64();

    let tally = tally.into_inner().unwrap();
    let hot_identical = tally
        .bodies_by_seed
        .values()
        .all(|bodies| bodies.windows(2).all(|w| w[0] == w[1]));
    let requests = options.clients * options.requests_per_client;
    let lookups = tally.hits + tally.misses;
    let mut errors = tally.errors;
    errors.truncate(8);
    LoadReport {
        requests,
        ok: tally.ok,
        hits: tally.hits,
        misses: tally.misses,
        secs,
        requests_per_sec: if secs > 0.0 { requests as f64 / secs } else { 0.0 },
        cache_hit_rate: if lookups > 0 {
            tally.hits as f64 / lookups as f64
        } else {
            0.0
        },
        hot_identical,
        rejected: tally.rejected,
        errors,
    }
}
