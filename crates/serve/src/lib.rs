//! Sweep-as-a-service: a long-running daemon that serves configuration
//! sweeps over HTTP/1.1.
//!
//! The paper's experiments are *sweeps* — measure every configuration of a
//! workload, keep the Pareto front of (time, dynamic energy). Batch
//! drivers rerun the whole sweep for every question asked of the data.
//! This crate turns the sweep engine into a service instead:
//!
//! - [`server`] — the daemon. Accepts JSON sweep requests, shards each
//!   across the deterministic `SweepExecutor` worker pool, and streams
//!   incremental Pareto fronts back as NDJSON over chunked HTTP.
//! - [`cache`] — a content-addressed result cache. Identical
//!   `(arch, workload, config, seed)` requests dedup onto one computation
//!   (in-flight coalescing) and one stored body (CRC-framed persistent
//!   store that survives crashes and torn tails).
//! - [`http`] — a minimal vendored HTTP/1.1 reader/writer in the spirit of
//!   `crates/compat`: enough protocol to serve and load-test the daemon
//!   with zero external dependencies, with typed errors so malformed or
//!   torn requests become clean 4xx responses rather than panics.
//! - [`load`] — a load generator: N concurrent clients, mixed hot/cold
//!   key streams, and a report of throughput, hit rate, and response
//!   byte-identity.
//!
//! The whole design leans on one property established in
//! `enprop_apps::parallel`: configuration `i` of a sweep with seed `s` is
//! measured under `split_seed(s, i)` on a worker-local rig, so a sweep's
//! bytes are a pure function of the request — which is what makes caching
//! *exact* (bitwise), not approximate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod http;
pub mod load;
pub mod server;

pub use cache::{CacheStatsSnapshot, ResultCache};
pub use load::{run_load, LoadOptions, LoadReport};
pub use server::{ServeConfig, ServeStatsSnapshot, Server, SweepRequest};
