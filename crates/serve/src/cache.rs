//! The content-addressed result cache.
//!
//! Deterministic seed-splitting makes a sweep response a pure function of
//! its canonical request key, so caching is *exact*: a hit returns bytes
//! bitwise-identical to what a fresh computation would produce. This
//! generalizes the gpusim `ProductProfile` one-deep memoization to a
//! shared, persistent store keyed by the whole request.
//!
//! Three layers:
//!
//! * an in-memory map from canonical key to the complete response body;
//! * in-flight dedup: concurrent requests for the same key coalesce onto
//!   one computation — the first claims a [`PendingEntry`], the rest block
//!   until it is filled (or abandoned) and then share the bytes;
//! * an on-disk append-only log written with the checkpoint journal's
//!   CRC-guarded frames ([`encode_frame`]: `[len u32 LE][crc32 u32 LE]
//!   [JSON body]`), loaded tolerantly: a torn or corrupt tail — the
//!   signature of a kill mid-append — is dropped and truncated away, and
//!   every record before it replays. Unlike the journal, which reports a
//!   CRC mismatch as corruption, the cache treats one as a torn tail: a
//!   lost record only costs a recomputation.

use enprop_apps::checkpoint::{crc32, encode_frame, FRAME_HEADER_LEN};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// FNV-1a 64-bit over the canonical key — the content address. Collisions
/// are irrelevant for correctness (the map is keyed by the full canonical
/// string; the hash only names entries in headers and logs).
pub fn content_hash(canonical: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One persisted cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheRecord {
    /// The canonical request key.
    key: String,
    /// The complete response body (NDJSON text).
    body: String,
}

/// Counters the `/stats` endpoint and the throughput bench report.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// A point-in-time view of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStatsSnapshot {
    /// Requests answered from a completed entry.
    pub hits: u64,
    /// Requests that had to compute (and then filled the cache).
    pub misses: u64,
    /// Requests that joined an in-flight computation for the same key
    /// (counted as hits as well: no work was done for them).
    pub coalesced: u64,
}

impl CacheStats {
    fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// Cache slot state: a computation in flight, or the finished bytes.
enum Slot {
    InFlight,
    Ready(Arc<Vec<u8>>),
}

struct DiskLog {
    path: PathBuf,
    file: File,
}

/// What the on-disk load found, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReportDisk {
    /// Entries replayed from the clean prefix.
    pub replayed: usize,
    /// Bytes of torn/corrupt tail dropped and truncated away.
    pub torn_tail_bytes: u64,
}

/// The shared result cache. All methods take `&self`; the cache is wrapped
/// in an `Arc` and shared across connection handler threads.
pub struct ResultCache {
    map: Mutex<HashMap<String, Slot>>,
    ready: Condvar,
    disk: Option<Mutex<DiskLog>>,
    stats: CacheStats,
    /// What loading the persistent store found.
    load_report: LoadReportDisk,
}

/// Outcome of a cache probe.
pub enum Lookup<'a> {
    /// The complete response body — serve it verbatim.
    Hit(Arc<Vec<u8>>),
    /// This caller owns the computation: compute, then
    /// [`fill`](PendingEntry::fill) (dropping unfilled releases waiters).
    Miss(PendingEntry<'a>),
}

/// The claim a cache miss holds while computing. Filling publishes the
/// bytes to every waiter and appends them to the persistent store;
/// dropping without filling (the computation panicked or errored) removes
/// the in-flight marker so a waiter can claim the key instead.
pub struct PendingEntry<'a> {
    cache: &'a ResultCache,
    key: String,
    filled: bool,
}

fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ResultCache {
    /// An in-memory-only cache.
    pub fn in_memory() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            disk: None,
            stats: CacheStats::default(),
            load_report: LoadReportDisk::default(),
        }
    }

    /// A cache backed by `dir/cache.log`. Existing entries are replayed
    /// into memory; a torn or corrupt tail (kill mid-append) is dropped and
    /// the file truncated to the clean prefix.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("cache.log");
        let mut file =
            OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, clean_len) = scan_frames(&bytes);
        let torn = bytes.len() as u64 - clean_len;
        if torn > 0 {
            // Drop the tail exactly as the checkpoint journal does: the
            // clean prefix is authoritative, the torn suffix never happened.
            file.set_len(clean_len)?;
            file.seek(io::SeekFrom::End(0))?;
        }
        let mut map = HashMap::new();
        let replayed = records.len();
        for r in records {
            // Last-wins is fine: identical keys carry identical bodies (the
            // determinism contract), so replays are idempotent.
            map.insert(r.key, Slot::Ready(Arc::new(r.body.into_bytes())));
        }
        Ok(Self {
            map: Mutex::new(map),
            ready: Condvar::new(),
            disk: Some(Mutex::new(DiskLog { path, file })),
            stats: CacheStats::default(),
            load_report: LoadReportDisk { replayed, torn_tail_bytes: torn },
        })
    }

    /// What loading the persistent store found (zeros for in-memory).
    pub fn load_report(&self) -> LoadReportDisk {
        self.load_report
    }

    /// Completed entries currently in memory.
    pub fn entries(&self) -> usize {
        lock_unpoisoned(&self.map)
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Counter snapshot for `/stats`.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.stats.snapshot()
    }

    /// Probes `key`: a completed entry is a [`Lookup::Hit`]; an in-flight
    /// one blocks until its owner fills or abandons it; an absent one
    /// claims the key and returns [`Lookup::Miss`].
    pub fn lookup_or_begin(&self, key: &str) -> Lookup<'_> {
        let mut map = lock_unpoisoned(&self.map);
        loop {
            match map.get(key) {
                Some(Slot::Ready(body)) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(Arc::clone(body));
                }
                Some(Slot::InFlight) => {
                    self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    // Block until the owner fills or abandons the entry,
                    // then re-probe: on fill we hit; on abandon we claim.
                    map = self
                        .ready
                        .wait(map)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    map.insert(key.to_string(), Slot::InFlight);
                    return Lookup::Miss(PendingEntry {
                        cache: self,
                        key: key.to_string(),
                        filled: false,
                    });
                }
            }
        }
    }

    /// Publishes `body` under `key` and appends it to the persistent store.
    fn publish(&self, key: &str, body: Arc<Vec<u8>>) -> io::Result<()> {
        {
            let mut map = lock_unpoisoned(&self.map);
            map.insert(key.to_string(), Slot::Ready(Arc::clone(&body)));
        }
        self.ready.notify_all();
        if let Some(disk) = &self.disk {
            let record = CacheRecord {
                key: key.to_string(),
                body: String::from_utf8_lossy(&body).into_owned(),
            };
            let json = serde_json::to_string(&record)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let mut log = lock_unpoisoned(disk);
            let frame = encode_frame(json.as_bytes());
            log.file.write_all(&frame)?;
            // One fsync per filled entry: entries are whole responses, so
            // group-commit buys nothing and durability is the point.
            log.file.sync_data()?;
        }
        Ok(())
    }

    /// The persistent store's path, if any (tests inject torn tails).
    pub fn disk_path(&self) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| lock_unpoisoned(d).path.clone())
    }
}

impl PendingEntry<'_> {
    /// Publishes the computed body; waiters wake and serve these bytes.
    /// Disk append errors are returned but the in-memory entry is already
    /// published — the daemon keeps serving, merely without durability.
    pub fn fill(mut self, body: Vec<u8>) -> (Arc<Vec<u8>>, io::Result<()>) {
        self.filled = true;
        let body = Arc::new(body);
        let disk_result = self.cache.publish(&self.key, Arc::clone(&body));
        (body, disk_result)
    }
}

impl Drop for PendingEntry<'_> {
    fn drop(&mut self) {
        if self.filled {
            return;
        }
        // The computation died: release the claim so a waiter can retry
        // instead of blocking forever on an entry nobody will fill.
        let mut map = lock_unpoisoned(&self.cache.map);
        if matches!(map.get(&self.key), Some(Slot::InFlight)) {
            map.remove(&self.key);
        }
        drop(map);
        self.cache.ready.notify_all();
    }
}

/// Scans frames tolerantly: returns the decoded records of the clean
/// prefix and its byte length. Scanning stops at the first torn or corrupt
/// frame — after a framing failure nothing downstream can be trusted.
fn scan_frames(bytes: &[u8]) -> (Vec<CacheRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return (records, pos as u64);
        }
        if remaining < FRAME_HEADER_LEN {
            return (records, pos as u64);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > remaining - FRAME_HEADER_LEN {
            return (records, pos as u64);
        }
        let body = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
        if crc32(body) != crc {
            return (records, pos as u64);
        }
        let Ok(text) = std::str::from_utf8(body) else {
            return (records, pos as u64);
        };
        let Ok(record) = serde_json::from_str::<CacheRecord>(text) else {
            return (records, pos as u64);
        };
        records.push(record);
        pos += FRAME_HEADER_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enprop-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn content_hash_is_stable_and_distinct() {
        let a = content_hash("gpu-matmul/k40c/N=256/P=2/seed=1/chunk=32");
        let b = content_hash("gpu-matmul/k40c/N=256/P=2/seed=2/chunk=32");
        assert_ne!(a, b);
        assert_eq!(a, content_hash("gpu-matmul/k40c/N=256/P=2/seed=1/chunk=32"));
    }

    #[test]
    fn miss_fill_hit_round_trip() {
        let cache = ResultCache::in_memory();
        let Lookup::Miss(pending) = cache.lookup_or_begin("k") else {
            panic!("expected a miss");
        };
        let (body, disk) = pending.fill(b"payload".to_vec());
        disk.unwrap();
        assert_eq!(&**body, b"payload");
        match cache.lookup_or_begin("k") {
            Lookup::Hit(b) => assert_eq!(&**b, b"payload"),
            Lookup::Miss(_) => panic!("expected a hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
    }

    #[test]
    fn abandoned_claim_releases_waiters() {
        let cache = Arc::new(ResultCache::in_memory());
        let Lookup::Miss(pending) = cache.lookup_or_begin("k") else {
            panic!("expected a miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.lookup_or_begin("k") {
                Lookup::Hit(_) => panic!("nothing was filled"),
                Lookup::Miss(p) => {
                    let (body, _) = p.fill(b"second try".to_vec());
                    body.len()
                }
            })
        };
        // Give the waiter time to block on the in-flight entry, then
        // abandon the claim (simulating a panicked computation).
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(pending);
        assert_eq!(waiter.join().unwrap(), b"second try".len());
    }

    #[test]
    fn concurrent_same_key_coalesces_onto_one_computation() {
        let cache = Arc::new(ResultCache::in_memory());
        let Lookup::Miss(pending) = cache.lookup_or_begin("k") else {
            panic!("expected a miss");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.lookup_or_begin("k") {
                    Lookup::Hit(b) => b.len(),
                    Lookup::Miss(_) => panic!("computation was already in flight"),
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        pending.fill(b"shared".to_vec()).1.unwrap();
        for w in waiters {
            assert_eq!(w.join().unwrap(), b"shared".len());
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "only one computation");
        assert_eq!(s.coalesced, 4, "all four waiters coalesced");
    }

    #[test]
    fn disk_store_round_trips() {
        let dir = tmp_dir("roundtrip");
        {
            let cache = ResultCache::open(&dir).unwrap();
            let Lookup::Miss(p) = cache.lookup_or_begin("key-a") else { panic!() };
            p.fill(b"body-a".to_vec()).1.unwrap();
            let Lookup::Miss(p) = cache.lookup_or_begin("key-b") else { panic!() };
            p.fill(b"body-b".to_vec()).1.unwrap();
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load_report(), LoadReportDisk { replayed: 2, torn_tail_bytes: 0 });
        match cache.lookup_or_begin("key-a") {
            Lookup::Hit(b) => assert_eq!(&**b, b"body-a"),
            Lookup::Miss(_) => panic!("key-a must replay"),
        }
        match cache.lookup_or_begin("key-b") {
            Lookup::Hit(b) => assert_eq!(&**b, b"body-b"),
            Lookup::Miss(_) => panic!("key-b must replay"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = tmp_dir("torn");
        let path = {
            let cache = ResultCache::open(&dir).unwrap();
            let Lookup::Miss(p) = cache.lookup_or_begin("key-a") else { panic!() };
            p.fill(b"body-a".to_vec()).1.unwrap();
            cache.disk_path().unwrap()
        };
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // A kill mid-append: half a frame of a second entry.
        let record = CacheRecord { key: "key-b".into(), body: "body-b".into() };
        let frame = encode_frame(serde_json::to_string(&record).unwrap().as_bytes());
        let torn = &frame[..frame.len() / 2];
        OpenOptions::new().append(true).open(&path).unwrap().write_all(torn).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(
            cache.load_report(),
            LoadReportDisk { replayed: 1, torn_tail_bytes: torn.len() as u64 }
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "tail truncated");
        match cache.lookup_or_begin("key-a") {
            Lookup::Hit(b) => assert_eq!(&**b, b"body-a"),
            Lookup::Miss(_) => panic!("clean prefix must replay"),
        }
        assert!(matches!(cache.lookup_or_begin("key-b"), Lookup::Miss(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_drops_the_frame_and_everything_after() {
        let dir = tmp_dir("crc");
        let path = {
            let cache = ResultCache::open(&dir).unwrap();
            for (k, b) in [("key-a", "body-a"), ("key-b", "body-b")] {
                let Lookup::Miss(p) = cache.lookup_or_begin(k) else { panic!() };
                p.fill(b.as_bytes().to_vec()).1.unwrap();
            }
            cache.disk_path().unwrap()
        };
        // Flip one byte inside the second frame's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load_report().replayed, 1);
        assert!(cache.load_report().torn_tail_bytes > 0);
        assert!(matches!(cache.lookup_or_begin("key-a"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup_or_begin("key-b"), Lookup::Miss(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
