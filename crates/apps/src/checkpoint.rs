//! Durable checkpoint journal for long measurement sweeps.
//!
//! ROADMAP item 5 is blunt about the scaling blocker: million-configuration
//! campaigns must "survive restarts and stay bitwise-deterministic given the
//! same seed and budget". The fault-tolerance layer (typed [`MeasureError`],
//! retry/backoff, `RobustSweep`) hardened individual measurements, but the
//! *process* was still fragile — a crash at index 9 999 of 10 000 lost
//! everything. This module closes that gap with a write-ahead journal of
//! completed configurations:
//!
//! * **Record framing.** Each completed configuration is appended as one
//!   frame: `[body_len: u32 LE][crc32(body): u32 LE][body]`, where the body
//!   is the compact-JSON encoding of a [`JournalRecord`] (the configuration
//!   index plus its `SweepOutcome`, successful or not). The CRC detects
//!   bit-rot; the length prefix makes torn tails self-delimiting.
//! * **Segment protocol.** Frames are appended to an *active tail* named
//!   `seg-NNNNNNNN.open` and group-committed: the tail is fsynced every
//!   [`DEFAULT_SYNC_EVERY`] appends (and at every seal) rather than per
//!   record, so durability costs a bounded recompute window instead of a
//!   per-config fsync. When a tail reaches its capacity it is *sealed* by
//!   an atomic rename to `seg-NNNNNNNN.log`; the journal's durable history
//!   is the ordered list of sealed segments plus at most one tail. The
//!   sweep manifest (`MANIFEST.json`) is likewise written through a
//!   tmp-file + rename, so no reader ever observes a half-written manifest
//!   or sealed segment. A power cut can therefore cost at most the last
//!   unsynced batch plus a torn frame — both of which the tolerant tail
//!   scan absorbs, and resume simply recomputes.
//! * **Replay semantics.** Sealed segments must parse completely — any torn
//!   or CRC-failing frame in one is a typed [`CheckpointError::CorruptRecord`],
//!   never a panic. The tail is scanned *tolerantly*: a trailing frame cut
//!   short by a crash (even mid-header) delimits a clean prefix that is
//!   replayed, and the torn bytes are dropped. A frame whose body is fully
//!   present but fails its CRC is corruption in both modes — truncation can
//!   only shorten a file, never flip bits.
//! * **Resume invariant.** Because every outcome is a pure function of
//!   `(sweep_seed, index, attempt)` (see
//!   [`split_seed`](crate::parallel::split_seed)), replaying journaled
//!   outcomes and recomputing only the missing indices reproduces the
//!   uninterrupted sweep bitwise, at any thread count.
//!
//! Robustness is proven, not asserted: [`CrashPlan`] deterministically kills
//! the journal mid-write — including torn final records — from a
//! domain-separated SplitMix64 stream, mirroring the measurement layer's
//! `FaultPlan`, and the crash-injection suite resumes from the wreckage and
//! asserts bitwise equality with a clean run.
//!
//! [`MeasureError`]: enprop_power::MeasureError

use crate::parallel::SweepOutcome;
use serde::{Deserialize, DeserializeOwned, Serialize};
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp written into every manifest; bumped on any change to the
/// frame or segment encoding.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Records per segment before the tail is sealed and a new one opened.
/// Small enough that a lost tail forfeits bounded work, large enough that
/// segment turnover is noise.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 512;

/// Appends between group-commit fsyncs of the active tail. A crash (or
/// power cut) can lose at most this many trailing records to the page
/// cache; resume recomputes them. Chosen so the journal's wall-clock
/// overhead stays well under the 10% budget `repro bench-json --check`
/// enforces, while bounding the recompute window to seconds of work.
pub const DEFAULT_SYNC_EVERY: usize = 16;

const MANIFEST_FILE: &str = "MANIFEST.json";

/// Bytes of a frame's header: `[body_len u32 LE][crc32(body) u32 LE]`.
pub const FRAME_HEADER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over `bytes`.
///
/// Bit-serial on purpose: the journal writes one small frame per measured
/// configuration, so table-driven throughput would be invisible next to the
/// measurement itself, and the 60-line-smaller implementation is easier to
/// audit against the published check value (see the unit test).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Identity of the sweep a journal belongs to, pinned in `MANIFEST.json`.
///
/// Resume refuses to replay a journal whose manifest disagrees with the
/// sweep being run — replaying outcomes produced under a different seed,
/// configuration count, retry budget, or fault environment would silently
/// break the bitwise-reproducibility contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Journal encoding version ([`JOURNAL_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The sweep seed every `config_seed` derives from.
    pub sweep_seed: u64,
    /// Total configurations in the sweep's enumeration order.
    pub total_configs: usize,
    /// The retry policy's attempt budget (attempt-`k` reseeding makes
    /// outcomes depend on it).
    pub max_attempts: usize,
    /// Free-form description of the workload *and* measurement environment
    /// (app, size, fault plan, …); anything that changes outcomes belongs
    /// in here so a mismatch is caught at resume.
    pub workload: String,
}

impl SweepManifest {
    /// A manifest for the current [`JOURNAL_FORMAT_VERSION`].
    pub fn new(
        sweep_seed: u64,
        total_configs: usize,
        max_attempts: usize,
        workload: impl Into<String>,
    ) -> Self {
        Self {
            format_version: JOURNAL_FORMAT_VERSION,
            sweep_seed,
            total_configs,
            max_attempts,
            workload: workload.into(),
        }
    }
}

/// One journaled configuration: its index and what happened to it.
///
/// Failures are journaled too — a configuration that exhausted its retries
/// is *finished* and must not be re-measured on resume, or the resumed
/// sweep would diverge from the uninterrupted one whenever a retry draw
/// differs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord<T> {
    /// The configuration's index in the sweep's enumeration order.
    pub index: usize,
    /// The outcome of measuring it (point or final failure, with attempts).
    pub outcome: SweepOutcome<T>,
}

/// Everything that can go wrong reading or writing a checkpoint journal.
///
/// The torn-write contract: truncating a valid journal at *any* byte offset
/// yields either a clean-prefix replay or one of these — never a panic,
/// and never a replayed torn record (pinned by proptest).
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O error, with the path and operation that failed.
    Io {
        /// Human-readable context (`append seg-00000000.open: ...`).
        context: String,
    },
    /// A record could not be encoded to JSON (e.g. a non-finite float in a
    /// measured point); the journal only stores what JSON can round-trip
    /// bit-for-bit.
    Unencodable {
        /// What failed to encode.
        detail: String,
    },
    /// The directory holds no `MANIFEST.json` — nothing to resume.
    ManifestMissing {
        /// The journal directory.
        dir: String,
    },
    /// The manifest exists but cannot be parsed.
    ManifestInvalid {
        /// Parse failure detail.
        detail: String,
    },
    /// A fresh journal was requested in a directory that already holds one
    /// (pass `--resume`, or point at an empty directory).
    JournalExists {
        /// The journal directory.
        dir: String,
    },
    /// The on-disk manifest disagrees with the sweep being resumed.
    ManifestMismatch {
        /// Which manifest field disagreed.
        field: &'static str,
        /// The value the resuming sweep expected.
        expected: String,
        /// The value found on disk.
        found: String,
    },
    /// A frame failed validation: torn inside a *sealed* segment, CRC
    /// mismatch, undecodable body, or an inconsistent segment sequence.
    CorruptRecord {
        /// The segment file the bad frame lives in.
        segment: String,
        /// Byte offset of the frame within the segment.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// A journaled record names a configuration index outside the sweep.
    IndexOutOfRange {
        /// The segment file the record lives in.
        segment: String,
        /// The out-of-range index.
        index: usize,
        /// The sweep's configuration count.
        total: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { context } => write!(f, "journal I/O error: {context}"),
            CheckpointError::Unencodable { detail } => {
                write!(f, "record not JSON-encodable: {detail}")
            }
            CheckpointError::ManifestMissing { dir } => {
                write!(f, "no checkpoint manifest in {dir} (nothing to resume)")
            }
            CheckpointError::ManifestInvalid { detail } => {
                write!(f, "unreadable checkpoint manifest: {detail}")
            }
            CheckpointError::JournalExists { dir } => {
                write!(f, "{dir} already holds a checkpoint journal (resume it, or use an empty directory)")
            }
            CheckpointError::ManifestMismatch { field, expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep: {field} is {found}, expected {expected}"
            ),
            CheckpointError::CorruptRecord { segment, offset, detail } => {
                write!(f, "corrupt journal record in {segment} at byte {offset}: {detail}")
            }
            CheckpointError::IndexOutOfRange { segment, index, total } => write!(
                f,
                "journal record in {segment} names configuration {index} of a {total}-configuration sweep"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io { context: format!("{op} {}: {e}", path.display()) }
}

fn sealed_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

fn open_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.open"))
}

/// Encodes one record as a frame: the [`FRAME_HEADER_LEN`]-byte header
/// (body length, then [`crc32`] of the body, both u32 LE) followed by the
/// body. Panics if the body exceeds `u32::MAX` bytes.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    frame.extend_from_slice(&u32::try_from(body.len()).expect("record exceeds u32 frame length").to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Writes `bytes` to `path` atomically: tmp file in the same directory,
/// flush + fsync, then rename over the destination.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_data().map_err(|e| io_err("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))
}

/// Deterministic crash injection for the journal writer, mirroring the
/// measurement layer's `FaultPlan`.
///
/// A crash fires on the `(after_appends + 1)`-th append: the writer emits
/// only the first [`torn_bytes`](CrashPlan::torn_bytes) bytes of that
/// record's frame (clamped so the frame is always torn, never complete),
/// then plays dead — every later append is silently dropped, exactly as if
/// the process had been killed at that instant. `torn_bytes = 0` is a clean
/// kill between records; a mid-header tear (`torn_bytes < 8`) exercises the
/// nastiest recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Appends that complete durably before the crash fires.
    pub after_appends: usize,
    /// Bytes of the fatal record's frame that reach the disk.
    pub torn_bytes: usize,
}

/// Domain-separation tag xor'ed into the seed so crash draws never alias
/// the measurement noise or fault streams.
const CRASH_STREAM_TAG: u64 = 0xC4A5_11D0_57A1_1CED;

impl CrashPlan {
    /// Crash after exactly `after_appends` durable records, with no torn
    /// bytes (a clean kill between appends).
    pub fn kill_after(after_appends: usize) -> Self {
        Self { after_appends, torn_bytes: 0 }
    }

    /// Sets how many bytes of the fatal frame reach the disk.
    #[must_use]
    pub fn with_torn_bytes(mut self, torn_bytes: usize) -> Self {
        self.torn_bytes = torn_bytes;
        self
    }

    /// A crash point drawn from a domain-separated SplitMix64 stream over
    /// `seed`: the kill fires somewhere in the first `max_appends` appends,
    /// and up to 16 bytes of the fatal frame are torn onto disk — enough to
    /// cover clean kills, mid-header tears, and mid-body tears, while
    /// staying below any real frame's length.
    pub fn from_seed(seed: u64, max_appends: usize) -> Self {
        assert!(max_appends >= 1, "need at least one append to crash in");
        let mut state = seed ^ CRASH_STREAM_TAG;
        let after = (splitmix64(&mut state) % max_appends as u64) as usize;
        let torn = (splitmix64(&mut state) % 17) as usize;
        Self { after_appends: after, torn_bytes: torn }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The append side of the journal: an active tail segment, group-committed
/// every [`DEFAULT_SYNC_EVERY`] appends, sealed by atomic rename at
/// capacity.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    tail: Option<File>,
    tail_seq: u64,
    tail_records: usize,
    segment_capacity: usize,
    sync_every: usize,
    unsynced: usize,
    appends: usize,
    crash: Option<CrashPlan>,
    dead: bool,
    lost: usize,
}

impl JournalWriter {
    fn new(dir: PathBuf, next_seq: u64) -> Self {
        Self {
            dir,
            tail: None,
            tail_seq: next_seq,
            tail_records: 0,
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            sync_every: DEFAULT_SYNC_EVERY,
            unsynced: 0,
            appends: 0,
            crash: None,
            dead: false,
            lost: 0,
        }
    }

    /// Appends this writer has accepted (durable no later than the next
    /// group-commit sync or seal).
    pub fn appended(&self) -> usize {
        self.appends
    }

    /// Appends dropped because an injected crash already fired.
    pub fn lost(&self) -> usize {
        self.lost
    }

    /// True once an injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead
    }

    /// Overrides the records-per-segment capacity (tests use tiny segments
    /// to exercise rotation).
    pub fn set_segment_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "segment capacity must be at least 1");
        self.segment_capacity = capacity;
    }

    /// Overrides the group-commit interval: the tail is fsynced every
    /// `every` appends. `1` restores per-record durability; the default
    /// ([`DEFAULT_SYNC_EVERY`]) bounds what a power cut can cost while
    /// keeping journal overhead negligible next to the measurements.
    pub fn set_sync_every(&mut self, every: usize) {
        assert!(every >= 1, "sync interval must be at least 1");
        self.sync_every = every;
    }

    /// Arms deterministic crash injection (test/bench harness only).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// Appends one record. Returns `true` if the record is durable, `false`
    /// if an injected crash swallowed it.
    pub fn append<T: Serialize>(
        &mut self,
        record: &JournalRecord<T>,
    ) -> Result<bool, CheckpointError> {
        if self.dead {
            self.lost += 1;
            return Ok(false);
        }
        let body = serde_json::to_string(record)
            .map_err(|e| CheckpointError::Unencodable { detail: e.to_string() })?;
        let frame = encode_frame(body.as_bytes());
        if self.tail.is_none() {
            let path = open_path(&self.dir, self.tail_seq);
            let f = File::create(&path).map_err(|e| io_err("create", &path, e))?;
            self.tail = Some(f);
            self.tail_records = 0;
        }
        let path = open_path(&self.dir, self.tail_seq);
        let tail = self.tail.as_mut().expect("tail opened above");
        if let Some(plan) = self.crash {
            if self.appends == plan.after_appends {
                // The injected kill: a prefix of the frame reaches the disk
                // (clamped so the frame is always torn), then the writer
                // plays dead.
                let torn = plan.torn_bytes.min(frame.len() - 1);
                tail.write_all(&frame[..torn]).map_err(|e| io_err("append", &path, e))?;
                tail.sync_data().map_err(|e| io_err("sync", &path, e))?;
                self.dead = true;
                self.lost += 1;
                return Ok(false);
            }
        }
        tail.write_all(&frame).map_err(|e| io_err("append", &path, e))?;
        self.appends += 1;
        self.tail_records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            tail.sync_data().map_err(|e| io_err("sync", &path, e))?;
            self.unsynced = 0;
        }
        if self.tail_records >= self.segment_capacity {
            self.seal_tail()?;
        }
        Ok(true)
    }

    fn seal_tail(&mut self) -> Result<(), CheckpointError> {
        if let Some(f) = self.tail.take() {
            f.sync_data().map_err(|e| io_err("sync", &open_path(&self.dir, self.tail_seq), e))?;
            drop(f);
            let from = open_path(&self.dir, self.tail_seq);
            let to = sealed_path(&self.dir, self.tail_seq);
            fs::rename(&from, &to).map_err(|e| io_err("seal", &from, e))?;
            self.tail_seq += 1;
            self.tail_records = 0;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Seals the tail (if it holds records) or removes it (if empty). Call
    /// when the sweep completes; a crash before `finish` merely leaves a
    /// clean tail for resume to seal.
    pub fn finish(&mut self) -> Result<(), CheckpointError> {
        if self.dead {
            return Ok(());
        }
        if self.tail_records > 0 {
            self.seal_tail()
        } else if let Some(f) = self.tail.take() {
            drop(f);
            let path = open_path(&self.dir, self.tail_seq);
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))
        } else {
            Ok(())
        }
    }
}

/// Counters describing what a replay found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Valid records replayed (after first-wins deduplication).
    pub records: usize,
    /// Duplicate records skipped (a record for an index already replayed).
    pub duplicates: usize,
    /// Sealed segments read.
    pub sealed_segments: usize,
    /// Bytes of a torn trailing frame dropped from the tail (0 on a clean
    /// shutdown).
    pub torn_tail_bytes: u64,
}

/// The result of replaying a journal directory.
#[derive(Debug)]
pub struct Replay<T> {
    /// The manifest the journal was written under.
    pub manifest: SweepManifest,
    /// Replayed outcomes, keyed by configuration index (deduplicated
    /// first-wins; in journal order, which is *not* enumeration order).
    pub outcomes: Vec<(usize, SweepOutcome<T>)>,
    /// What the replay found.
    pub stats: ReplayStats,
    /// The sequence number the next segment should use.
    next_seq: u64,
    /// A tail segment needing repair: `(seq, clean_prefix_len, records)`.
    tail: Option<(u64, u64, usize)>,
}

struct SegmentScan<T> {
    records: Vec<JournalRecord<T>>,
    clean_len: u64,
}

/// Scans one segment's bytes. `strict` (sealed segments) turns any torn
/// trailing frame into [`CheckpointError::CorruptRecord`]; tolerant mode
/// (the tail) stops at the torn frame and reports the clean prefix length.
/// A CRC failure over a fully-present body is corruption in both modes.
fn scan_segment<T: DeserializeOwned>(
    bytes: &[u8],
    name: &str,
    strict: bool,
) -> Result<SegmentScan<T>, CheckpointError> {
    let corrupt = |pos: usize, detail: String| CheckpointError::CorruptRecord {
        segment: name.to_string(),
        offset: pos as u64,
        detail,
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(SegmentScan { records, clean_len: pos as u64 });
        }
        if remaining < FRAME_HEADER_LEN {
            if strict {
                return Err(corrupt(pos, format!("torn frame header ({remaining} byte(s))")));
            }
            return Ok(SegmentScan { records, clean_len: pos as u64 });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
            as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - FRAME_HEADER_LEN {
            if strict {
                return Err(corrupt(
                    pos,
                    format!(
                        "torn frame body ({} of {len} byte(s) present)",
                        remaining - FRAME_HEADER_LEN
                    ),
                ));
            }
            return Ok(SegmentScan { records, clean_len: pos as u64 });
        }
        let body = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
        // The body is fully present, so a checksum failure is bit-rot, not
        // truncation — corruption in both modes.
        let actual = crc32(body);
        if actual != crc {
            return Err(corrupt(
                pos,
                format!("CRC mismatch (stored {crc:08x}, computed {actual:08x})"),
            ));
        }
        let text = std::str::from_utf8(body)
            .map_err(|e| corrupt(pos, format!("record body is not UTF-8: {e}")))?;
        let record: JournalRecord<T> = serde_json::from_str(text)
            .map_err(|e| corrupt(pos, format!("record body is not a journal record: {e}")))?;
        records.push(record);
        pos += FRAME_HEADER_LEN + len;
    }
}

/// Parses `seg-NNNNNNNN.{log,open}` names; anything else (the manifest,
/// `*.tmp` leftovers from interrupted renames) is ignored.
fn segment_seq(name: &str, extension: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(extension)?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Replays a journal directory: manifest, every sealed segment (strict),
/// and the tail (tolerant). Never panics on damaged input — every failure
/// mode is a typed [`CheckpointError`].
pub fn replay<T: DeserializeOwned>(dir: &Path) -> Result<Replay<T>, CheckpointError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest_text = match fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::ManifestMissing { dir: dir.display().to_string() })
        }
        Err(e) => return Err(io_err("read", &manifest_path, e)),
    };
    let manifest: SweepManifest = serde_json::from_str(&manifest_text)
        .map_err(|e| CheckpointError::ManifestInvalid { detail: e.to_string() })?;
    if manifest.format_version != JOURNAL_FORMAT_VERSION {
        return Err(CheckpointError::ManifestMismatch {
            field: "format_version",
            expected: JOURNAL_FORMAT_VERSION.to_string(),
            found: manifest.format_version.to_string(),
        });
    }

    let mut sealed: Vec<u64> = Vec::new();
    let mut tails: Vec<u64> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = segment_seq(name, ".log") {
            sealed.push(seq);
        } else if let Some(seq) = segment_seq(name, ".open") {
            tails.push(seq);
        }
    }
    sealed.sort_unstable();
    tails.sort_unstable();
    if tails.len() > 1 {
        return Err(CheckpointError::CorruptRecord {
            segment: open_path(dir, tails[0]).display().to_string(),
            offset: 0,
            detail: format!("{} open tail segments (at most one is valid)", tails.len()),
        });
    }
    // Sealed segments must be the contiguous run 0..n: a hole means a whole
    // segment of records vanished, which replay must not paper over.
    for (expect, &seq) in sealed.iter().enumerate() {
        if seq != expect as u64 {
            return Err(CheckpointError::CorruptRecord {
                segment: sealed_path(dir, seq).display().to_string(),
                offset: 0,
                detail: format!("missing sealed segment seg-{expect:08}.log"),
            });
        }
    }

    let mut outcomes: Vec<(usize, SweepOutcome<T>)> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stats = ReplayStats::default();
    let mut absorb = |records: Vec<JournalRecord<T>>,
                      segment: &Path|
     -> Result<(), CheckpointError> {
        for record in records {
            if record.index >= manifest.total_configs {
                return Err(CheckpointError::IndexOutOfRange {
                    segment: segment.display().to_string(),
                    index: record.index,
                    total: manifest.total_configs,
                });
            }
            if seen.insert(record.index) {
                stats.records += 1;
                outcomes.push((record.index, record.outcome));
            } else {
                stats.duplicates += 1;
            }
        }
        Ok(())
    };

    for &seq in &sealed {
        let path = sealed_path(dir, seq);
        let bytes = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let scan = scan_segment::<T>(&bytes, &path.display().to_string(), true)?;
        absorb(scan.records, &path)?;
        stats.sealed_segments += 1;
    }

    let mut next_seq = sealed.len() as u64;
    let mut tail = None;
    if let Some(&seq) = tails.first() {
        if seq != next_seq {
            return Err(CheckpointError::CorruptRecord {
                segment: open_path(dir, seq).display().to_string(),
                offset: 0,
                detail: format!(
                    "tail sequence {seq} does not follow {} sealed segment(s)",
                    sealed.len()
                ),
            });
        }
        let path = open_path(dir, seq);
        let bytes = fs::read(&path).map_err(|e| io_err("read", &path, e))?;
        let scan = scan_segment::<T>(&bytes, &path.display().to_string(), false)?;
        stats.torn_tail_bytes = bytes.len() as u64 - scan.clean_len;
        let records = scan.records.len();
        absorb(scan.records, &path)?;
        tail = Some((seq, scan.clean_len, records));
        next_seq = seq + 1;
    }

    Ok(Replay { manifest, outcomes, stats, next_seq, tail })
}

/// A sweep's checkpoint: the replayed history plus an armed writer for the
/// configurations still to run. Consumed by
/// [`run_measured_with_retry_resumable`](crate::parallel::SweepExecutor::run_measured_with_retry_resumable),
/// which takes it by value so one checkpoint can never journal two sweeps.
#[derive(Debug)]
pub struct SweepCheckpoint<T> {
    manifest: SweepManifest,
    pub(crate) writer: JournalWriter,
    pub(crate) replayed: Vec<(usize, SweepOutcome<T>)>,
    stats: ReplayStats,
}

impl<T: Serialize + DeserializeOwned> SweepCheckpoint<T> {
    /// Starts a fresh journal in `dir` (created if absent), writing
    /// `manifest` atomically. Refuses to clobber an existing journal.
    pub fn fresh(dir: &Path, manifest: SweepManifest) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(CheckpointError::JournalExists { dir: dir.display().to_string() });
        }
        let text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| CheckpointError::Unencodable { detail: e.to_string() })?;
        write_atomic(&manifest_path, text.as_bytes())?;
        Ok(Self {
            manifest,
            writer: JournalWriter::new(dir.to_path_buf(), 0),
            replayed: Vec::new(),
            stats: ReplayStats::default(),
        })
    }

    /// Resumes the journal in `dir`: replays every durable record, repairs
    /// a torn tail (its clean prefix is sealed, the torn bytes dropped),
    /// and readies a writer for the remaining configurations. `expected`
    /// must match the on-disk manifest field-for-field.
    pub fn resume(dir: &Path, expected: &SweepManifest) -> Result<Self, CheckpointError> {
        let replay = replay::<T>(dir)?;
        for (field, exp, found) in [
            ("sweep_seed", expected.sweep_seed.to_string(), replay.manifest.sweep_seed.to_string()),
            (
                "total_configs",
                expected.total_configs.to_string(),
                replay.manifest.total_configs.to_string(),
            ),
            (
                "max_attempts",
                expected.max_attempts.to_string(),
                replay.manifest.max_attempts.to_string(),
            ),
            ("workload", expected.workload.clone(), replay.manifest.workload.clone()),
        ] {
            if exp != found {
                return Err(CheckpointError::ManifestMismatch { field, expected: exp, found });
            }
        }

        let mut next_seq = replay.next_seq;
        if let Some((seq, clean_len, records)) = replay.tail {
            // Repair: re-seal the tail's clean prefix through the same
            // tmp + rename protocol, then drop the torn original. If the
            // tail held no complete record it is simply removed and its
            // sequence number reused.
            let tail_path = open_path(dir, seq);
            if records > 0 {
                let bytes = fs::read(&tail_path).map_err(|e| io_err("read", &tail_path, e))?;
                let clean = &bytes[..clean_len as usize];
                write_atomic(&sealed_path(dir, seq), clean)?;
                next_seq = seq + 1;
            } else {
                next_seq = seq;
            }
            fs::remove_file(&tail_path).map_err(|e| io_err("remove", &tail_path, e))?;
        }

        Ok(Self {
            manifest: replay.manifest,
            writer: JournalWriter::new(dir.to_path_buf(), next_seq),
            replayed: replay.outcomes,
            stats: replay.stats,
        })
    }

    /// [`resume`](Self::resume) if `dir` holds a journal, else
    /// [`fresh`](Self::fresh) — the behavior behind `repro --checkpoint DIR
    /// --resume`.
    pub fn resume_or_fresh(
        dir: &Path,
        manifest: SweepManifest,
    ) -> Result<Self, CheckpointError> {
        if dir.join(MANIFEST_FILE).exists() {
            Self::resume(dir, &manifest)
        } else {
            Self::fresh(dir, manifest)
        }
    }

    /// The manifest this checkpoint was opened under.
    pub fn manifest(&self) -> &SweepManifest {
        &self.manifest
    }

    /// Outcomes replayed from the journal at open (empty for a fresh one).
    pub fn replayed(&self) -> &[(usize, SweepOutcome<T>)] {
        &self.replayed
    }

    /// Replay counters from open.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Arms deterministic crash injection on the writer (test/bench
    /// harness only).
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.writer.arm_crash(plan);
    }

    /// Direct access to the journal writer — the escape hatch the
    /// truncation/corruption harnesses use to author journals record by
    /// record without running a sweep.
    pub fn writer_mut(&mut self) -> &mut JournalWriter {
        &mut self.writer
    }

    /// Overrides the writer's records-per-segment capacity.
    pub fn set_segment_capacity(&mut self, capacity: usize) {
        self.writer.set_segment_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_journal(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "enprop-ckpt-unit-{}-{label}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(total: usize) -> SweepManifest {
        SweepManifest::new(42, total, 3, "unit-test")
    }

    fn record(index: usize, value: f64) -> JournalRecord<f64> {
        JournalRecord { index, outcome: SweepOutcome::Ok { point: value, attempts: 1 } }
    }

    #[test]
    fn crc32_matches_published_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = temp_journal("roundtrip");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(8)).unwrap();
        for i in 0..8 {
            assert!(ckpt.writer.append(&record(i, i as f64 * 1.5)).unwrap());
        }
        ckpt.writer.finish().unwrap();
        let back = SweepCheckpoint::<f64>::resume(&dir, &manifest(8)).unwrap();
        assert_eq!(back.stats().records, 8);
        assert_eq!(back.stats().torn_tail_bytes, 0);
        let mut got: Vec<_> = back.replayed().to_vec();
        got.sort_by_key(|(i, _)| *i);
        for (i, (index, outcome)) in got.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*outcome, SweepOutcome::Ok { point: i as f64 * 1.5, attempts: 1 });
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_seal_at_capacity() {
        let dir = temp_journal("rotate");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(10)).unwrap();
        ckpt.set_segment_capacity(4);
        for i in 0..10 {
            ckpt.writer.append(&record(i, 0.0)).unwrap();
        }
        ckpt.writer.finish().unwrap();
        // 4 + 4 + 2 records → three sealed segments, no open tail.
        for seq in 0..3u64 {
            assert!(sealed_path(&dir, seq).exists(), "seg {seq} not sealed");
        }
        assert!(!open_path(&dir, 2).exists());
        let r = replay::<f64>(&dir).unwrap();
        assert_eq!(r.stats.sealed_segments, 3);
        assert_eq!(r.stats.records, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_refuses_an_existing_journal() {
        let dir = temp_journal("exists");
        let _ = SweepCheckpoint::<f64>::fresh(&dir, manifest(4)).unwrap();
        let err = SweepCheckpoint::<f64>::fresh(&dir, manifest(4)).unwrap_err();
        assert!(matches!(err, CheckpointError::JournalExists { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_foreign_manifest() {
        let dir = temp_journal("mismatch");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(4)).unwrap();
        ckpt.writer.append(&record(0, 1.0)).unwrap();
        ckpt.writer.finish().unwrap();
        let mut other = manifest(4);
        other.sweep_seed = 43;
        let err = SweepCheckpoint::<f64>::resume(&dir, &other).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ManifestMismatch { field: "sweep_seed", .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_tears_the_tail_and_resume_repairs_it() {
        let dir = temp_journal("crash");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(8)).unwrap();
        ckpt.arm_crash(CrashPlan::kill_after(3).with_torn_bytes(11));
        for i in 0..8 {
            let durable = ckpt.writer.append(&record(i, i as f64)).unwrap();
            assert_eq!(durable, i < 3, "append {i}");
        }
        assert!(ckpt.writer.crashed());
        assert_eq!(ckpt.writer.appended(), 3);
        assert_eq!(ckpt.writer.lost(), 5);
        drop(ckpt); // the dead process never reaches finish()

        let back = SweepCheckpoint::<f64>::resume(&dir, &manifest(8)).unwrap();
        assert_eq!(back.stats().records, 3);
        assert!(back.stats().torn_tail_bytes > 0, "no torn bytes recorded");
        let mut indices: Vec<_> = back.replayed().iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
        // The torn tail is gone; its clean prefix is sealed.
        assert!(!open_path(&dir, 0).exists());
        assert!(sealed_path(&dir, 0).exists());
        // The repaired journal keeps accepting records.
        let mut back = back;
        assert!(back.writer.append(&record(3, 3.0)).unwrap());
        back.writer.finish().unwrap();
        let last = replay::<f64>(&dir).unwrap();
        assert_eq!(last.stats.records, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_kill_between_records_loses_nothing_durable() {
        let dir = temp_journal("cleankill");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(8)).unwrap();
        ckpt.arm_crash(CrashPlan::kill_after(5));
        for i in 0..8 {
            ckpt.writer.append(&record(i, i as f64)).unwrap();
        }
        drop(ckpt);
        let back = SweepCheckpoint::<f64>::resume(&dir, &manifest(8)).unwrap();
        assert_eq!(back.stats().records, 5);
        assert_eq!(back.stats().torn_tail_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_indices_replay_first_wins() {
        let dir = temp_journal("dupes");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(4)).unwrap();
        ckpt.writer.append(&record(1, 10.0)).unwrap();
        ckpt.writer.append(&record(1, 99.0)).unwrap();
        ckpt.writer.finish().unwrap();
        let r = replay::<f64>(&dir).unwrap();
        assert_eq!(r.stats.records, 1);
        assert_eq!(r.stats.duplicates, 1);
        assert_eq!(r.outcomes, vec![(1, SweepOutcome::Ok { point: 10.0, attempts: 1 })]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_a_typed_corruption_error() {
        let dir = temp_journal("bitflip");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(4)).unwrap();
        ckpt.writer.append(&record(0, 1.0)).unwrap();
        ckpt.writer.append(&record(1, 2.0)).unwrap();
        ckpt.writer.finish().unwrap();
        let path = sealed_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = replay::<f64>(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::CorruptRecord { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let dir = temp_journal("range");
        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(2)).unwrap();
        ckpt.writer.append(&record(7, 1.0)).unwrap();
        ckpt.writer.finish().unwrap();
        let err = replay::<f64>(&dir).unwrap_err();
        assert!(
            matches!(err, CheckpointError::IndexOutOfRange { index: 7, total: 2, .. }),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_and_missing_segment_are_typed() {
        let dir = temp_journal("missing");
        let err = replay::<f64>(&dir.join("nowhere")).unwrap_err();
        assert!(matches!(err, CheckpointError::ManifestMissing { .. }), "{err}");

        let mut ckpt = SweepCheckpoint::<f64>::fresh(&dir, manifest(8)).unwrap();
        ckpt.set_segment_capacity(2);
        for i in 0..6 {
            ckpt.writer.append(&record(i, 0.0)).unwrap();
        }
        ckpt.writer.finish().unwrap();
        fs::remove_file(sealed_path(&dir, 1)).unwrap();
        let err = replay::<f64>(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::CorruptRecord { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_plan_from_seed_is_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = CrashPlan::from_seed(seed, 100);
            let b = CrashPlan::from_seed(seed, 100);
            assert_eq!(a, b);
            assert!(a.after_appends < 100);
            assert!(a.torn_bytes <= 16);
        }
        // The stream is domain-separated: different seeds move the plan.
        let distinct: HashSet<usize> =
            (0..64u64).map(|s| CrashPlan::from_seed(s, 1000).after_appends).collect();
        assert!(distinct.len() > 32, "crash points barely vary: {}", distinct.len());
    }
}
