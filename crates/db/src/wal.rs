//! Crash-safe persistence: the write-ahead log of the durable
//! [`crate::CrowdService`].
//!
//! The paper's shared repository is fed by unreliable crowd workers, so
//! the store must survive being killed mid-write. The service uses the
//! classic snapshot + WAL design:
//!
//! * every mutation (insert, delete, checkpoint blob) is appended to
//!   `wal.log` as a length-framed, CRC-32-checksummed JSON record and
//!   fsynced before it is acknowledged;
//! * [`crate::CrowdService::open_durable`] replays `snapshot.json` + the
//!   WAL on startup. A torn final record — a crash mid-append — is
//!   detected by the framing/checksum and the log is truncated back to
//!   the last valid prefix, so recovery restores exactly the
//!   acknowledged writes;
//! * [`crate::CrowdService::compact`] folds the log into a fresh
//!   snapshot written atomically (temp + fsync + rename + dir fsync) and
//!   then truncates the WAL. Replay is idempotent (inserts carry their
//!   assigned ids and skip duplicates), so a crash *between* snapshot
//!   write and WAL truncation merely replays records the snapshot
//!   already contains.
//!
//! The record framing is `len: u32 LE | crc32(payload): u32 LE |
//! payload`, with the payload a JSON-serialized [`WalRecord`]. Anything
//! after the first invalid record is unreachable (appends are strictly
//! sequential), so recovery treats it as the torn tail.

use crate::document::FunctionEvaluation;
use crate::store::{json_is_truncated, StoreError};
use crowdtune_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// One logged mutation. Inserts carry the document exactly as stored
/// (id and logical timestamp assigned) so replay is byte-faithful;
/// deletes carry the resolved ids, not the filter, so replay cannot
/// re-evaluate a predicate against a different state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A document was inserted (post-assignment form).
    Insert {
        /// The stored document, id and logical time included. Shared
        /// with the store, so logging an upload copies no record; it
        /// serializes exactly as the document itself.
        doc: Arc<FunctionEvaluation>,
    },
    /// Documents were deleted by id.
    Delete {
        /// Ids removed.
        ids: Vec<u64>,
    },
    /// A named blob (e.g. a tuner checkpoint) was written.
    Blob {
        /// Blob key.
        key: String,
        /// Blob payload (opaque to the store; JSON by convention).
        value: String,
    },
}

/// What [`crate::CrowdService::open_durable`] found and did during
/// recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Documents restored from the snapshot.
    pub snapshot_docs: usize,
    /// Blobs restored from the snapshot.
    pub snapshot_blobs: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records: usize,
    /// Bytes of the WAL's valid prefix.
    pub wal_bytes: u64,
    /// Bytes discarded from a torn tail (0 when the log ended cleanly).
    pub torn_bytes: u64,
    /// Whether a torn tail was detected (and truncated).
    pub torn: bool,
}

/// Durability knobs for a durable [`crate::CrowdService`]. Every commit
/// is fsynced before it is acknowledged; no knob turns that off.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Compact automatically after this many appended records
    /// (0 disables auto-compaction).
    pub compact_every: u64,
    /// Coalesce concurrent appends into one framed write + fsync (group
    /// commit). Durability is unchanged — an append is not acknowledged
    /// until the fsync covering its record returns — but N writers
    /// blocked on the same flush share one fsync instead of paying N.
    /// A single-threaded writer flushes every record immediately, so the
    /// log bytes are identical to the non-grouped path.
    pub group_commit: bool,
    /// Extra microseconds a group-commit leader waits before flushing,
    /// letting more concurrent appends join the batch. 0 (the default)
    /// relies on the natural window: appends arriving while the previous
    /// fsync is in flight batch into the next one.
    pub group_window_us: u64,
    /// Upper bound in microseconds on how long a group-commit follower
    /// waits for the in-flight flush before giving up with a typed
    /// [`StoreError::DeadlineExceeded`] (0 = wait forever, the default).
    /// A stalled leader then cannot strand its followers. The follower's
    /// record stays buffered — a later flush still commits it — but this
    /// waiter reports failure, so the write is never acknowledged on the
    /// strength of a flush that has not happened.
    pub follower_wait_timeout_us: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            compact_every: 1024,
            group_commit: true,
            group_window_us: 0,
            follower_wait_timeout_us: 0,
        }
    }
}

/// Snapshot payload: the document store's state plus the blob table.
/// The store state is embedded as a JSON string so the snapshot schema
/// is independent of the store's internal serialization.
#[derive(Serialize, Deserialize)]
pub(crate) struct DurableSnapshot {
    pub(crate) store: String,
    pub(crate) blobs: HashMap<String, String>,
}

/// Frame `record` as `len | crc32 | payload` bytes.
pub(crate) fn frame_record(record: &WalRecord) -> Result<Vec<u8>, StoreError> {
    let payload = serde_json::to_string(record)?;
    let bytes = payload.as_bytes();
    let mut framed = Vec::with_capacity(8 + bytes.len());
    framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(bytes).to_le_bytes());
    framed.extend_from_slice(bytes);
    Ok(framed)
}

/// Group-commit state: framed-but-unflushed bytes plus the ticket
/// counters of the leader/follower protocol. Tickets are issued per
/// enqueued record; `resolved` marks tickets no longer pending and `ok`
/// the prefix that reached disk, so a waiter learns both *that* its
/// record was handled and *whether* the flush succeeded.
struct GroupState {
    buf: Vec<u8>,
    enqueued: u64,
    resolved: u64,
    ok: u64,
    flushing: bool,
    poisoned: Option<String>,
    /// Recent successful flushes as `(covered_upto, leader_trace)`, so a
    /// woken follower can name the leader trace whose fsync made its
    /// record durable (the causal link in request traces). Bounded; an
    /// evicted entry just degrades a follower's link to "unknown" (0).
    flushes: VecDeque<(u64, u64)>,
}

/// How many recent flushes to remember for follower causal links.
const FLUSH_LOG_CAP: usize = 128;

/// What [`WalAppender::wait_durable_traced`] learned about how a grouped
/// record reached disk: whether this waiter led the flush, the leader's
/// measured fsync span (leaders only), the covering leader's trace id
/// (followers; 0 when unknown), and the total time spent waiting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommitOutcome {
    pub(crate) leader: bool,
    pub(crate) fsync_start_ns: u64,
    pub(crate) fsync_dur_ns: u64,
    pub(crate) leader_trace: u64,
    pub(crate) wait_start_ns: u64,
    pub(crate) wait_ns: u64,
}

/// The WAL's write half: a framed append pipe with optional group
/// commit. Concurrent appenders enqueue under the group mutex; the first
/// to find no flush in progress becomes the leader, drains the whole
/// buffer with one `write_all` + one fsync (file mutex held, group mutex
/// released), then wakes every waiter whose ticket the flush covered.
/// `std::sync` primitives are used here because the protocol needs a
/// `Condvar`, which the vendored `parking_lot` stand-in does not carry.
pub(crate) struct WalAppender {
    file: StdMutex<File>,
    group: StdMutex<GroupState>,
    cv: Condvar,
    fsyncs: AtomicU64,
    fsync_batched: AtomicU64,
    records_since_compact: AtomicU64,
    group_commit: bool,
    window: std::time::Duration,
    follower_timeout: std::time::Duration,
}

/// std mutex lock that shrugs off poisoning (a panicking appender must
/// not wedge every other writer — the WAL state itself is guarded by the
/// `poisoned` field, not by unwind propagation).
fn lock<'a, T>(m: &'a StdMutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl WalAppender {
    pub(crate) fn new(file: File, config: &WalConfig) -> Self {
        WalAppender {
            file: StdMutex::new(file),
            group: StdMutex::new(GroupState {
                buf: Vec::new(),
                enqueued: 0,
                resolved: 0,
                ok: 0,
                flushing: false,
                poisoned: None,
                flushes: VecDeque::new(),
            }),
            cv: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            fsync_batched: AtomicU64::new(0),
            records_since_compact: AtomicU64::new(0),
            group_commit: config.group_commit,
            window: std::time::Duration::from_micros(config.group_window_us),
            follower_timeout: std::time::Duration::from_micros(config.follower_wait_timeout_us),
        }
    }

    /// Physical fsyncs issued since open.
    pub(crate) fn fsync_count(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Records whose durability rode on another record's fsync.
    pub(crate) fn fsync_batched_count(&self) -> u64 {
        self.fsync_batched.load(Ordering::Relaxed)
    }

    /// Stage one framed record for commit and return its ticket. With
    /// group commit the record is only buffered — the caller must
    /// [`WalAppender::wait_durable`] on the ticket before acknowledging
    /// the write. Without group commit the record is written (and
    /// fsynced) before this returns and the ticket wait is a no-op.
    /// Callers that need the log order to match their in-memory apply
    /// order enqueue while still holding their write lock; the wait can
    /// (and should) happen after releasing it.
    pub(crate) fn enqueue(&self, framed: &[u8]) -> Result<u64, StoreError> {
        self.records_since_compact.fetch_add(1, Ordering::Relaxed);
        if !self.group_commit {
            let mut file = lock(&self.file);
            file.write_all(framed)?;
            file.sync_all()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            obs::count(obs::names::CTR_WAL_FSYNCS, 1);
            return Ok(0);
        }
        let mut g = lock(&self.group);
        if let Some(why) = &g.poisoned {
            return Err(StoreError::Corrupt(format!("WAL poisoned: {why}")));
        }
        g.buf.extend_from_slice(framed);
        g.enqueued += 1;
        Ok(g.enqueued)
    }

    /// Block until the record behind `ticket` is durable (or its flush
    /// failed). The first waiter that finds no flush in progress becomes
    /// the leader and flushes the whole buffer for everyone.
    pub(crate) fn wait_durable(&self, ticket: u64) -> Result<(), StoreError> {
        self.wait_durable_traced(ticket, 0).map(|_| ())
    }

    /// [`WalAppender::wait_durable`] that also reports *how* the record
    /// became durable, for request tracing and the group-wait histogram.
    /// `trace` is the waiter's trace id (0 = untraced); a leader's id is
    /// logged against the flush so woken followers can causally link to
    /// it. Timing is gated on metrics or an active trace, keeping the
    /// disabled path at the existing relaxed-load cost.
    pub(crate) fn wait_durable_traced(
        &self,
        ticket: u64,
        trace: u64,
    ) -> Result<CommitOutcome, StoreError> {
        let mut outcome = CommitOutcome::default();
        if !self.group_commit || ticket == 0 {
            return Ok(outcome);
        }
        let timed = obs::metrics_enabled() || trace != 0;
        let wait_start = if timed { obs::now_ns() } else { 0 };
        outcome.wait_start_ns = wait_start;
        // Armed lazily on the first bounded follower wait, so leaders and
        // already-resolved tickets never pay for an Instant.
        let mut follower_deadline: Option<std::time::Instant> = None;
        let finish = |outcome: &mut CommitOutcome| {
            if timed {
                outcome.wait_ns = obs::now_ns().saturating_sub(wait_start);
                obs::observe(obs::names::HIST_WAL_GROUP_WAIT, outcome.wait_ns / 1000);
            }
        };
        let mut g = lock(&self.group);
        loop {
            if g.resolved >= ticket {
                if !outcome.leader {
                    // Find the flush that covered this ticket so the
                    // follower can reference its leader's trace.
                    outcome.leader_trace = g
                        .flushes
                        .iter()
                        .find(|(upto, _)| *upto >= ticket)
                        .map(|(_, t)| *t)
                        .unwrap_or(0);
                }
                let failure = if ticket <= g.ok {
                    None
                } else {
                    Some(g.poisoned.clone().unwrap_or_else(|| "unknown".to_string()))
                };
                drop(g);
                finish(&mut outcome);
                return match failure {
                    None => Ok(outcome),
                    Some(why) => Err(StoreError::Corrupt(format!("WAL flush failed: {why}"))),
                };
            }
            if !g.flushing {
                g.flushing = true;
                if !self.window.is_zero() {
                    // Tunable window: give concurrent appenders a beat to
                    // join this batch before it seals.
                    drop(g);
                    std::thread::sleep(self.window);
                    g = lock(&self.group);
                }
                let batch = std::mem::take(&mut g.buf);
                let from = g.resolved;
                let upto = g.enqueued;
                drop(g);
                let fsync_start = if timed { obs::now_ns() } else { 0 };
                let flushed = {
                    let mut file = lock(&self.file);
                    file.write_all(&batch).and_then(|()| file.sync_all())
                };
                outcome.leader = true;
                outcome.fsync_start_ns = fsync_start;
                if timed {
                    outcome.fsync_dur_ns = obs::now_ns().saturating_sub(fsync_start);
                }
                g = lock(&self.group);
                g.flushing = false;
                g.resolved = upto;
                match flushed {
                    Ok(()) => {
                        g.ok = upto;
                        g.flushes.push_back((upto, trace));
                        if g.flushes.len() > FLUSH_LOG_CAP {
                            g.flushes.pop_front();
                        }
                        let n = upto - from;
                        self.fsyncs.fetch_add(1, Ordering::Relaxed);
                        obs::count(obs::names::CTR_WAL_FSYNCS, 1);
                        if n > 1 {
                            self.fsync_batched.fetch_add(n - 1, Ordering::Relaxed);
                            obs::count(obs::names::CTR_WAL_FSYNC_BATCHED, n - 1);
                        }
                    }
                    Err(e) => g.poisoned = Some(e.to_string()),
                }
                self.cv.notify_all();
            } else if self.follower_timeout.is_zero() {
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            } else {
                // Bounded follower wait: a leader stalled inside its
                // write/fsync must not strand everyone behind it. On
                // expiry the record stays buffered (a later flush still
                // commits it) but this waiter reports a typed deadline
                // failure instead of an ack it cannot back.
                let deadline = *follower_deadline
                    .get_or_insert_with(|| std::time::Instant::now() + self.follower_timeout);
                let now = std::time::Instant::now();
                if now >= deadline {
                    drop(g);
                    finish(&mut outcome);
                    obs::count(obs::names::CTR_DB_DEADLINE_EXCEEDED, 1);
                    return Err(StoreError::DeadlineExceeded);
                }
                let (guard, _) = self
                    .cv
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                g = guard;
            }
        }
    }

    /// True once `compact_every` records have been appended since the
    /// last compaction.
    pub(crate) fn compact_due(&self, compact_every: u64) -> bool {
        compact_every > 0 && self.records_since_compact.load(Ordering::Relaxed) >= compact_every
    }

    /// Quiesce the pipe and run `f` on the underlying file (compaction:
    /// write a snapshot, truncate + swap the log). Waits out any
    /// in-flight flush, then holds both locks across `f`, so no append
    /// can interleave. Any still-buffered records were already applied
    /// in memory — the snapshot `f` writes covers them — so on success
    /// the buffer is dropped and every pending ticket resolves durable.
    pub(crate) fn quiesce<R>(
        &self,
        f: impl FnOnce(&mut File) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        let mut g = lock(&self.group);
        while g.flushing {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let result = {
            let mut file = lock(&self.file);
            f(&mut file)
        };
        if result.is_ok() {
            g.buf.clear();
            g.resolved = g.enqueued;
            g.ok = g.enqueued;
            self.records_since_compact.store(0, Ordering::Relaxed);
        }
        drop(g);
        self.cv.notify_all();
        result
    }
}

/// Result of scanning a durable directory's `wal.log`: the intact
/// records in append order, plus what the scan did about the tail.
pub(crate) struct WalScan {
    pub(crate) records: Vec<WalRecord>,
    /// Bytes of the valid prefix.
    pub(crate) wal_bytes: u64,
    /// Bytes discarded from a torn tail (0 when the log ended cleanly).
    pub(crate) torn_bytes: u64,
    /// Whether a torn tail was detected (and physically truncated).
    pub(crate) torn: bool,
}

/// Load `snapshot.json` from `dir`, distinguishing "no snapshot yet"
/// (`Ok(None)`) from a truncated or corrupt one (an error).
pub(crate) fn load_snapshot(dir: &Path) -> Result<Option<DurableSnapshot>, StoreError> {
    let snapshot_path = dir.join("snapshot.json");
    match std::fs::read_to_string(&snapshot_path) {
        Ok(json) => match serde_json::from_str(&json) {
            Ok(s) => Ok(Some(s)),
            Err(_) if json_is_truncated(&json) => Err(StoreError::Truncated {
                path: snapshot_path,
                bytes: json.len() as u64,
            }),
            Err(e) => Err(e.into()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Read and frame-decode `dir/wal.log`, physically truncating a torn
/// tail back to the last valid prefix so future appends start clean.
/// A missing log reads as empty.
pub(crate) fn scan_wal(dir: &Path) -> Result<WalScan, StoreError> {
    let wal_path = dir.join("wal.log");
    let bytes = match std::fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut scan = WalScan {
        records: Vec::new(),
        wal_bytes: 0,
        torn_bytes: 0,
        torn: false,
    };
    let mut offset = 0usize;
    loop {
        match next_record(&bytes, offset) {
            Some(Ok((record, end))) => {
                scan.records.push(record);
                offset = end;
            }
            Some(Err(())) => {
                // Torn/corrupt tail: everything from `offset` on is
                // unreachable (appends are strictly sequential).
                scan.torn = true;
                scan.torn_bytes = (bytes.len() - offset) as u64;
                break;
            }
            None => break,
        }
    }
    scan.wal_bytes = offset as u64;
    if scan.torn {
        if let Ok(f) = OpenOptions::new().write(true).open(&wal_path) {
            f.set_len(scan.wal_bytes)?;
            f.sync_all()?;
        }
        obs::count(obs::names::CTR_WAL_TORN, 1);
    }
    Ok(scan)
}

/// Open (creating if needed) `dir/wal.log` for appending.
pub(crate) fn open_wal_append(dir: &Path) -> Result<File, StoreError> {
    Ok(OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("wal.log"))?)
}

/// Frame-decode the record starting at `offset`. Returns `None` at a
/// clean end of log, `Some(Err(()))` for a torn/corrupt record, and
/// `Some(Ok((record, next_offset)))` for an intact one.
#[allow(clippy::type_complexity)]
pub(crate) fn next_record(bytes: &[u8], offset: usize) -> Option<Result<(WalRecord, usize), ()>> {
    if offset == bytes.len() {
        return None;
    }
    if bytes.len() - offset < 8 {
        return Some(Err(())); // torn header
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().ok()?);
    let start = offset + 8;
    if bytes.len() - start < len {
        return Some(Err(())); // torn payload
    }
    let payload = &bytes[start..start + len];
    if crc32(payload) != crc {
        return Some(Err(())); // bit rot or mid-record tear
    }
    let record: WalRecord = match std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(r) => r,
        None => return Some(Err(())),
    };
    Some(Ok((record, start + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{EvalOutcome, MachineConfig};
    use crate::query::parse_query;
    use crate::service::{CrowdService, ServiceConfig};

    fn eval(problem: &str, owner: &str, m: i64) -> FunctionEvaluation {
        FunctionEvaluation::new(problem, owner)
            .task("m", m)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", m as f64))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("crowdtune_wal_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stalled_leader_cannot_strand_a_bounded_follower() {
        let dir = temp_dir("bounded_follower");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        let config = WalConfig {
            follower_wait_timeout_us: 20_000,
            compact_every: 0,
            ..WalConfig::default()
        };
        let appender = WalAppender::new(file, &config);
        let framed = frame_record(&WalRecord::Blob {
            key: "ckpt".into(),
            value: "{}".into(),
        })
        .unwrap();
        // Wedge a phantom leader mid-flush, so the waiter below is a
        // follower with nobody ever going to wake it.
        lock(&appender.group).flushing = true;
        let ticket = appender.enqueue(&framed).unwrap();
        let start = std::time::Instant::now();
        let err = appender.wait_durable(ticket).unwrap_err();
        assert!(
            matches!(err, StoreError::DeadlineExceeded),
            "expected DeadlineExceeded, got {err}"
        );
        assert!(start.elapsed() >= std::time::Duration::from_micros(20_000));
        // Nothing was acknowledged and nothing reached disk yet...
        assert_eq!(appender.fsync_count(), 0);
        // ...but the record is still buffered: once the stall clears, the
        // next waiter becomes leader and commits it.
        lock(&appender.group).flushing = false;
        appender.wait_durable(ticket).unwrap();
        assert_eq!(appender.fsync_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn compaction_folds_wal_into_snapshot() {
        let dir = temp_dir("compact");
        {
            let (svc, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
            for m in 0..6 {
                svc.insert(eval("P", "alice", m)).unwrap();
            }
            svc.put_blob("k", "v").unwrap();
            svc.compact().unwrap();
            // Post-compaction appends land in the fresh log.
            svc.insert(eval("P", "bob", 100)).unwrap();
        }
        let (svc, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
        assert_eq!(report.snapshot_docs, 6);
        assert_eq!(report.snapshot_blobs, 1);
        assert_eq!(report.wal_records, 1);
        assert_eq!(svc.len(), 7);
        assert_eq!(svc.get_blob("k").unwrap(), "v");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_skips_duplicate_ids_below_and_at_the_largest() {
        let dir = temp_dir("replay_duplicates");
        let config = ServiceConfig {
            wal: WalConfig {
                compact_every: 0,
                ..WalConfig::default()
            },
            ..ServiceConfig::default()
        };
        {
            let (svc, _) = CrowdService::open_durable(&dir, config.clone()).unwrap();
            for m in 1..=4 {
                svc.insert(eval("P", "alice", m)).unwrap();
            }
        }
        // Hand-append copies of ids 2 and 4 (the largest so far), which a
        // crash between a snapshot and its log truncation leaves behind,
        // a new id 9, and id 9 again.
        let copy = |id: u64, m: i64| {
            let mut doc = eval("P", "mallory", m);
            doc.id = id;
            doc.logical_time = id;
            frame_record(&WalRecord::Insert { doc: Arc::new(doc) }).unwrap()
        };
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        for (id, m) in [(2, 20), (4, 40), (9, 90), (9, 91)] {
            std::io::Write::write_all(&mut log, &copy(id, m)).unwrap();
        }
        drop(log);
        let (svc, report) = CrowdService::open_durable(&dir, config).unwrap();
        assert_eq!(report.wal_records, 8);
        assert_eq!(svc.len(), 5, "ids 1-4 and 9, each once");
        let store = svc.merged_store();
        let runtime = |id| store.get(id).unwrap().result.output("runtime").unwrap();
        // The first record with an id wins; later copies are skipped.
        assert_eq!([runtime(2), runtime(4), runtime(9)], [2.0, 4.0, 90.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = temp_dir("auto");
        let config = ServiceConfig {
            wal: WalConfig {
                compact_every: 4,
                ..WalConfig::default()
            },
            ..ServiceConfig::default()
        };
        let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
        {
            let (svc, _) = CrowdService::open_durable(&dir, config.clone()).unwrap();
            for m in 0..9 {
                svc.insert(eval("P", "alice", m)).unwrap();
            }
        }
        let (svc, report) = CrowdService::open_durable(&dir, config.clone()).unwrap();
        // Two compactions happened (at 4 and 8); only the tail remains
        // in the log.
        assert_eq!(report.snapshot_docs, 8);
        assert_eq!(report.wal_records, 1);
        assert_eq!(svc.len(), 9);
        // Deletes and blobs count toward the threshold too: the fourth
        // record since reopening compacts, leaving an empty log.
        svc.delete_owned("alice", &parse_query("task.m = 0").unwrap())
            .unwrap();
        svc.put_blob("ckpt", "{\"iter\":1}").unwrap();
        svc.put_blob("ckpt", "{\"iter\":2}").unwrap();
        assert!(wal_len() > 0);
        svc.put_blob("ckpt", "{\"iter\":3}").unwrap();
        assert_eq!(wal_len(), 0, "the delete + blob records compacted");
        // A checkpoint-only run keeps its log bounded.
        for iter in 4..=11 {
            svc.put_blob("ckpt", &format!("{{\"iter\":{iter}}}"))
                .unwrap();
        }
        assert_eq!(wal_len(), 0, "blob records compacted");
        drop(svc);
        let (svc, report) = CrowdService::open_durable(&dir, config).unwrap();
        assert_eq!(report.snapshot_docs, 8);
        assert_eq!(report.snapshot_blobs, 1);
        assert_eq!(report.wal_records, 0);
        assert_eq!(svc.get_blob("ckpt").unwrap(), "{\"iter\":11}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_usable() {
        let dir = temp_dir("torn");
        {
            let (svc, _) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
            for m in 0..3 {
                svc.insert(eval("P", "alice", m)).unwrap();
            }
        }
        // Simulate a crash mid-append: garbage tail bytes.
        let wal_path = dir.join("wal.log");
        let mut f = OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0x42, 0x42, 0x42]).unwrap();
        drop(f);
        let before = std::fs::metadata(&wal_path).unwrap().len();
        {
            let (svc, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
            assert!(report.torn);
            assert_eq!(report.torn_bytes, 3);
            assert_eq!(report.wal_records, 3);
            assert_eq!(svc.len(), 3);
            // The log was physically truncated.
            assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), before - 3);
            // And appends after recovery are clean.
            svc.insert(eval("P", "alice", 50)).unwrap();
        }
        let (svc, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
        assert!(!report.torn);
        assert_eq!(svc.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
