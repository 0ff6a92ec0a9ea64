//! The concurrent sharded crowd repository: parallel reads and
//! group-commit writes.
//!
//! [`CrowdService`] is the crate's one storage engine, built for the
//! paper's crowd service, where many clients upload and query the shared
//! history concurrently. It owns ids and logical times, the write-ahead
//! log, snapshots and the commit path; each shard holds only an index of
//! its records (`crate::store`).
//!
//! * **Sharding** — documents are partitioned by problem name across N
//!   shards. Problem-scoped queries (the TLA hot path:
//!   "give me every PDGEQRF sample") touch exactly one shard, so queries
//!   for different problems never contend; each shard's interior `RwLock`
//!   still lets any number of readers scan one shard in parallel. A
//!   per-shard write mutex serializes writers *per shard* while writers
//!   to other shards proceed.
//! * **Group commit** — in durable mode all shards share one
//!   [`WalAppender`]: concurrent uploads enqueue framed records under
//!   their shard lock (so per-shard log order matches apply order) and
//!   then wait; overlapping commits coalesce into a single
//!   `write_all` + fsync. Durability is unchanged — no upload is
//!   acknowledged before the fsync covering its record returns.
//!
//! A query is one scan of one shard's index under its read lock; a
//! write is the shard's write lock plus the group commit. Nothing is
//! cached between queries.
//!
//! Global id/logical-time counters are atomics, so ids stay unique and
//! monotone across shards; a single-threaded client sees the same ids,
//! query results, and (in durable mode) WAL bytes at every shard count
//! (`tests/service_determinism.rs` pins them).

use crate::document::FunctionEvaluation;
use crate::query::Filter;
use crate::store::{DocumentStore, ScanStats, StoreError};
use crate::wal::{
    frame_record, load_snapshot, open_wal_append, scan_wal, write_atomic, Documents,
    DurableSnapshot, RecoveryReport, WalAppender, WalConfig, WalRecord,
};
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx, TraceStage};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Layout of a [`CrowdService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards. Problem names hash to shards, so this bounds
    /// how many unrelated-problem writers can proceed in parallel.
    pub shards: usize,
    /// Durability knobs for the shared WAL (durable mode only).
    pub wal: WalConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            wal: WalConfig::default(),
        }
    }
}

/// One shard: the index of its records plus its write serialization.
struct Shard {
    store: DocumentStore,
    /// Serializes writers on this shard (readers go straight to the
    /// store's interior `RwLock`). Held across memory-apply + WAL
    /// enqueue so the per-shard log order matches apply order.
    write: Mutex<()>,
}

/// The durable half: one WAL shared by all shards, rooted at a
/// directory holding `snapshot.json` + `wal.log`.
struct Durable {
    wal: WalAppender,
    dir: PathBuf,
    config: WalConfig,
}

/// A concurrent, optionally durable, sharded crowd repository. See the
/// module docs for the design.
pub struct CrowdService {
    shards: Vec<Shard>,
    next_id: AtomicU64,
    clock: AtomicU64,
    /// Named blobs (tuner checkpoints), logged to the WAL when durable.
    blobs: RwLock<HashMap<String, String>>,
    durable: Option<Durable>,
}

/// FNV-1a over a problem name — the shard router. Stable across runs so
/// durable directories re-shard identically on reopen.
fn shard_hash(problem: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in problem.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl CrowdService {
    /// An in-memory service (no persistence) with the given layout.
    pub fn new(config: ServiceConfig) -> Self {
        CrowdService {
            shards: (0..config.shards.max(1))
                .map(|_| Shard {
                    store: DocumentStore::default(),
                    write: Mutex::new(()),
                })
                .collect(),
            next_id: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            blobs: RwLock::new(HashMap::new()),
            durable: None,
        }
    }

    /// Open (or create) a durable service rooted at `dir`, replaying
    /// `snapshot.json` + `wal.log` into the shards. A torn final record
    /// (a crash mid-append) is truncated away, so recovery restores
    /// exactly the acknowledged writes; the report says what was found.
    pub fn open_durable(
        dir: &Path,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut service = Self::new(config.clone());
        let mut report = RecoveryReport::default();
        let (mut saved, mut blobs) = load_snapshot(dir)?.unwrap_or_default();
        report.snapshot_docs = saved.docs.len();
        report.snapshot_blobs = blobs.len();

        // Replay stages the live records by id, so each is indexed once,
        // after the log: a deleted one never is. The first record with an
        // id wins, so a record that made it into the snapshot before a
        // crash replays as a skipped duplicate.
        let mut docs: BTreeMap<u64, Arc<FunctionEvaluation>> =
            saved.docs.into_iter().map(|d| (d.id, d)).collect();
        let scan = scan_wal(dir)?;
        for record in scan.records {
            match record {
                WalRecord::Insert { doc } => {
                    saved.next_id = saved.next_id.max(doc.id);
                    saved.clock = saved.clock.max(doc.logical_time);
                    docs.entry(doc.id).or_insert(doc);
                }
                WalRecord::Delete { ids } => {
                    for id in ids {
                        docs.remove(&id);
                    }
                }
                WalRecord::Blob { key, value } => {
                    blobs.insert(key, value);
                }
            }
            report.wal_records += 1;
        }
        report.wal_bytes = scan.wal_bytes;
        report.torn = scan.torn;
        report.torn_bytes = scan.torn_bytes;

        saved.docs = docs.into_values().collect();
        service.restore(saved);
        service.blobs = RwLock::new(blobs);

        let file = open_wal_append(dir)?;
        obs::count(obs::names::CTR_WAL_REPLAYED, report.wal_records as u64);
        obs::record_with(|| obs::Event::Recovery {
            source: "wal".to_string(),
            docs: service.len() as u64,
            records: report.wal_records as u64,
            torn: report.torn,
            resumed_iter: None,
        });
        service.durable = Some(Durable {
            wal: WalAppender::new(file, &config.wal),
            dir: dir.to_path_buf(),
            config: config.wal,
        });
        Ok((service, report))
    }

    /// Index `saved`'s records (in id order) into their shards and raise
    /// the id and clock counters to the saved ones, so new ids continue
    /// after every id ever assigned, deleted ones included.
    pub(crate) fn restore(&self, saved: Documents) {
        for doc in saved.docs {
            self.shard_for(&doc.problem).store.insert(doc);
        }
        self.next_id.fetch_max(saved.next_id, Ordering::Relaxed);
        self.clock.fetch_max(saved.clock, Ordering::Relaxed);
    }

    /// Every record in id order plus the id and clock counters: what a
    /// snapshot or a documents file holds. The records are shared with
    /// the shards, not copied. The counters are read after the records,
    /// so they cover every record listed.
    pub(crate) fn documents(&self) -> Documents {
        let mut docs: Vec<Arc<FunctionEvaluation>> = self
            .shards
            .iter()
            .flat_map(|s| s.store.all_docs())
            .collect();
        docs.sort_by_key(|d| d.id);
        Documents {
            docs,
            next_id: self.next_id.load(Ordering::Relaxed),
            clock: self.clock.load(Ordering::Relaxed),
        }
    }

    fn shard_index(&self, problem: &str) -> usize {
        (shard_hash(problem) % self.shards.len() as u64) as usize
    }

    fn shard_for(&self, problem: &str) -> &Shard {
        &self.shards[self.shard_index(problem)]
    }

    /// Acquire a shard's write lock, timing the wait into the
    /// `db.shard_lock_wait_us` histogram and (when `ctx` is traced) a
    /// `shard_lock_wait` trace stage. Timing is gated on metrics or an
    /// active trace so the disabled path stays at two relaxed loads.
    fn lock_shard_timed<'a>(
        &self,
        shard: &'a Shard,
        sidx: usize,
        ctx: &RequestCtx,
    ) -> parking_lot::MutexGuard<'a, ()> {
        let timed = obs::metrics_enabled() || ctx.active();
        let lock_start = if timed { obs::now_ns() } else { 0 };
        let guard = shard.write.lock();
        if timed {
            let waited = obs::now_ns().saturating_sub(lock_start);
            obs::observe(obs::names::HIST_SHARD_LOCK_WAIT, waited / 1000);
            ctx.record_span(
                TraceStage::ShardLockWait,
                sidx as u16,
                lock_start,
                waited,
                0,
            );
        }
        guard
    }

    /// Record the WAL commit stages of one `wait_durable_traced` outcome:
    /// a leader's measured fsync span, or a follower's wait causally
    /// linked to the leader trace whose fsync covered its record.
    fn record_commit(&self, ctx: &RequestCtx, sidx: u16, outcome: &crate::wal::CommitOutcome) {
        if !ctx.active() {
            return;
        }
        if outcome.leader {
            ctx.record_span(
                TraceStage::WalFsync,
                sidx,
                outcome.fsync_start_ns,
                outcome.fsync_dur_ns,
                0,
            );
        } else if outcome.wait_ns > 0 {
            ctx.record_span(
                TraceStage::WalFollowerWait,
                sidx,
                outcome.wait_start_ns,
                outcome.wait_ns,
                outcome.leader_trace,
            );
        }
    }

    /// Insert a document: id and logical time are drawn from the global
    /// counters under the shard write lock, the shard applies it in
    /// memory, and (durable mode) the WAL record is enqueued before the
    /// lock drops and waited on after — so concurrent uploads to one
    /// shard commit in apply order, and overlapping commits share a
    /// group fsync.
    pub fn insert(&self, doc: FunctionEvaluation) -> Result<u64, StoreError> {
        self.insert_ctx(doc, RequestCtx::new(OpKind::Upload, 0))
    }

    /// [`CrowdService::insert`] under an explicit request context: each
    /// stage of the upload (shard lock wait, in-memory apply, WAL
    /// enqueue, and how the commit reached disk) is recorded against
    /// `ctx`'s trace.
    pub fn insert_ctx(
        &self,
        mut doc: FunctionEvaluation,
        ctx: RequestCtx,
    ) -> Result<u64, StoreError> {
        let op_start = ctx.begin();
        let sidx = self.shard_index(&doc.problem);
        let shard = &self.shards[sidx];
        let (id, ticket) = {
            let _w = self.lock_shard_timed(shard, sidx, &ctx);
            doc.id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            doc.logical_time = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            let id = doc.id;
            let doc = Arc::new(doc);
            let framed = match &self.durable {
                Some(_) => Some(frame_record(&WalRecord::Insert {
                    doc: Arc::clone(&doc),
                })?),
                None => None,
            };
            let apply_start = ctx.begin();
            shard.store.insert(doc);
            ctx.record(TraceStage::MemApply, sidx as u16, apply_start);
            let enqueue_start = ctx.begin();
            let ticket = match (&self.durable, framed) {
                (Some(d), Some(f)) => d.wal.enqueue(&f)?,
                _ => 0,
            };
            ctx.record(TraceStage::WalEnqueue, sidx as u16, enqueue_start);
            (id, ticket)
        };
        if let Some(d) = &self.durable {
            let outcome = d.wal.wait_durable_traced(ticket, ctx.trace_id)?;
            self.record_commit(&ctx, sidx as u16, &outcome);
            self.after_commit(d, 1, ctx.trace_id)?;
        }
        ctx.record(TraceStage::Op, sidx as u16, op_start);
        Ok(id)
    }

    /// Delete documents matching `filter` owned by `owner` across every
    /// shard; durable mode logs the resolved ids per shard. Returns the
    /// number removed.
    pub fn delete_owned(&self, owner: &str, filter: &Filter) -> Result<usize, StoreError> {
        self.delete_owned_ctx(owner, filter, RequestCtx::new(OpKind::Delete, 0))
    }

    /// [`CrowdService::delete_owned`] under an explicit request context.
    fn delete_owned_ctx(
        &self,
        owner: &str,
        filter: &Filter,
        ctx: RequestCtx,
    ) -> Result<usize, StoreError> {
        let op_start = ctx.begin();
        let mut removed = 0usize;
        let mut tickets = Vec::new();
        for (sidx, shard) in self.shards.iter().enumerate() {
            let _w = self.lock_shard_timed(shard, sidx, &ctx);
            let apply_start = ctx.begin();
            // A shard where nothing matched logs nothing.
            let ids = shard.store.delete_owned_ids(owner, filter);
            if ids.is_empty() {
                continue;
            }
            removed += ids.len();
            ctx.record(TraceStage::MemApply, sidx as u16, apply_start);
            if let Some(d) = &self.durable {
                let enqueue_start = ctx.begin();
                tickets.push((
                    sidx,
                    d.wal.enqueue(&frame_record(&WalRecord::Delete { ids })?)?,
                ));
                ctx.record(TraceStage::WalEnqueue, sidx as u16, enqueue_start);
            }
        }
        if let (Some(d), false) = (&self.durable, tickets.is_empty()) {
            let records = tickets.len() as u64;
            for (sidx, t) in tickets {
                let outcome = d.wal.wait_durable_traced(t, ctx.trace_id)?;
                self.record_commit(&ctx, sidx as u16, &outcome);
            }
            self.after_commit(d, records, ctx.trace_id)?;
        }
        ctx.record(TraceStage::Op, obs::NO_SHARD, op_start);
        Ok(removed)
    }

    /// Problem-scoped query, the one read entry point: one scan of one
    /// shard's index under its read lock. No record is copied: the
    /// result shares the matching records with the store, and a later
    /// write never changes a result already handed out. The scan and
    /// one end-to-end `op` stage are recorded against `ctx`'s trace.
    pub fn query(
        &self,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
        ctx: RequestCtx,
    ) -> (Vec<Arc<FunctionEvaluation>>, ScanStats) {
        let op_start = ctx.begin();
        let sidx = self.shard_index(problem);
        let scan_start = ctx.begin();
        let out = self.shards[sidx].store.scan(problem, filter, user);
        ctx.record(TraceStage::Scan, sidx as u16, scan_start);
        ctx.record(TraceStage::Op, sidx as u16, op_start);
        out
    }

    /// Total documents across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.store.len()).sum()
    }

    /// True when no shard holds any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct problem names, sorted, across all shards.
    pub fn problems(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.store.problems())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Live-document counts per provenance contributor, merged across all
    /// shards' per-shard counters and sorted by name.
    pub fn contributor_counts(&self) -> Vec<(String, u64)> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shards {
            for (name, n) in shard.store.contributor_counts() {
                *merged.entry(name).or_insert(0) += n;
            }
        }
        merged.into_iter().collect()
    }

    /// Query-cache (hits, misses): always `(0, 0)`, since the service
    /// caches no query results. Kept for callers that report cache
    /// traffic.
    pub fn cache_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Physical WAL fsyncs since open (0 for in-memory services).
    pub fn fsync_count(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.wal.fsync_count())
    }

    /// Records whose durability rode on another record's fsync.
    pub fn fsync_batched_count(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.wal.fsync_batched_count())
    }

    /// Write a named blob (tuner checkpoints); durable mode logs it to
    /// the WAL before acknowledging.
    pub fn put_blob(&self, key: &str, value: &str) -> Result<(), StoreError> {
        self.blobs
            .write()
            .insert(key.to_string(), value.to_string());
        if let Some(d) = &self.durable {
            let framed = frame_record(&WalRecord::Blob {
                key: key.to_string(),
                value: value.to_string(),
            })?;
            d.wal.wait_durable(d.wal.enqueue(&framed)?)?;
            self.after_commit(d, 1, 0)?;
        }
        Ok(())
    }

    /// Fetch a named blob.
    pub fn get_blob(&self, key: &str) -> Option<String> {
        self.blobs.read().get(key).cloned()
    }

    /// The one post-commit step of every durable write: count the
    /// `records` it committed and compact once `compact_every` records
    /// have accumulated since the last compaction. `link` names the trace
    /// of the triggering write (0 when untraced).
    fn after_commit(&self, d: &Durable, records: u64, link: u64) -> Result<(), StoreError> {
        obs::count(obs::names::CTR_WAL_APPENDS, records);
        if d.wal.compact_due(d.config.compact_every) {
            self.compact_linked(link)?;
        }
        Ok(())
    }

    /// Fold the WAL into a fresh snapshot (written atomically: temp +
    /// fsync + rename + dir fsync) and truncate the log. A crash between
    /// the two steps only replays records the snapshot already holds,
    /// because replay skips ids it has seen. The snapshot shares the
    /// shards' records and indexes none of them; it is captured inside
    /// the quiesce so every enqueued-but-unflushed record (already
    /// applied in memory) is covered before the buffer is dropped. No-op
    /// for in-memory services.
    pub fn compact(&self) -> Result<(), StoreError> {
        self.compact_linked(0)
    }

    /// [`CrowdService::compact`] recorded under its own `compact` trace;
    /// `link` names the trace of the upload whose `compact_every`
    /// threshold triggered this compaction (0 for explicit calls).
    fn compact_linked(&self, link: u64) -> Result<(), StoreError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let ctx = RequestCtx::new(OpKind::Compact, 0);
        let op_start = ctx.begin();
        let wal_path = d.dir.join("wal.log");
        let snapshot_path = d.dir.join("snapshot.json");
        d.wal.quiesce(|file| {
            let snap = DurableSnapshot {
                store: self.documents().to_json()?,
                blobs: self.blobs.read().clone(),
            };
            let json = serde_json::to_string(&snap)?;
            write_atomic(&snapshot_path, json.as_bytes())?;
            let fresh = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&wal_path)?;
            fresh.sync_all()?;
            *file = OpenOptions::new().append(true).open(&wal_path)?;
            Ok(())
        })?;
        ctx.record_linked(TraceStage::Compact, obs::NO_SHARD, op_start, link);
        ctx.record(TraceStage::Op, obs::NO_SHARD, op_start);
        obs::count(obs::names::CTR_WAL_COMPACTIONS, 1);
        Ok(())
    }

    /// Stale query-cache entries: always 0, since the service caches
    /// no query results. Kept for callers that audit cache coherence.
    pub fn verify_cache_coherence(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{EvalOutcome, MachineConfig};
    use crate::query::parse_query;

    fn query(
        svc: &CrowdService,
        problem: &str,
        filter: &Filter,
    ) -> (Vec<Arc<FunctionEvaluation>>, ScanStats) {
        svc.query(problem, filter, None, RequestCtx::new(OpKind::Query, 0))
    }

    fn eval(problem: &str, owner: &str, m: i64) -> FunctionEvaluation {
        FunctionEvaluation::new(problem, owner)
            .task("m", m)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", m as f64))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("crowdtune_service_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ids_are_global_and_monotone_across_shards() {
        let svc = CrowdService::new(ServiceConfig::default());
        let mut last = 0;
        for i in 0..20 {
            let id = svc
                .insert(eval(&format!("P{}", i % 5), "alice", i))
                .unwrap();
            assert!(id > last);
            last = id;
        }
        assert_eq!(svc.len(), 20);
        assert_eq!(svc.problems().len(), 5);
    }

    #[test]
    fn query_matches_single_shard_semantics() {
        let svc = CrowdService::new(ServiceConfig::default());
        let single = CrowdService::new(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        });
        for i in 0..30 {
            let doc = eval(&format!("P{}", i % 3), "alice", i);
            svc.insert(doc.clone()).unwrap();
            single.insert(doc).unwrap();
        }
        let filter = parse_query("task.m >= 10").unwrap();
        for problem in ["P0", "P1", "P2"] {
            let (svc_p, _) = query(&svc, problem, &filter);
            let (single_p, _) = query(&single, problem, &filter);
            assert_eq!(svc_p, single_p);
        }
    }

    #[test]
    fn shared_snapshots_alias_the_store_and_never_change() {
        let svc = CrowdService::new(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        for i in 0..10 {
            svc.insert(eval("P", "alice", i)).unwrap();
        }
        let filter = parse_query("task.m >= 3").unwrap();
        let (first, s1) = query(&svc, "P", &filter);
        let (second, s2) = query(&svc, "P", &filter);
        assert_eq!(s1, s2, "a repeated query scans again");
        assert_eq!(s1.scanned + s1.pruned, 10);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b), "record {} was copied", a.id);
        }
        let before: Vec<FunctionEvaluation> = first.iter().map(|d| (**d).clone()).collect();
        // An upload shows in the next query, which lists the same stored
        // records (no copies) plus the new one; the earlier result is
        // unchanged.
        svc.insert(eval("P", "alice", 50)).unwrap();
        let (after, _) = query(&svc, "P", &filter);
        assert_eq!(after.len(), first.len() + 1);
        for (old, new) in first.iter().zip(after.iter()) {
            assert!(Arc::ptr_eq(old, new), "record {} was copied", old.id);
        }
        assert_eq!(first.len(), before.len());
        for (doc, copy) in first.iter().zip(&before) {
            assert_eq!(**doc, *copy);
        }
    }

    #[test]
    fn delete_that_matches_nothing_logs_nothing() {
        let dir = temp_dir("svc_empty_delete");
        let config = ServiceConfig {
            shards: 2,
            wal: WalConfig {
                compact_every: 0,
                ..WalConfig::default()
            },
        };
        let (svc, _) = CrowdService::open_durable(&dir, config).unwrap();
        for i in 0..10 {
            svc.insert(eval("P", "alice", i)).unwrap();
            svc.insert(eval("Q", "alice", i)).unwrap();
        }
        let filter = parse_query("task.m >= 3").unwrap();
        let (p_first, _) = query(&svc, "P", &filter);
        let wal_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let (bytes, fsyncs) = (wal_len(), svc.fsync_count());
        // Nobody named bob owns anything: no shard changes, no record is
        // logged and nothing is fsynced.
        assert_eq!(svc.delete_owned("bob", &Filter::True).unwrap(), 0);
        assert_eq!((wal_len(), svc.fsync_count()), (bytes, fsyncs));
        assert_eq!(query(&svc, "P", &filter).0, p_first);
        // A delete that does match removes from both shards and logs one
        // record per shard it changed.
        let one = parse_query("task.m = 5").unwrap();
        assert_eq!(svc.delete_owned("alice", &one).unwrap(), 2);
        assert!(wal_len() > bytes);
        let (after, _) = query(&svc, "P", &filter);
        assert_eq!(after.len(), p_first.len() - 1);
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_roundtrip_through_service() {
        let dir = temp_dir("svc_roundtrip");
        {
            let (svc, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
            assert_eq!(
                (
                    report.snapshot_docs,
                    report.snapshot_blobs,
                    report.wal_records
                ),
                (0, 0, 0)
            );
            for i in 0..8 {
                svc.insert(eval(&format!("P{}", i % 4), "alice", i))
                    .unwrap();
            }
            svc.delete_owned("alice", &parse_query("task.m = 3").unwrap())
                .unwrap();
            svc.put_blob("ckpt/x", "{\"iter\":1}").unwrap();
        }
        let (svc, report) = CrowdService::open_durable(&dir, ServiceConfig::default()).unwrap();
        assert_eq!(report.wal_records, 10); // 8 inserts + 1 delete + 1 blob
        assert_eq!(svc.len(), 7);
        assert_eq!(svc.get_blob("ckpt/x").unwrap(), "{\"iter\":1}");
        let id = svc.insert(eval("P0", "alice", 99)).unwrap();
        assert!(id > 8, "ids keep rising after recovery, got {id}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_service_keeps_blobs() {
        let svc = CrowdService::new(ServiceConfig::default());
        assert_eq!(svc.get_blob("k"), None);
        svc.put_blob("k", "v").unwrap();
        assert_eq!(svc.get_blob("k").as_deref(), Some("v"));
        svc.put_blob("k", "w").unwrap();
        assert_eq!(svc.get_blob("k").as_deref(), Some("w"));
    }

    #[test]
    fn saved_documents_preserve_counters_past_deletes() {
        let svc = CrowdService::new(ServiceConfig::default());
        for i in 0..4 {
            svc.insert(eval("P", "alice", i)).unwrap();
        }
        // Delete the highest-id doc; a service restored from the saved
        // documents must still hand out fresh ids above it.
        svc.delete_owned("alice", &parse_query("task.m = 3").unwrap())
            .unwrap();
        let json = svc.documents().to_json().unwrap();
        let restored = CrowdService::new(ServiceConfig::default());
        restored.restore(Documents::from_json(&json, Path::new("documents.json")).unwrap());
        assert_eq!(restored.len(), 3);
        let id = restored.insert(eval("P", "alice", 10)).unwrap();
        assert_eq!(id, 5);
    }
}
