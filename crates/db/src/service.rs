//! The concurrent sharded crowd repository: parallel reads, group-commit
//! writes, and an epoch-invalidated query cache.
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
//! * **Query cache** — each shard keeps a small FIFO cache of query
//!   results keyed on (filter fingerprint, user, problem scope) and
//!   stamped with the shard's write epoch. Any write bumps the epoch,
//!   so a stale entry can never be served; entries are stamped with the
//!   epoch observed *before* their scan, so a write racing a scan
//!   invalidates conservatively. The epoch is odd while a write is
//!   being applied, and a scan that starts at an odd epoch is not
//!   cached.
//!
//! Global id/logical-time counters are atomics, so ids stay unique and
//! monotone across shards; a single-threaded client sees the same ids,
//! query results, and (in durable mode) WAL bytes at every shard count
//! (`tests/service_determinism.rs` pins them).

use crate::document::FunctionEvaluation;
use crate::overload::{OverloadConfig, OverloadState};
use crate::query::Filter;
use crate::store::{DocumentStore, ScanStats, StoreError};
use crate::wal::{
    frame_record, load_snapshot, open_wal_append, scan_wal, write_atomic, Documents,
    DurableSnapshot, RecoveryReport, WalAppender, WalConfig, WalRecord,
};
use crowdtune_obs as obs;
use obs::{OpKind, RequestCtx, TraceStage};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for a [`CrowdService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards. Problem names hash to shards, so this bounds
    /// how many unrelated-problem writers can proceed in parallel.
    pub shards: usize,
    /// Query-cache entries per shard; 0 disables caching entirely
    /// (no hit/miss accounting: every query reports its scan's
    /// `ScanStats`).
    pub cache_capacity: usize,
    /// Durability knobs for the shared WAL (durable mode only).
    pub wal: WalConfig,
    /// Overload control (admission, deadlines, degradation ladder,
    /// service-level fault injection). `None` — the default — means no
    /// admission control at all: the service behaves exactly as before.
    pub overload: Option<OverloadConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            cache_capacity: 128,
            wal: WalConfig::default(),
            overload: None,
        }
    }
}

/// A query result as the service hands it out: an immutable list of
/// records shared with the shard's store. The list is `Arc`-shared
/// between the query cache and its readers, and each record with the
/// store, so neither a scan nor a cache hit copies a document.
pub type SharedRecords = Arc<Vec<Arc<FunctionEvaluation>>>;

/// One cached query result, valid only while the shard's epoch still
/// equals `epoch`. The full key (filter, user, problem) is stored
/// so a fingerprint collision degrades to a miss, never a wrong answer.
/// A stale entry costs one pointer per record it lists: the records
/// themselves belong to the store.
struct CacheEntry {
    epoch: u64,
    filter: Filter,
    user: Option<String>,
    problem: String,
    results: SharedRecords,
    stats: ScanStats,
}

/// FIFO query cache for one shard.
#[derive(Default)]
struct QueryCache {
    map: HashMap<u64, CacheEntry>,
    order: VecDeque<u64>,
}

/// One shard: the index of its records plus its write serialization,
/// write epoch, and result cache.
struct Shard {
    store: DocumentStore,
    /// Serializes writers on this shard (readers go straight to the
    /// store's interior `RwLock`). Held across memory-apply + WAL
    /// enqueue so the per-shard log order matches apply order.
    write: Mutex<()>,
    /// Bumped twice by every write: to an odd value before the write
    /// touches the store and back to even after it ([`Shard::write_epoch`]).
    /// Read (Acquire) before every cached scan; a scan that starts at an
    /// odd epoch may see a half-applied write and is never cached. A
    /// cache entry is valid only for the exact (even) epoch it was
    /// scanned under.
    epoch: AtomicU64,
    cache: Mutex<QueryCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    /// Run `apply` (a write, under the shard's write lock) between two
    /// epoch bumps. With a single bump after the apply, a scan that
    /// started before the write could overwrite, under the same epoch,
    /// the entry of a scan that saw the write, and a later query would
    /// hit the older entry. With the first bump before the apply, an
    /// entry stamped with an even epoch `e` only matches while no write
    /// has begun since `e`, so it cannot miss one; scans that start
    /// while the epoch is odd are not cached at all.
    fn write_epoch<T>(&self, apply: impl FnOnce() -> T) -> T {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let out = apply();
        self.epoch.fetch_add(1, Ordering::Release);
        out
    }

    fn new() -> Self {
        Shard {
            store: DocumentStore::default(),
            write: Mutex::new(()),
            epoch: AtomicU64::new(0),
            cache: Mutex::new(QueryCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
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
    cache_capacity: usize,
    /// Named blobs (tuner checkpoints), logged to the WAL when durable.
    blobs: RwLock<HashMap<String, String>>,
    durable: Option<Durable>,
    overload: Option<OverloadState>,
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

/// Cache key: filter fingerprint folded with the querying user and the
/// problem.
fn cache_key(filter: &Filter, user: Option<&str>, problem: &str) -> u64 {
    let mut h = filter.fingerprint();
    let mut fold = |s: &str| {
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(user.unwrap_or("\u{0}anon"));
    fold(problem);
    h
}

impl CrowdService {
    /// An in-memory service (no persistence) with the given layout.
    pub fn new(config: ServiceConfig) -> Self {
        let n = config.shards.max(1);
        CrowdService {
            shards: (0..n).map(|_| Shard::new()).collect(),
            next_id: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            cache_capacity: config.cache_capacity,
            blobs: RwLock::new(HashMap::new()),
            durable: None,
            overload: config.overload.map(|cfg| OverloadState::new(cfg, n)),
        }
    }

    /// The overload controller, when admission control is configured.
    /// Load drivers use it to advance the simulated service clock, read
    /// shard health, and fingerprint twin runs.
    pub fn overload(&self) -> Option<&OverloadState> {
        self.overload.as_ref()
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
        // Admission BEFORE any effect: a shed or expired upload never
        // reaches memory or the WAL, so it can never be acked-then-lost.
        if let Some(ov) = &self.overload {
            ov.admit_write(sidx, &ctx)?;
        }
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
            shard.write_epoch(|| shard.store.insert(doc));
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
            // Resolve first: a delete that matches nothing on this shard
            // leaves its epoch, and so its cached scans, untouched.
            if shard.store.owned_ids(owner, filter).is_empty() {
                continue;
            }
            let ids = shard.write_epoch(|| shard.store.delete_owned_ids(owner, filter));
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

    /// Problem-scoped query, the one read entry point: touches exactly
    /// one shard, answered from that shard's cache when the filter+user
    /// was asked at the current write epoch. No record is copied: a miss
    /// shares the matching records with the store, and a hit clones one
    /// `Arc`. The snapshot is immutable — later writes produce new
    /// entries rather than mutating this one.
    ///
    /// The cache probe (hit path) or shard scan (miss path) is recorded
    /// against `ctx`'s trace, plus one end-to-end `op` stage. With
    /// admission control on, a context whose deadline has expired fails
    /// with a typed [`StoreError::DeadlineExceeded`] *before* the cache is
    /// probed, so an expired query can never populate or invalidate the
    /// cache (and never counts toward cache-coherence accounting). A
    /// context without a deadline (`RequestCtx::new`) cannot fail.
    pub fn query(
        &self,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
        ctx: RequestCtx,
    ) -> Result<(SharedRecords, ScanStats), StoreError> {
        let op_start = ctx.begin();
        let sidx = self.shard_index(problem);
        if let Some(ov) = &self.overload {
            ov.check_read_deadline(sidx, &ctx)?;
        }
        let out = self.cached_query(sidx, problem, filter, user, &ctx);
        ctx.record(TraceStage::Op, sidx as u16, op_start);
        Ok(out)
    }

    /// One shard's cached scan. A hit reports `scanned = pruned = 0`
    /// (nothing was examined) but preserves the scan's `denied` count —
    /// access-control observability must not vanish just because the
    /// answer was cached — and, when metrics or tracing are on, reports
    /// the epoch-check + `Arc`-clone time in `cache_check_ns` so hits
    /// stop reading as free.
    fn cached_query(
        &self,
        sidx: usize,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
        ctx: &RequestCtx,
    ) -> (SharedRecords, ScanStats) {
        let shard = &self.shards[sidx];
        let run_scan = || shard.store.scan(problem, filter, user);
        if self.cache_capacity == 0 {
            let scan_start = ctx.begin();
            let (results, stats) = run_scan();
            ctx.record(TraceStage::Scan, sidx as u16, scan_start);
            return (Arc::new(results), stats);
        }
        let timed = obs::metrics_enabled() || ctx.active();
        let check_start = if timed { obs::now_ns() } else { 0 };
        // The epoch must be read BEFORE the scan: if a write lands during
        // the scan it bumps the epoch past this value, so the entry we
        // store below can never be mistaken for current. An odd epoch
        // means a write is mid-apply: no entry matches it, and the scan
        // below is not cached.
        let epoch = shard.epoch.load(Ordering::Acquire);
        let key = cache_key(filter, user, problem);
        {
            let cache = shard.cache.lock();
            if let Some(e) = cache.map.get(&key) {
                let key_matches =
                    e.filter == *filter && e.user.as_deref() == user && e.problem == problem;
                if key_matches && e.epoch == epoch {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    let mut stats = ScanStats {
                        scanned: 0,
                        pruned: 0,
                        denied: e.stats.denied,
                        cache_hits: 1,
                        cache_misses: 0,
                        cache_check_ns: 0,
                        stale_served: 0,
                    };
                    let results = Arc::clone(&e.results);
                    drop(cache);
                    if timed {
                        let check_ns = obs::now_ns().saturating_sub(check_start);
                        stats.cache_check_ns = check_ns;
                        obs::observe(obs::names::HIST_CACHE_HIT_NS, check_ns);
                        ctx.record_span(
                            TraceStage::CacheCheck,
                            sidx as u16,
                            check_start,
                            check_ns,
                            0,
                        );
                    }
                    return (results, stats);
                }
                // Degraded shard, entry from an older epoch: serve it
                // *stale*, explicitly stamped, instead of paying for a
                // scan the shard can't afford. Never on healthy shards.
                let degraded = self
                    .overload
                    .as_ref()
                    .is_some_and(|ov| ov.serve_stale(sidx));
                if key_matches && degraded {
                    let stats = ScanStats {
                        scanned: 0,
                        pruned: 0,
                        denied: e.stats.denied,
                        cache_hits: 0,
                        cache_misses: 0,
                        cache_check_ns: 0,
                        stale_served: 1,
                    };
                    let results = Arc::clone(&e.results);
                    drop(cache);
                    obs::count(obs::names::CTR_DB_STALE_SERVED, 1);
                    if timed {
                        let check_ns = obs::now_ns().saturating_sub(check_start);
                        ctx.record_span(
                            TraceStage::StaleServe,
                            sidx as u16,
                            check_start,
                            check_ns,
                            0,
                        );
                    }
                    return (results, stats);
                }
            }
        }
        let scan_start = ctx.begin();
        let (results, mut stats) = run_scan();
        ctx.record(TraceStage::Scan, sidx as u16, scan_start);
        let results = Arc::new(results);
        stats.cache_misses = 1;
        shard.misses.fetch_add(1, Ordering::Relaxed);
        if epoch % 2 == 1 {
            return (results, stats);
        }
        let mut cache = shard.cache.lock();
        if !cache.map.contains_key(&key) {
            if cache.map.len() >= self.cache_capacity {
                if let Some(old) = cache.order.pop_front() {
                    cache.map.remove(&old);
                }
            }
            cache.order.push_back(key);
        }
        cache.map.insert(
            key,
            CacheEntry {
                epoch,
                filter: filter.clone(),
                user: user.map(str::to_string),
                problem: problem.to_string(),
                results: Arc::clone(&results),
                stats,
            },
        );
        (results, stats)
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

    /// Total query-cache (hits, misses) across all shards since open.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            (
                h + s.hits.load(Ordering::Relaxed),
                m + s.misses.load(Ordering::Relaxed),
            )
        })
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
        // Checkpoint blobs are essential writes: admission always admits
        // them (they still occupy virtual queue capacity, so their cost
        // is modeled).
        if let Some(ov) = &self.overload {
            ov.admit_write(0, &RequestCtx::disabled(OpKind::Blob))?;
        }
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

    /// Audit the query caches for staleness: re-scan every entry still
    /// stamped with its shard's *current* epoch and count entries whose
    /// cached results differ from a fresh scan. Any nonzero count is a
    /// cache coherence bug; the count feeds the `db.cache_stale_serves`
    /// counter that the "query staleness = 0" SLO objective watches.
    ///
    /// Intended to run while the service is quiescent (no concurrent
    /// writers) — a write racing the audit could stamp an entry stale
    /// spuriously.
    pub fn verify_cache_coherence(&self) -> usize {
        let mut stale = 0usize;
        for shard in &self.shards {
            let entries: Vec<(Filter, Option<String>, String, u64)> = {
                let cache = shard.cache.lock();
                cache
                    .map
                    .values()
                    .map(|e| (e.filter.clone(), e.user.clone(), e.problem.clone(), e.epoch))
                    .collect()
            };
            for (filter, user, problem, epoch) in entries {
                if shard.epoch.load(Ordering::Acquire) != epoch {
                    // Entry is already invalid — a lookup would miss, so
                    // it cannot serve stale data.
                    continue;
                }
                let (fresh, _) = shard.store.scan(&problem, &filter, user.as_deref());
                let cached = {
                    let cache = shard.cache.lock();
                    let key = cache_key(&filter, user.as_deref(), &problem);
                    cache.map.get(&key).map(|e| Arc::clone(&e.results))
                };
                if let Some(cached) = cached {
                    if *cached != fresh {
                        stale += 1;
                    }
                }
            }
        }
        obs::count(obs::names::CTR_DB_CACHE_STALE, stale as u64);
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{EvalOutcome, MachineConfig};
    use crate::query::parse_query;

    fn query(svc: &CrowdService, problem: &str, filter: &Filter) -> (SharedRecords, ScanStats) {
        svc.query(problem, filter, None, RequestCtx::new(OpKind::Query, 0))
            .unwrap()
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
            cache_capacity: 0,
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
    fn cache_hits_and_epoch_invalidation() {
        let svc = CrowdService::new(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        for i in 0..10 {
            svc.insert(eval("P", "alice", i)).unwrap();
        }
        let filter = parse_query("task.m >= 3").unwrap();
        let (first, s1) = query(&svc, "P", &filter);
        assert_eq!(s1.cache_misses, 1);
        assert_eq!(s1.cache_hits, 0);
        let (second, s2) = query(&svc, "P", &filter);
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(s2.scanned, 0, "a hit scans nothing");
        assert_eq!(first, second);
        // A write invalidates: the next query re-scans and sees the new doc.
        svc.insert(eval("P", "alice", 50)).unwrap();
        let (third, s3) = query(&svc, "P", &filter);
        assert_eq!(s3.cache_misses, 1);
        assert_eq!(third.len(), first.len() + 1);
        assert_eq!(svc.cache_counts().0, 1);
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
        let (miss, s1) = query(&svc, "P", &filter);
        let (hit, s2) = query(&svc, "P", &filter);
        assert_eq!((s1.cache_misses, s2.cache_hits), (1, 1));
        assert!(Arc::ptr_eq(&miss, &hit), "a hit hands out the cached list");
        let before: Vec<FunctionEvaluation> = miss.iter().map(|d| (**d).clone()).collect();
        // An upload invalidates the entry: the next miss lists the same
        // stored records (no copies) plus the new one, and the earlier
        // snapshot is unchanged.
        svc.insert(eval("P", "alice", 50)).unwrap();
        let (after, s3) = query(&svc, "P", &filter);
        assert_eq!(s3.cache_misses, 1);
        assert_eq!(after.len(), miss.len() + 1);
        for (old, new) in miss.iter().zip(after.iter()) {
            assert!(Arc::ptr_eq(old, new), "record {} was copied", old.id);
        }
        assert_eq!(miss.len(), before.len());
        for (doc, copy) in miss.iter().zip(&before) {
            assert_eq!(**doc, *copy);
        }
        assert_eq!(svc.verify_cache_coherence(), 0);
    }

    #[test]
    fn empty_delete_keeps_cache_hits() {
        let svc = CrowdService::new(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        for i in 0..10 {
            svc.insert(eval("P", "alice", i)).unwrap();
            svc.insert(eval("Q", "alice", i)).unwrap();
        }
        let filter = parse_query("task.m >= 3").unwrap();
        let (p_first, _) = query(&svc, "P", &filter);
        let (q_first, _) = query(&svc, "Q", &filter);
        // Nobody named bob owns anything: no shard changes.
        assert_eq!(svc.delete_owned("bob", &Filter::True).unwrap(), 0);
        for (problem, first) in [("P", &p_first), ("Q", &q_first)] {
            let (again, s) = query(&svc, problem, &filter);
            assert_eq!((s.cache_hits, s.scanned), (1, 0), "problem {problem}");
            assert_eq!(&again, first);
        }
        // A delete that does match still invalidates.
        let one = parse_query("task.m = 5").unwrap();
        assert_eq!(svc.delete_owned("alice", &one).unwrap(), 2);
        let (after, s) = query(&svc, "P", &filter);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(after.len(), p_first.len() - 1);
    }

    #[test]
    fn cache_capacity_zero_disables_accounting() {
        let svc = CrowdService::new(ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        svc.insert(eval("P", "alice", 1)).unwrap();
        let filter = parse_query("task.m >= 0").unwrap();
        let (_, s) = query(&svc, "P", &filter);
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        let (_, s) = query(&svc, "P", &filter);
        assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
        assert_eq!(svc.cache_counts(), (0, 0));
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
