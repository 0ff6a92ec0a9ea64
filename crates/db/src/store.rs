//! The embedded document store backing the shared database.
//!
//! Stands in for the paper's MongoDB deployment: JSON documents grouped by
//! tuning problem, a secondary index on the problem name, monotonically
//! increasing ids and logical timestamps, filter-based queries, and JSON
//! file persistence. Thread-safe behind a `parking_lot::RwLock` so that
//! concurrent tuner instances (the "crowd") can submit and query at once.

use crate::document::FunctionEvaluation;
use crate::query::{FieldIndexes, Filter};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure during persistence.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// A persisted snapshot is structurally incomplete: the file was cut
    /// mid-write (crash, full disk, partial copy) rather than merely
    /// malformed.
    Truncated {
        /// File the torn snapshot was read from.
        path: std::path::PathBuf,
        /// Bytes actually present in the file.
        bytes: u64,
    },
    /// A write-ahead log record failed its integrity check somewhere
    /// other than the tail (tail tears are recovered, not errored).
    Corrupt(String),
    /// Admission control shed this request before any state was touched.
    /// Nothing was applied, enqueued, or acked; the client should retry
    /// after the suggested backoff.
    Overloaded {
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before it could complete. Nothing
    /// was acked on behalf of this request; write effects it observed
    /// were never reported durable to the caller.
    DeadlineExceeded,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Json(e) => write!(f, "store JSON error: {e}"),
            StoreError::Truncated { path, bytes } => write!(
                f,
                "store snapshot {} is truncated after {bytes} bytes \
                 (torn write?)",
                path.display()
            ),
            StoreError::Corrupt(why) => write!(f, "store corruption: {why}"),
            StoreError::Overloaded { retry_after_ms } => write!(
                f,
                "service overloaded: request shed, retry after {retry_after_ms}ms"
            ),
            StoreError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Json(e)
    }
}

/// The documents are `Arc`-shared: a query result or a cache entry holds
/// pointers to the stored records, never copies of them. A stored record
/// is never mutated, so a snapshot taken before a write stays valid.
#[derive(Default, Serialize, Deserialize)]
struct Inner {
    docs: Vec<Arc<FunctionEvaluation>>,
    next_id: u64,
    clock: u64,
    /// problem name -> doc indexes (not ids), rebuilt on load.
    #[serde(skip)]
    by_problem: HashMap<String, Vec<usize>>,
    /// Field-value indexes over every queryable path, rebuilt on load.
    #[serde(skip)]
    indexes: FieldIndexes,
    /// provenance contributor -> live document count, rebuilt on load.
    #[serde(skip)]
    by_contributor: BTreeMap<String, u64>,
}

/// Count a document against its provenance contributor (records without
/// provenance — pre-schema imports — are not counted).
fn bump_contributor(map: &mut BTreeMap<String, u64>, doc: &FunctionEvaluation) {
    let Some(p) = &doc.provenance else { return };
    if p.contributor.is_empty() {
        return;
    }
    match map.get_mut(&p.contributor) {
        Some(n) => *n += 1,
        None => {
            map.insert(p.contributor.clone(), 1);
        }
    }
}

impl Inner {
    /// Append a document and index it. Problem and contributor keys are
    /// looked up by reference first, so only a problem or contributor
    /// seen for the first time allocates a key.
    fn push(&mut self, doc: Arc<FunctionEvaluation>) {
        let idx = self.docs.len();
        match self.by_problem.get_mut(&doc.problem) {
            Some(postings) => postings.push(idx),
            None => {
                self.by_problem.insert(doc.problem.clone(), vec![idx]);
            }
        }
        self.indexes.insert_doc(idx, &doc);
        bump_contributor(&mut self.by_contributor, &doc);
        self.docs.push(doc);
    }

    fn rebuild_index(&mut self) {
        let docs = std::mem::take(&mut self.docs);
        self.by_problem.clear();
        self.by_contributor.clear();
        self.indexes = FieldIndexes::default();
        for doc in docs {
            self.push(doc);
        }
    }

    /// The readable documents among `candidates` that match `filter`,
    /// shared with the store (no record is copied). Counts the scanned
    /// and access-denied candidates into `stats`.
    fn collect_matches(
        &self,
        candidates: &[usize],
        filter: &Filter,
        user: Option<&str>,
        stats: &mut ScanStats,
    ) -> Vec<Arc<FunctionEvaluation>> {
        stats.scanned = candidates.len();
        let mut hits = Vec::with_capacity(candidates.len());
        for &i in candidates {
            let doc = &self.docs[i];
            if !doc.readable_by(user) {
                stats.denied += 1;
            } else if filter.matches(doc) {
                hits.push(Arc::clone(doc));
            }
        }
        hits
    }
}

/// Scan statistics from a counted query: how many index entries were
/// examined, how many the field indexes let the scan skip, and how many
/// documents access control withheld.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Documents examined (index entries visited).
    pub scanned: usize,
    /// Documents skipped outright because the field indexes proved they
    /// cannot match the filter.
    pub pruned: usize,
    /// Documents withheld because the querying user may not read them.
    pub denied: usize,
    /// Queries answered from a shard result cache (always 0 on the
    /// embedded store path; a cache hit reports `scanned = pruned = 0`
    /// because nothing was examined).
    pub cache_hits: usize,
    /// Cacheable lookups that missed the cache and ran a real scan.
    pub cache_misses: usize,
    /// Nanoseconds the cache-hit path spent on the epoch check plus the
    /// result `Arc` clone, so hits stop reading as free in per-op
    /// timings. 0 on the embedded path, on misses, and whenever neither
    /// metrics nor tracing is enabled (timing is gated to keep the
    /// disabled path cheap).
    pub cache_check_ns: u64,
    /// Results served from an epoch-stamped *stale* cache entry by a
    /// degraded shard. Always 0 on healthy shards: stale answers are
    /// only ever returned deliberately, and always marked.
    pub stale_served: usize,
}

impl ScanStats {
    /// Element-wise accumulation (merging per-shard stats).
    pub fn absorb(&mut self, other: &ScanStats) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
        self.denied += other.denied;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_check_ns += other.cache_check_ns;
        self.stale_served += other.stale_served;
    }
}

/// Intersection of two ascending position lists (two-pointer merge).
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// An in-memory (optionally file-persisted) document store.
#[derive(Default)]
pub struct DocumentStore {
    inner: RwLock<Inner>,
}

impl DocumentStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a document; returns the assigned id.
    pub fn insert(&self, mut doc: FunctionEvaluation) -> u64 {
        let mut inner = self.inner.write();
        inner.next_id += 1;
        inner.clock += 1;
        doc.id = inner.next_id;
        doc.logical_time = inner.clock;
        inner.push(Arc::new(doc));
        inner.next_id
    }

    /// Replay an insert whose id and logical timestamp were already
    /// assigned (WAL recovery). Idempotent: a document whose id is
    /// already present is skipped, so re-replaying records that made it
    /// into a snapshot before a crash cannot duplicate them. The id/clock
    /// counters advance to cover the replayed document.
    pub fn insert_exact(&self, doc: Arc<FunctionEvaluation>) {
        let mut inner = self.inner.write();
        if inner.docs.iter().any(|d| d.id == doc.id) {
            return;
        }
        inner.next_id = inner.next_id.max(doc.id);
        inner.clock = inner.clock.max(doc.logical_time);
        inner.push(doc);
    }

    /// Insert a document whose id and logical timestamp were assigned by
    /// an external allocator (the sharded crowd service's global
    /// counters). Skips the duplicate scan [`DocumentStore::insert_exact`]
    /// pays — the allocator guarantees uniqueness — and advances the local
    /// counters to cover the document so a later unsharded load continues
    /// from the right id.
    pub(crate) fn insert_assigned(&self, doc: Arc<FunctionEvaluation>) {
        let mut inner = self.inner.write();
        inner.next_id = inner.next_id.max(doc.id);
        inner.clock = inner.clock.max(doc.logical_time);
        inner.push(doc);
    }

    /// Every stored document, access control NOT applied — for moving a
    /// store's contents between a snapshot and the service's shards. The
    /// documents are shared, not copied.
    pub(crate) fn all_docs(&self) -> Vec<Arc<FunctionEvaluation>> {
        self.inner.read().docs.clone()
    }

    /// Current `(next_id, clock)` counters, for seeding an external
    /// allocator from recovered state.
    pub(crate) fn counters(&self) -> (u64, u64) {
        let inner = self.inner.read();
        (inner.next_id, inner.clock)
    }

    /// Advance the id/clock counters to at least the given values. Used
    /// when materializing an embedded store from sharded service state:
    /// deleted documents may have held the highest id, so counters must
    /// carry over even when no surviving document proves them.
    pub(crate) fn advance_counters(&self, next_id: u64, clock: u64) {
        let mut inner = self.inner.write();
        inner.next_id = inner.next_id.max(next_id);
        inner.clock = inner.clock.max(clock);
    }

    /// Delete documents by id (WAL replay of a logged delete). Missing
    /// ids are ignored, keeping replay idempotent. Returns the number
    /// removed.
    pub fn delete_ids(&self, ids: &[u64]) -> usize {
        let mut inner = self.inner.write();
        let before = inner.docs.len();
        inner.docs.retain(|d| !ids.contains(&d.id));
        let removed = before - inner.docs.len();
        if removed > 0 {
            inner.rebuild_index();
        }
        removed
    }

    /// Ids of the documents owned by `owner` that match `filter`: what
    /// [`DocumentStore::delete_owned_ids`] would remove now.
    pub fn owned_ids(&self, owner: &str, filter: &Filter) -> Vec<u64> {
        self.inner
            .read()
            .docs
            .iter()
            .filter(|d| d.owner == owner && filter.matches(d))
            .map(|d| d.id)
            .collect()
    }

    /// Delete the documents matching `filter` owned by `owner` (only the
    /// owner may delete their data) and return their ids, so a
    /// write-ahead log can record the exact effect.
    pub fn delete_owned_ids(&self, owner: &str, filter: &Filter) -> Vec<u64> {
        let mut inner = self.inner.write();
        let removed: Vec<u64> = inner
            .docs
            .iter()
            .filter(|d| d.owner == owner && filter.matches(d))
            .map(|d| d.id)
            .collect();
        if !removed.is_empty() {
            inner
                .docs
                .retain(|d| !(d.owner == owner && filter.matches(d)));
            inner.rebuild_index();
        }
        removed
    }

    /// Total number of stored documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a document by id.
    pub fn get(&self, id: u64) -> Option<FunctionEvaluation> {
        let inner = self.inner.read();
        inner
            .docs
            .iter()
            .find(|d| d.id == id)
            .map(|d| FunctionEvaluation::clone(d))
    }

    /// All documents for a problem (uses the secondary index), filtered by
    /// `filter` and readable by `user`. The documents are shared with the
    /// store, not copied.
    pub fn query_problem(
        &self,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
    ) -> Vec<Arc<FunctionEvaluation>> {
        self.query_problem_counted(problem, filter, user).0
    }

    /// Like [`DocumentStore::query_problem`], but also reports scan
    /// statistics: how many index entries were examined and how many were
    /// withheld by access control (readable-by check), for observability.
    pub fn query_problem_counted(
        &self,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
    ) -> (Vec<Arc<FunctionEvaluation>>, ScanStats) {
        let inner = self.inner.read();
        let mut stats = ScanStats::default();
        let Some(idxs) = inner.by_problem.get(problem) else {
            return (Vec::new(), stats);
        };
        // Narrow the problem's postings through the field indexes before
        // touching any document; candidates are still verified by
        // `matches`.
        let hits = match inner.indexes.plan(filter) {
            Some(plan) => {
                let candidates = intersect_sorted(idxs, &plan);
                stats.pruned = idxs.len() - candidates.len();
                inner.collect_matches(&candidates, filter, user, &mut stats)
            }
            None => inner.collect_matches(idxs, filter, user, &mut stats),
        };
        (hits, stats)
    }

    /// Full-collection query (no problem restriction).
    pub fn query(&self, filter: &Filter, user: Option<&str>) -> Vec<Arc<FunctionEvaluation>> {
        self.query_counted(filter, user).0
    }

    /// Like [`DocumentStore::query`], but also reports how many documents
    /// the field indexes let the scan skip.
    pub fn query_counted(
        &self,
        filter: &Filter,
        user: Option<&str>,
    ) -> (Vec<Arc<FunctionEvaluation>>, ScanStats) {
        let inner = self.inner.read();
        let mut stats = ScanStats::default();
        let candidates: Vec<usize> = match inner.indexes.plan(filter) {
            Some(plan) => plan,
            None => (0..inner.docs.len()).collect(),
        };
        stats.pruned = inner.docs.len() - candidates.len();
        let hits = inner.collect_matches(&candidates, filter, user, &mut stats);
        (hits, stats)
    }

    /// Live-document counts per provenance contributor, sorted by name.
    /// Maintained incrementally on insert and rebuilt on deletes/load.
    pub fn contributor_counts(&self) -> Vec<(String, u64)> {
        let inner = self.inner.read();
        inner
            .by_contributor
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Distinct problem names present in the store.
    pub fn problems(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner.by_problem.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serialize the store's persistent state to a JSON string (the
    /// snapshot payload used by [`DocumentStore::save`] and the durable
    /// store's compaction).
    pub fn snapshot_json(&self) -> Result<String, StoreError> {
        let inner = self.inner.read();
        Ok(serde_json::to_string(&*inner)?)
    }

    /// Rebuild a store from a snapshot produced by
    /// [`DocumentStore::snapshot_json`].
    pub fn from_snapshot_json(json: &str) -> Result<Self, StoreError> {
        let mut inner: Inner = serde_json::from_str(json)?;
        inner.rebuild_index();
        Ok(DocumentStore {
            inner: RwLock::new(inner),
        })
    }

    /// Persist the whole store to a JSON file, atomically: the snapshot
    /// is written to `<path>.tmp`, fsynced, renamed over `path`, and the
    /// parent directory is fsynced so the rename itself is durable. A
    /// crash at any point leaves either the old snapshot or the new one,
    /// never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let json = self.snapshot_json()?;
        write_atomic(path, json.as_bytes())?;
        Ok(())
    }

    /// Load a store from a JSON file produced by [`DocumentStore::save`].
    ///
    /// A snapshot that was cut mid-write (its JSON is an incomplete
    /// prefix) is reported as [`StoreError::Truncated`] rather than an
    /// opaque parse error, so callers can distinguish "torn write" from
    /// "not a snapshot".
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let json = std::fs::read_to_string(path)?;
        match Self::from_snapshot_json(&json) {
            Ok(store) => Ok(store),
            Err(StoreError::Json(_)) if json_is_truncated(&json) => Err(StoreError::Truncated {
                path: path.to_path_buf(),
                bytes: json.len() as u64,
            }),
            Err(e) => Err(e),
        }
    }
}

/// Write `bytes` to `path` atomically: temp file + fsync + rename +
/// parent-directory fsync.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Directory fsync makes the rename durable; best-effort on
            // filesystems that refuse to open directories.
            if let Ok(d) = std::fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Structural truncation check: valid JSON text has balanced braces and
/// brackets outside string literals and does not end inside a string. A
/// snapshot whose tail was cut off fails this; a complete-but-malformed
/// document passes it and keeps its parse error.
pub(crate) fn json_is_truncated(json: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    in_string || depth > 0 || json.trim().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Access, EvalOutcome, MachineConfig};
    use crate::query::parse_query;

    fn eval(problem: &str, owner: &str, m: i64, runtime: f64) -> FunctionEvaluation {
        FunctionEvaluation::new(problem, owner)
            .task("m", m)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", runtime))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
    }

    #[test]
    fn insert_assigns_monotonic_ids_and_clock() {
        let store = DocumentStore::new();
        let id1 = store.insert(eval("P", "alice", 100, 1.0));
        let id2 = store.insert(eval("P", "alice", 200, 2.0));
        assert!(id2 > id1);
        let d1 = store.get(id1).unwrap();
        let d2 = store.get(id2).unwrap();
        assert!(d2.logical_time > d1.logical_time);
    }

    #[test]
    fn problem_index_scopes_queries() {
        let store = DocumentStore::new();
        store.insert(eval("P1", "alice", 100, 1.0));
        store.insert(eval("P2", "alice", 100, 2.0));
        store.insert(eval("P1", "bob", 200, 3.0));
        assert_eq!(store.query_problem("P1", &Filter::True, None).len(), 2);
        assert_eq!(store.query_problem("P2", &Filter::True, None).len(), 1);
        assert_eq!(store.query_problem("P3", &Filter::True, None).len(), 0);
        assert_eq!(store.problems(), vec!["P1".to_string(), "P2".to_string()]);
    }

    #[test]
    fn filters_apply() {
        let store = DocumentStore::new();
        for m in [100i64, 200, 300, 400] {
            store.insert(eval("P", "alice", m, m as f64 / 100.0));
        }
        let f = parse_query("task.m BETWEEN 150 AND 350").unwrap();
        let hits = store.query_problem("P", &f, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(store.query(&f, None).len(), 2);
    }

    #[test]
    fn access_control_enforced_on_query() {
        let store = DocumentStore::new();
        store.insert(eval("P", "alice", 1, 1.0)); // public
        store.insert(eval("P", "alice", 2, 2.0).with_access(Access::Private));
        store.insert(eval("P", "alice", 3, 3.0).with_access(Access::Shared {
            with: vec!["bob".into()],
        }));
        assert_eq!(store.query_problem("P", &Filter::True, None).len(), 1);
        assert_eq!(
            store.query_problem("P", &Filter::True, Some("bob")).len(),
            2
        );
        assert_eq!(
            store.query_problem("P", &Filter::True, Some("alice")).len(),
            3
        );
        assert_eq!(
            store.query_problem("P", &Filter::True, Some("carol")).len(),
            1
        );
    }

    #[test]
    fn delete_owned_respects_ownership() {
        let store = DocumentStore::new();
        store.insert(eval("P", "alice", 1, 1.0));
        store.insert(eval("P", "bob", 1, 2.0));
        let removed = store.delete_owned_ids("alice", &Filter::True);
        assert_eq!(removed.len(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.query_problem("P", &Filter::True, None)[0].owner,
            "bob"
        );
        // Index still consistent after rebuild.
        assert_eq!(store.query_problem("P", &Filter::True, None).len(), 1);
    }

    #[test]
    fn indexed_equality_scans_fewer_docs_than_collection() {
        let store = DocumentStore::new();
        for m in 0..40i64 {
            store.insert(eval("P", "alice", m % 4, m as f64));
        }
        // Equality on an indexed field: only matching postings examined.
        let f = parse_query("task.m = 1").unwrap();
        let (hits, stats) = store.query_counted(&f, None);
        assert_eq!(hits.len(), 10);
        assert!(
            stats.scanned < store.len(),
            "scanned {} of {}",
            stats.scanned,
            store.len()
        );
        assert_eq!(stats.scanned, 10);
        assert_eq!(stats.pruned, 30);
        // The problem-scoped path prunes through the same indexes.
        let (hits, stats) = store.query_problem_counted("P", &f, None);
        assert_eq!(hits.len(), 10);
        assert_eq!(stats.scanned, 10);
        assert_eq!(stats.pruned, 30);
    }

    #[test]
    fn range_plans_prune_and_agree_with_full_scan() {
        let store = DocumentStore::new();
        for m in 0..50i64 {
            store.insert(eval("P", "alice", m, m as f64 / 10.0));
        }
        for (q, expect) in [
            ("task.m BETWEEN 10 AND 20", 10),
            ("task.m < 5", 5),
            ("task.m >= 45", 5),
            ("output.runtime <= 0.95 AND task.m > 3", 6),
            ("task.m = 7 OR task.m = 9", 2),
            ("task.m BETWEEN 20 AND 10", 0), // inverted: matches nothing
        ] {
            let f = parse_query(q).unwrap();
            let (hits, stats) = store.query_counted(&f, None);
            assert_eq!(hits.len(), expect, "query {q}");
            assert!(stats.scanned < store.len(), "query {q} did a full scan");
            assert_eq!(stats.scanned + stats.pruned, store.len(), "query {q}");
            // The planner's candidate set must be a superset of the full
            // scan's matches.
            let brute: Vec<u64> = (1..=50)
                .filter(|&id| f.matches(&store.get(id).unwrap()))
                .collect();
            assert_eq!(hits.iter().map(|d| d.id).collect::<Vec<_>>(), brute);
        }
        // Unprunable shapes fall back to a sound full scan.
        for q in ["NOT task.m = 1", "task.m != 1", ""] {
            let f = parse_query(q).unwrap();
            let (_, stats) = store.query_counted(&f, None);
            assert_eq!(stats.scanned, store.len(), "query {q:?}");
            assert_eq!(stats.pruned, 0);
        }
    }

    #[test]
    fn indexes_survive_delete_and_case_insensitive_strings() {
        let store = DocumentStore::new();
        store.insert(eval("P", "alice", 1, 1.0));
        store.insert(eval("P", "bob", 1, 2.0));
        store.insert(eval("P", "bob", 2, 3.0));
        // String equality is case-insensitive through the index too.
        let f = parse_query("owner = 'BOB'").unwrap();
        let (hits, stats) = store.query_counted(&f, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(stats.scanned, 2);
        store.delete_owned_ids("bob", &parse_query("task.m = 2").unwrap());
        // Postings rebuilt: positions still valid after compaction.
        let (hits, stats) = store.query_counted(&f, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn contributor_counts_track_inserts_deletes_and_reload() {
        use crate::document::Provenance;
        let store = DocumentStore::new();
        store.insert(eval("P", "alice", 1, 1.0).with_provenance(Provenance::contributor("alice")));
        store.insert(eval("P", "alice", 2, 2.0).with_provenance(Provenance::contributor("alice")));
        store.insert(eval("P", "bob", 3, 3.0).with_provenance(Provenance::contributor("bob")));
        store.insert(eval("P", "carol", 4, 4.0)); // no provenance: uncounted
        assert_eq!(
            store.contributor_counts(),
            vec![("alice".to_string(), 2), ("bob".to_string(), 1)]
        );
        store.delete_owned_ids("bob", &Filter::True);
        assert_eq!(store.contributor_counts(), vec![("alice".to_string(), 2)]);
        // Counts are rebuilt from documents on snapshot reload.
        let reloaded = DocumentStore::from_snapshot_json(&store.snapshot_json().unwrap()).unwrap();
        assert_eq!(reloaded.contributor_counts(), store.contributor_counts());
    }

    #[test]
    fn save_load_roundtrip() {
        let store = DocumentStore::new();
        for m in 0..10i64 {
            store.insert(eval("P", "alice", m, m as f64));
        }
        let dir = std::env::temp_dir().join("crowdtune_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        store.save(&path).unwrap();
        let loaded = DocumentStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 10);
        // Index rebuilt: problem-scoped query works.
        assert_eq!(loaded.query_problem("P", &Filter::True, None).len(), 10);
        // Ids continue from where they left off.
        let id = loaded.insert(eval("P", "alice", 99, 9.9));
        assert!(id > 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        use std::sync::Arc;
        let store = Arc::new(DocumentStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    s.insert(eval("P", &format!("user{t}"), i, i as f64));
                    let _ = s.query_problem("P", &Filter::True, None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 200);
        // All ids distinct.
        let all = store.query(&Filter::True, None);
        let mut ids: Vec<u64> = all.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
