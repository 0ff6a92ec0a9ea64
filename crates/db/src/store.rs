//! One shard's index: the records of the problems hashed to the shard,
//! a secondary index on the problem name, field-value indexes over every
//! queryable path, and per-contributor counts. Thread-safe behind a
//! `parking_lot::RwLock`, so any number of readers scan a shard in
//! parallel.
//!
//! The index assigns nothing and persists nothing: ids, logical times,
//! the write-ahead log and snapshots belong to [`crate::CrowdService`].
//! The module also holds the crate's error type and the scan statistics
//! every query reports.

use crate::document::FunctionEvaluation;
use crate::query::{FieldIndexes, Filter};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
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
    /// A group-commit follower gave up waiting for the flush covering
    /// its record ([`crate::WalConfig::follower_wait_timeout_us`]). The
    /// write was not acknowledged.
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

/// The documents are `Arc`-shared: a query result holds pointers to the stored records, never copies of them. A stored record
/// is never mutated, so a snapshot taken before a write stays valid.
#[derive(Default)]
struct Inner {
    docs: Vec<Arc<FunctionEvaluation>>,
    /// problem name -> doc indexes (not ids), rebuilt after deletes.
    by_problem: HashMap<String, Vec<usize>>,
    /// Field-value indexes over every queryable path, rebuilt after
    /// deletes.
    indexes: FieldIndexes,
    /// provenance contributor -> live document count, rebuilt after
    /// deletes.
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

    /// Keep the documents `keep` accepts and re-index them; returns the
    /// ids removed.
    fn retain(&mut self, keep: impl Fn(&FunctionEvaluation) -> bool) -> Vec<u64> {
        let removed: Vec<u64> = self
            .docs
            .iter()
            .filter(|d| !keep(d))
            .map(|d| d.id)
            .collect();
        if !removed.is_empty() {
            let docs = std::mem::take(&mut self.docs);
            *self = Inner::default();
            for doc in docs.into_iter().filter(|d| keep(d)) {
                self.push(doc);
            }
        }
        removed
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

/// One shard's records and their indexes. Documents arrive with their id
/// and logical time already assigned, in ascending id order.
#[derive(Default)]
pub(crate) struct DocumentStore {
    inner: RwLock<Inner>,
}

impl DocumentStore {
    /// Append a document and index it.
    pub(crate) fn insert(&self, doc: Arc<FunctionEvaluation>) {
        self.inner.write().push(doc);
    }

    /// Every stored document in insertion (id) order, access control NOT
    /// applied: the snapshot writer needs the records no reader may see.
    /// The documents are shared, not copied.
    pub(crate) fn all_docs(&self) -> Vec<Arc<FunctionEvaluation>> {
        self.inner.read().docs.clone()
    }

    /// Delete the documents matching `filter` owned by `owner` (only the
    /// owner may delete their data) and return their ids, so a
    /// write-ahead log can record the exact effect.
    pub(crate) fn delete_owned_ids(&self, owner: &str, filter: &Filter) -> Vec<u64> {
        self.inner
            .write()
            .retain(|d| !(d.owner == owner && filter.matches(d)))
    }

    /// Total number of stored documents.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// The documents of `problem` that match `filter` and that `user`
    /// may read, shared with the store (no record is copied), plus scan
    /// statistics: index entries examined, entries the field indexes let
    /// the scan skip, and documents withheld by access control.
    pub(crate) fn scan(
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

    /// Live-document counts per provenance contributor, sorted by name.
    /// Maintained incrementally on insert and rebuilt on deletes.
    pub(crate) fn contributor_counts(&self) -> Vec<(String, u64)> {
        let inner = self.inner.read();
        inner
            .by_contributor
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Distinct problem names present in the store.
    pub(crate) fn problems(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut names: Vec<String> = inner.by_problem.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The index seen through the service that owns it: every query's
/// `ScanStats` are the index scan's own.
#[cfg(test)]
mod tests {
    use crate::document::{Access, EvalOutcome, FunctionEvaluation, MachineConfig};
    use crate::query::{parse_query, Filter};
    use crate::service::{CrowdService, ServiceConfig};
    use crate::store::ScanStats;
    use crowdtune_obs::{OpKind, RequestCtx};
    use std::sync::Arc;

    fn eval(problem: &str, owner: &str, m: i64, runtime: f64) -> FunctionEvaluation {
        FunctionEvaluation::new(problem, owner)
            .task("m", m)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", runtime))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
    }

    fn service() -> CrowdService {
        CrowdService::new(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        })
    }

    fn insert(svc: &CrowdService, doc: FunctionEvaluation) -> u64 {
        svc.insert(doc).unwrap()
    }

    fn scan(
        svc: &CrowdService,
        problem: &str,
        filter: &Filter,
        user: Option<&str>,
    ) -> (Vec<Arc<FunctionEvaluation>>, ScanStats) {
        svc.query(problem, filter, user, RequestCtx::new(OpKind::Query, 0))
    }

    fn count(svc: &CrowdService, problem: &str, filter: &Filter, user: Option<&str>) -> usize {
        scan(svc, problem, filter, user).0.len()
    }

    #[test]
    fn insert_assigns_monotonic_ids_and_clock() {
        let svc = service();
        let id1 = insert(&svc, eval("P", "alice", 100, 1.0));
        let id2 = insert(&svc, eval("P", "alice", 200, 2.0));
        assert!(id2 > id1);
        let (docs, _) = scan(&svc, "P", &Filter::True, None);
        let d1 = docs.iter().find(|d| d.id == id1).unwrap();
        let d2 = docs.iter().find(|d| d.id == id2).unwrap();
        assert!(d2.logical_time > d1.logical_time);
    }

    #[test]
    fn problem_index_scopes_queries() {
        let svc = service();
        insert(&svc, eval("P1", "alice", 100, 1.0));
        insert(&svc, eval("P2", "alice", 100, 2.0));
        insert(&svc, eval("P1", "bob", 200, 3.0));
        assert_eq!(count(&svc, "P1", &Filter::True, None), 2);
        assert_eq!(count(&svc, "P2", &Filter::True, None), 1);
        assert_eq!(count(&svc, "P3", &Filter::True, None), 0);
        assert_eq!(svc.problems(), vec!["P1".to_string(), "P2".to_string()]);
    }

    #[test]
    fn filters_apply() {
        let svc = service();
        for m in [100i64, 200, 300, 400] {
            insert(&svc, eval("P", "alice", m, m as f64 / 100.0));
        }
        let f = parse_query("task.m BETWEEN 150 AND 350").unwrap();
        assert_eq!(count(&svc, "P", &f, None), 2);
        // A problem with no documents matches nothing.
        assert_eq!(count(&svc, "Q", &f, None), 0);
    }

    #[test]
    fn access_control_enforced_on_query() {
        let svc = service();
        insert(&svc, eval("P", "alice", 1, 1.0)); // public
        insert(
            &svc,
            eval("P", "alice", 2, 2.0).with_access(Access::Private),
        );
        insert(
            &svc,
            eval("P", "alice", 3, 3.0).with_access(Access::Shared {
                with: vec!["bob".into()],
            }),
        );
        assert_eq!(count(&svc, "P", &Filter::True, None), 1);
        assert_eq!(count(&svc, "P", &Filter::True, Some("bob")), 2);
        assert_eq!(count(&svc, "P", &Filter::True, Some("alice")), 3);
        assert_eq!(count(&svc, "P", &Filter::True, Some("carol")), 1);
        // The withheld documents are counted, not silently dropped.
        assert_eq!(scan(&svc, "P", &Filter::True, None).1.denied, 2);
    }

    #[test]
    fn delete_owned_respects_ownership() {
        let svc = service();
        insert(&svc, eval("P", "alice", 1, 1.0));
        insert(&svc, eval("P", "bob", 1, 2.0));
        let removed = svc.delete_owned("alice", &Filter::True).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(svc.len(), 1);
        assert_eq!(scan(&svc, "P", &Filter::True, None).0[0].owner, "bob");
        // Index still consistent after rebuild.
        assert_eq!(count(&svc, "P", &Filter::True, None), 1);
    }

    #[test]
    fn indexed_equality_scans_fewer_docs_than_collection() {
        let svc = service();
        for m in 0..40i64 {
            insert(&svc, eval("P", "alice", m % 4, m as f64));
        }
        // Equality on an indexed field: only matching postings examined.
        let f = parse_query("task.m = 1").unwrap();
        let (hits, stats) = scan(&svc, "P", &f, None);
        assert_eq!(hits.len(), 10);
        assert!(
            stats.scanned < svc.len(),
            "scanned {} of {}",
            stats.scanned,
            svc.len()
        );
        assert_eq!(stats.scanned, 10);
        assert_eq!(stats.pruned, 30);
    }

    #[test]
    fn range_plans_prune_and_agree_with_full_scan() {
        let svc = service();
        for m in 0..50i64 {
            insert(&svc, eval("P", "alice", m, m as f64 / 10.0));
        }
        let (all, _) = scan(&svc, "P", &Filter::True, None);
        for (q, expect) in [
            ("task.m BETWEEN 10 AND 20", 10),
            ("task.m < 5", 5),
            ("task.m >= 45", 5),
            ("output.runtime <= 0.95 AND task.m > 3", 6),
            ("task.m = 7 OR task.m = 9", 2),
            ("task.m BETWEEN 20 AND 10", 0), // inverted: matches nothing
        ] {
            let f = parse_query(q).unwrap();
            let (hits, stats) = scan(&svc, "P", &f, None);
            assert_eq!(hits.len(), expect, "query {q}");
            assert!(stats.scanned < svc.len(), "query {q} did a full scan");
            assert_eq!(stats.scanned + stats.pruned, svc.len(), "query {q}");
            // The planner's candidate set must be a superset of the full
            // scan's matches.
            let brute: Vec<u64> = all.iter().filter(|d| f.matches(d)).map(|d| d.id).collect();
            assert_eq!(hits.iter().map(|d| d.id).collect::<Vec<_>>(), brute);
        }
        // Unprunable shapes fall back to a sound full scan.
        for q in ["NOT task.m = 1", "task.m != 1", ""] {
            let f = parse_query(q).unwrap();
            let (_, stats) = scan(&svc, "P", &f, None);
            assert_eq!(stats.scanned, svc.len(), "query {q:?}");
            assert_eq!(stats.pruned, 0);
        }
    }

    #[test]
    fn indexes_survive_delete_and_case_insensitive_strings() {
        let svc = service();
        insert(&svc, eval("P", "alice", 1, 1.0));
        insert(&svc, eval("P", "bob", 1, 2.0));
        insert(&svc, eval("P", "bob", 2, 3.0));
        // String equality is case-insensitive through the index too.
        let f = parse_query("owner = 'BOB'").unwrap();
        let (hits, stats) = scan(&svc, "P", &f, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(stats.scanned, 2);
        svc.delete_owned("bob", &parse_query("task.m = 2").unwrap())
            .unwrap();
        // Postings rebuilt: positions still valid after compaction.
        let (hits, stats) = scan(&svc, "P", &f, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn contributor_counts_track_inserts_deletes_and_reload() {
        use crate::document::Provenance;
        use crate::wal::Documents;
        let svc = service();
        let by = |who: &str| Provenance::contributor(who);
        insert(
            &svc,
            eval("P", "alice", 1, 1.0).with_provenance(by("alice")),
        );
        insert(
            &svc,
            eval("P", "alice", 2, 2.0).with_provenance(by("alice")),
        );
        insert(&svc, eval("P", "bob", 3, 3.0).with_provenance(by("bob")));
        insert(&svc, eval("P", "carol", 4, 4.0)); // no provenance: uncounted
        assert_eq!(
            svc.contributor_counts(),
            vec![("alice".to_string(), 2), ("bob".to_string(), 1)]
        );
        svc.delete_owned("bob", &Filter::True).unwrap();
        assert_eq!(svc.contributor_counts(), vec![("alice".to_string(), 2)]);
        // Counts are rebuilt from documents on snapshot reload.
        let json = svc.documents().to_json().unwrap();
        let reloaded = service();
        reloaded.restore(Documents::from_json(&json, std::path::Path::new("db.json")).unwrap());
        assert_eq!(reloaded.contributor_counts(), svc.contributor_counts());
    }

    #[test]
    fn save_load_roundtrip() {
        use crate::repo::{HistoryDb, QuerySpec};
        use rand::SeedableRng;
        let db = HistoryDb::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let key = db
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        for m in 0..10i64 {
            db.submit(&key, eval("P", "alice", m, m as f64)).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("crowdtune_store_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save_documents(&path).unwrap();
        let loaded = HistoryDb::load_documents(&path).unwrap();
        assert_eq!(loaded.len(), 10);
        // Index rebuilt: problem-scoped query works.
        assert_eq!(loaded.query_public(&QuerySpec::all_of("P")).len(), 10);
        // Ids continue from where they left off.
        let key = loaded
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        let id = loaded.submit(&key, eval("P", "alice", 99, 9.9)).unwrap();
        assert!(id > 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        let svc = Arc::new(service());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    insert(&s, eval("P", &format!("user{t}"), i, i as f64));
                    let _ = scan(&s, "P", &Filter::True, None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.len(), 200);
        // All ids distinct.
        let (all, _) = scan(&svc, "P", &Filter::True, None);
        let mut ids: Vec<u64> = all.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
