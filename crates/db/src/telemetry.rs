//! The fleet-telemetry collection: indexed cross-run records distilled
//! from per-run JSONL journals.
//!
//! The paper's crowd database aggregates performance samples from many
//! contributors; this collection does the same for *tuner telemetry* —
//! one [`RunRecord`] per tuning run (app, machine, TLA algorithm,
//! per-stage durations, final objective, event counts, collapsed-stack
//! profile) so fleet-level questions ("all hypre runs on machine X,
//! fit-time p95 by algorithm") become typed queries instead of ad-hoc
//! journal grepping. Records carry the same per-record [`Access`] control
//! as performance samples: a user's private runs never appear in another
//! user's fleet queries.
//!
//! Journal parsing lives upstream in `crowdtune-telemetry` (this crate
//! must not depend on how journals are ingested); the collection only
//! stores, filters, and persists records.

use std::collections::BTreeMap;
use std::path::Path;

use crowdtune_obs as obs;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::document::Access;

/// One cross-run telemetry record: everything a fleet query needs from a
/// single tuning run, distilled from its event journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Collection-assigned record id (0 until inserted).
    #[serde(default)]
    pub id: u64,
    /// Free-form run label from the journal's `runstart` event.
    pub run: String,
    /// Application being tuned (supplied at ingest; journals don't know).
    pub app: String,
    /// Machine the run executed on (supplied at ingest).
    pub machine: String,
    /// Tuner/TLA algorithm name from the journal.
    pub tuner: String,
    /// Search-space dimensionality.
    pub dim: u64,
    /// Evaluation budget.
    pub budget: u64,
    /// RNG seed.
    pub seed: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Failed evaluations.
    pub failures: u64,
    /// Final best objective value, `null` if every evaluation failed.
    pub best: Option<f64>,
    /// Events per kind observed during the run.
    pub event_counts: BTreeMap<String, u64>,
    /// Raw per-stage durations in microseconds (`fit`, `acquisition`,
    /// `iteration`, `db_query`, …), one entry per journaled event, so
    /// queries can compute exact percentiles instead of bucketed ones.
    pub stage_us: BTreeMap<String, Vec<u64>>,
    /// Collapsed-stack span profile: folded path → total nanoseconds.
    pub profile: BTreeMap<String, u64>,
    /// Owning username.
    pub owner: String,
    /// Read accessibility, same semantics as performance samples.
    #[serde(default)]
    pub access: Access,
}

impl RunRecord {
    /// True when `user` (or anonymous, `None`) may read this record.
    pub fn readable_by(&self, user: Option<&str>) -> bool {
        self.access.allows(&self.owner, user)
    }
}

/// Typed filter over the telemetry collection. `None` fields match
/// everything, so the default query selects the whole (readable) fleet.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetQuery {
    /// Restrict to one application.
    pub app: Option<String>,
    /// Restrict to one machine.
    pub machine: Option<String>,
    /// Restrict to one tuner/TLA algorithm.
    pub tuner: Option<String>,
}

impl FleetQuery {
    /// Matches every record.
    pub fn all() -> Self {
        FleetQuery::default()
    }

    /// Restrict to application `app` (builder style).
    pub fn for_app(mut self, app: &str) -> Self {
        self.app = Some(app.to_string());
        self
    }

    /// Restrict to machine `machine` (builder style).
    pub fn on_machine(mut self, machine: &str) -> Self {
        self.machine = Some(machine.to_string());
        self
    }

    /// Restrict to tuner `tuner` (builder style).
    pub fn with_tuner(mut self, tuner: &str) -> Self {
        self.tuner = Some(tuner.to_string());
        self
    }

    fn matches(&self, r: &RunRecord) -> bool {
        self.app.as_deref().is_none_or(|a| a == r.app)
            && self.machine.as_deref().is_none_or(|m| m == r.machine)
            && self.tuner.as_deref().is_none_or(|t| t == r.tuner)
    }
}

/// The embedded `telemetry` collection: thread-safe, JSON-file
/// persistent, access-controlled.
#[derive(Debug, Default)]
pub struct TelemetryCollection {
    records: RwLock<Vec<RunRecord>>,
}

impl TelemetryCollection {
    /// New empty collection.
    pub fn new() -> Self {
        TelemetryCollection::default()
    }

    /// Number of stored records (ignoring access control).
    pub fn len(&self) -> usize {
        self.records.read().len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.read().is_empty()
    }

    /// Inserts a record, assigning and returning its id.
    pub fn insert(&self, mut record: RunRecord) -> u64 {
        let mut w = self.records.write();
        let id = w.len() as u64 + 1;
        record.id = id;
        w.push(record);
        obs::count(obs::names::CTR_TEL_RUNS, 1);
        id
    }

    /// Returns every record matching `query` that `user` may read.
    /// Records withheld by access control are counted
    /// (`telemetry.records_denied`) but never returned.
    pub fn query(&self, user: Option<&str>, query: &FleetQuery) -> Vec<RunRecord> {
        let _span = obs::span(obs::names::SPAN_TEL_QUERY);
        obs::count(obs::names::CTR_TEL_QUERIES, 1);
        let records = self.records.read();
        let mut out = Vec::new();
        let mut denied = 0u64;
        for r in records.iter().filter(|r| query.matches(r)) {
            if r.readable_by(user) {
                out.push(r.clone());
            } else {
                denied += 1;
            }
        }
        obs::count(obs::names::CTR_TEL_DENIED, denied);
        out
    }

    /// Persists the collection as pretty-printed JSON.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(&*self.records.read())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, json)
    }

    /// Loads a collection previously written by [`TelemetryCollection::save`].
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let records: Vec<RunRecord> = serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(TelemetryCollection {
            records: RwLock::new(records),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(app: &str, machine: &str, tuner: &str, owner: &str, access: Access) -> RunRecord {
        RunRecord {
            id: 0,
            run: format!("{tuner}-seed1"),
            app: app.to_string(),
            machine: machine.to_string(),
            tuner: tuner.to_string(),
            dim: 3,
            budget: 20,
            seed: 1,
            iterations: 20,
            failures: 1,
            best: Some(0.5),
            event_counts: BTreeMap::new(),
            stage_us: [("fit".to_string(), vec![100u64, 200, 300])]
                .into_iter()
                .collect(),
            profile: BTreeMap::new(),
            owner: owner.to_string(),
            access,
        }
    }

    #[test]
    fn filters_select_by_app_machine_tuner() {
        let col = TelemetryCollection::new();
        col.insert(record("hypre", "cori", "LCM-BO", "alice", Access::Public));
        col.insert(record("hypre", "summit", "NoTLA", "alice", Access::Public));
        col.insert(record("superlu", "cori", "LCM-BO", "alice", Access::Public));

        let q = FleetQuery::all().for_app("hypre").on_machine("cori");
        let hits = col.query(None, &q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].tuner, "LCM-BO");

        assert_eq!(col.query(None, &FleetQuery::all()).len(), 3);
        assert_eq!(
            col.query(None, &FleetQuery::all().with_tuner("NoTLA"))
                .len(),
            1
        );
    }

    #[test]
    fn private_runs_never_leak_across_users() {
        let col = TelemetryCollection::new();
        col.insert(record("hypre", "cori", "LCM-BO", "alice", Access::Private));
        col.insert(record("hypre", "cori", "NoTLA", "bob", Access::Public));

        // Bob and anonymous only see the public run; Alice sees both hers
        // and Bob's public one.
        let bob = col.query(Some("bob"), &FleetQuery::all());
        assert_eq!(bob.len(), 1);
        assert_eq!(bob[0].owner, "bob");
        assert_eq!(col.query(None, &FleetQuery::all()).len(), 1);
        assert_eq!(col.query(Some("alice"), &FleetQuery::all()).len(), 2);
    }

    #[test]
    fn shared_runs_honor_the_share_list() {
        let col = TelemetryCollection::new();
        col.insert(record(
            "hypre",
            "cori",
            "LCM-BO",
            "alice",
            Access::Shared {
                with: vec!["bob".into()],
            },
        ));
        assert_eq!(col.query(Some("bob"), &FleetQuery::all()).len(), 1);
        assert_eq!(col.query(Some("carol"), &FleetQuery::all()).len(), 0);
        assert_eq!(col.query(None, &FleetQuery::all()).len(), 0);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("crowdtune_telemetry_collection");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collection.json");

        let col = TelemetryCollection::new();
        col.insert(record("hypre", "cori", "LCM-BO", "alice", Access::Private));
        col.insert(record("hypre", "cori", "NoTLA", "bob", Access::Public));
        col.save(&path).unwrap();

        let back = TelemetryCollection::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        // Access control survives persistence: the private record still
        // only answers to its owner.
        assert_eq!(back.query(Some("bob"), &FleetQuery::all()).len(), 1);
        assert_eq!(back.query(Some("alice"), &FleetQuery::all()).len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
