//! The meta-description interface (paper §IV-A): the single JSON
//! document a user writes to do crowd-tuning.
//!
//! It names the tuning problem, declares the task/tuning/output spaces,
//! restricts which crowd data to download (machines, software versions,
//! trusted users), records the user's own environment for uploads, and
//! opts in or out of repository synchronization.
//!
//! One schema deviation from the paper's example is documented here: the
//! paper nests machine constraints as `{"Cori":{"haswell":{...}}}`; we
//! use the equivalent flat form
//! `{"machine_name":"cori","node_type":"haswell","nodes_from":1,"nodes_to":8}`
//! which is self-describing and typo-checkable.

use crate::data::records_to_dataset;
use crate::tla::SourceTask;
use crate::tuner::dims_of;
use crowdtune_db::{
    ConfigurationQuery, DbError, Filter, FunctionEvaluation, HistoryDb, MachineFilter, QuerySpec,
    Scalar, SoftwareFilter,
};
use crowdtune_space::{Param, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One parameter declaration in the meta description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamDesc {
    /// Parameter name.
    pub name: String,
    /// `"integer"`, `"real"`, or `"categorical"`.
    #[serde(rename = "type")]
    pub kind: String,
    /// Inclusive lower bound (numeric kinds).
    #[serde(default)]
    pub lower_bound: Option<f64>,
    /// Exclusive upper bound (numeric kinds).
    #[serde(default)]
    pub upper_bound: Option<f64>,
    /// Category labels (categorical kind).
    #[serde(default)]
    pub categories: Option<Vec<String>>,
}

impl ParamDesc {
    fn to_param(&self) -> Result<Param, MetaError> {
        match self.kind.as_str() {
            "integer" => {
                let lo = self
                    .lower_bound
                    .ok_or_else(|| self.missing("lower_bound"))?;
                let hi = self
                    .upper_bound
                    .ok_or_else(|| self.missing("upper_bound"))?;
                Ok(Param::integer(&self.name, lo as i64, hi as i64))
            }
            "real" => {
                let lo = self
                    .lower_bound
                    .ok_or_else(|| self.missing("lower_bound"))?;
                let hi = self
                    .upper_bound
                    .ok_or_else(|| self.missing("upper_bound"))?;
                Ok(Param::real(&self.name, lo, hi))
            }
            "categorical" => {
                let cats = self
                    .categories
                    .as_ref()
                    .filter(|c| !c.is_empty())
                    .ok_or_else(|| self.missing("categories"))?;
                Ok(Param::categorical(
                    &self.name,
                    cats.iter().map(String::as_str),
                ))
            }
            other => Err(MetaError::BadField(format!(
                "parameter '{}' has unknown type '{other}'",
                self.name
            ))),
        }
    }

    fn missing(&self, field: &str) -> MetaError {
        MetaError::BadField(format!("parameter '{}' missing {field}", self.name))
    }
}

/// The three spaces of a tuning problem.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ProblemSpace {
    /// Task parameters (what problem instance).
    #[serde(default)]
    pub input_space: Vec<ParamDesc>,
    /// Tuning parameters (what the tuner changes).
    #[serde(default)]
    pub parameter_space: Vec<ParamDesc>,
    /// Outputs (first entry is the tuning objective).
    #[serde(default)]
    pub output_space: Vec<ParamDesc>,
}

/// Machine constraint (flat form of the paper's nested example).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConstraint {
    /// Machine name (tag-normalized on match).
    pub machine_name: String,
    /// Node type restriction.
    #[serde(default)]
    pub node_type: Option<String>,
    /// Inclusive node-count lower bound.
    #[serde(default)]
    pub nodes_from: Option<u32>,
    /// Inclusive node-count upper bound.
    #[serde(default)]
    pub nodes_to: Option<u32>,
}

/// Software version constraint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoftwareConstraint {
    /// Package name.
    pub name: String,
    /// Inclusive minimum version.
    pub version_from: [u32; 3],
    /// Exclusive maximum version.
    pub version_to: [u32; 3],
}

/// Which crowd data the user is willing to download.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ConfigurationSpace {
    /// Acceptable machines (empty: any).
    #[serde(default)]
    pub machine_configurations: Vec<MachineConstraint>,
    /// Required software versions (all must hold).
    #[serde(default)]
    pub software_configurations: Vec<SoftwareConstraint>,
    /// Trusted uploaders (empty: any).
    #[serde(default)]
    pub user_configurations: Vec<String>,
}

/// The complete meta description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaDescription {
    /// API key (login credential for the shared database).
    pub api_key: String,
    /// Tuning problem name.
    pub tuning_problem_name: String,
    /// Task/tuning/output space declarations.
    pub problem_space: ProblemSpace,
    /// Download constraints.
    #[serde(default)]
    pub configuration_space: ConfigurationSpace,
    /// The user's own machine (recorded on uploads), as a free-form
    /// name resolved against the tag registry.
    #[serde(default)]
    pub machine_configuration: Option<String>,
    /// The user's software stack as Spack specs (recorded on uploads).
    #[serde(default)]
    pub software_configuration: Vec<String>,
    /// `"yes"` to upload every new evaluation to the shared repository.
    #[serde(default)]
    pub sync_crowd_repo: String,
}

/// Errors from meta-description handling.
#[derive(Debug)]
pub enum MetaError {
    /// JSON was malformed.
    Json(serde_json::Error),
    /// A field was missing or inconsistent.
    BadField(String),
    /// Database interaction failed.
    Db(DbError),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::Json(e) => write!(f, "meta description JSON error: {e}"),
            MetaError::BadField(m) => write!(f, "meta description field error: {m}"),
            MetaError::Db(e) => write!(f, "meta description database error: {e}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl From<serde_json::Error> for MetaError {
    fn from(e: serde_json::Error) -> Self {
        MetaError::Json(e)
    }
}

impl From<DbError> for MetaError {
    fn from(e: DbError) -> Self {
        MetaError::Db(e)
    }
}

impl MetaDescription {
    /// Parse a meta description from JSON.
    pub fn from_json(json: &str) -> Result<Self, MetaError> {
        Ok(serde_json::from_str(json)?)
    }

    /// The tuning space declared in `parameter_space`.
    pub fn tuning_space(&self) -> Result<Space, MetaError> {
        let params: Result<Vec<Param>, MetaError> = self
            .problem_space
            .parameter_space
            .iter()
            .map(ParamDesc::to_param)
            .collect();
        Space::new(params?).map_err(|e| MetaError::BadField(e.to_string()))
    }

    /// The objective output name (first `output_space` entry, or
    /// `"runtime"` when unspecified).
    pub fn objective_name(&self) -> &str {
        self.problem_space
            .output_space
            .first()
            .map(|p| p.name.as_str())
            .unwrap_or("runtime")
    }

    /// The database query this meta description denotes: a problem-name
    /// scope, range filters from the input space bounds, and the
    /// configuration-space constraints.
    pub fn to_query_spec(&self) -> QuerySpec {
        let mut filter = Filter::True;
        for p in &self.problem_space.input_space {
            match p.kind.as_str() {
                "integer" | "real" => {
                    if let (Some(lo), Some(hi)) = (p.lower_bound, p.upper_bound) {
                        filter = filter.and(Filter::Between(format!("task.{}", p.name), lo, hi));
                    }
                }
                "categorical" => {
                    if let Some(cats) = &p.categories {
                        filter = filter.and(Filter::In(
                            format!("task.{}", p.name),
                            cats.iter().map(|c| Scalar::Str(c.clone())).collect(),
                        ));
                    }
                }
                _ => {}
            }
        }
        let machines = self
            .configuration_space
            .machine_configurations
            .iter()
            .map(|m| {
                let mut f = MachineFilter::named(&m.machine_name);
                if let Some(t) = &m.node_type {
                    f = f.node_type(t);
                }
                if m.nodes_from.is_some() || m.nodes_to.is_some() {
                    f = f.nodes(m.nodes_from.unwrap_or(0), m.nodes_to.unwrap_or(u32::MAX));
                }
                f
            })
            .collect();
        let software = self
            .configuration_space
            .software_configurations
            .iter()
            .map(|s| SoftwareFilter::new(&s.name, s.version_from, s.version_to))
            .collect();
        QuerySpec::all_of(&self.tuning_problem_name)
            .with_filter(filter)
            .with_configuration(ConfigurationQuery {
                machines,
                software,
                users: self.configuration_space.user_configurations.clone(),
            })
    }

    /// Whether uploads are enabled.
    fn sync_enabled(&self) -> bool {
        self.sync_crowd_repo.eq_ignore_ascii_case("yes")
    }
}

/// A live crowd-tuning session: a parsed meta description bound to a
/// shared database.
pub struct CrowdSession<'a> {
    db: &'a HistoryDb,
    /// The parsed meta description.
    pub meta: MetaDescription,
    /// The tuning space.
    pub tuning_space: Space,
}

impl<'a> CrowdSession<'a> {
    /// Open a session from meta-description JSON.
    pub fn open(db: &'a HistoryDb, meta_json: &str) -> Result<Self, MetaError> {
        let meta = MetaDescription::from_json(meta_json)?;
        let tuning_space = meta.tuning_space()?;
        Ok(CrowdSession {
            db,
            meta,
            tuning_space,
        })
    }

    /// `QueryFunctionEvaluations`: download the relevant crowd data. The
    /// records are the repository's own, shared by `Arc`.
    pub fn query_function_evaluations(&self) -> Result<Vec<Arc<FunctionEvaluation>>, MetaError> {
        Ok(self
            .db
            .query(&self.meta.api_key, &self.meta.to_query_spec())?)
    }

    /// Group downloaded evaluations into per-task datasets (one source
    /// task per distinct task-parameter combination), fitting a source
    /// GP for each. Tasks with fewer than `min_samples` records are
    /// dropped.
    pub fn source_tasks(&self, min_samples: usize) -> Result<Vec<SourceTask>, MetaError> {
        let records = self.query_function_evaluations()?;
        let mut groups: Vec<(String, Vec<Arc<FunctionEvaluation>>)> = Vec::new();
        for rec in records {
            let key = serde_json::to_string(&rec.task_parameters).unwrap_or_default();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(rec),
                None => groups.push((key, vec![rec])),
            }
        }
        let dims = dims_of(&self.tuning_space);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut out = Vec::new();
        for (key, recs) in groups {
            let (ds, _skipped) =
                records_to_dataset(&recs, &self.tuning_space, self.meta.objective_name());
            if ds.len() >= min_samples.max(1) {
                if let Ok(task) = SourceTask::fit(key, ds, &dims, &mut rng) {
                    out.push(task);
                }
            }
        }
        Ok(out)
    }

    /// Upload one evaluation (no-op unless `sync_crowd_repo = "yes"`).
    /// Machine/software fields are filled from the meta description.
    pub fn upload(&self, mut eval: FunctionEvaluation) -> Result<Option<u64>, MetaError> {
        if !self.meta.sync_enabled() {
            return Ok(None);
        }
        if let Some(m) = &self.meta.machine_configuration {
            eval.machine.machine_name = m.clone();
        }
        for spec in &self.meta.software_configuration {
            if let Ok(sw) = crowdtune_db::parse_spack_spec(spec) {
                eval.software.push(sw);
            }
        }
        Ok(Some(self.db.submit(&self.meta.api_key, eval)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_db::{EvalOutcome, MachineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const META: &str = r#"{
        "api_key": "KEY",
        "tuning_problem_name": "demo",
        "problem_space": {
            "input_space": [
                {"name": "t", "type": "real", "lower_bound": 0.0, "upper_bound": 2.0}
            ],
            "parameter_space": [
                {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
                {"name": "perm", "type": "categorical", "categories": ["A", "B"]}
            ],
            "output_space": [{"name": "y", "type": "real"}]
        },
        "configuration_space": {
            "machine_configurations": [
                {"machine_name": "Cori", "node_type": "haswell", "nodes_from": 1, "nodes_to": 16}
            ],
            "software_configurations": [
                {"name": "gcc", "version_from": [8,0,0], "version_to": [9,0,0]}
            ],
            "user_configurations": []
        },
        "machine_configuration": "cori",
        "software_configuration": ["scalapack@2.1.0%gcc@8.3.0"],
        "sync_crowd_repo": "yes"
    }"#;

    fn seeded_db() -> (HistoryDb, String) {
        let db = HistoryDb::new();
        let mut rng = StdRng::seed_from_u64(5);
        let key = db
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        (db, key)
    }

    fn record(key_problem: &str, t: f64, x: f64, y: f64) -> FunctionEvaluation {
        FunctionEvaluation::new(key_problem, "alice")
            .task("t", t)
            .param("x", x)
            .param("perm", "A")
            .outcome(EvalOutcome::single("y", y))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
            .with_software(crowdtune_db::parse_spack_spec("x@1.0.0%gcc@8.3.0").unwrap())
    }

    #[test]
    fn parse_and_spaces() {
        let meta = MetaDescription::from_json(META).unwrap();
        let tuning = meta.tuning_space().unwrap();
        assert_eq!(tuning.dim(), 2);
        assert_eq!(meta.objective_name(), "y");
        assert!(meta.sync_enabled());
    }

    #[test]
    fn bad_meta_rejected() {
        assert!(MetaDescription::from_json("{").is_err());
        let missing_bound = r#"{
            "api_key": "k", "tuning_problem_name": "p",
            "problem_space": {"parameter_space": [{"name": "x", "type": "real"}]}
        }"#;
        let meta = MetaDescription::from_json(missing_bound).unwrap();
        assert!(meta.tuning_space().is_err());
        let bad_type = r#"{
            "api_key": "k", "tuning_problem_name": "p",
            "problem_space": {"parameter_space": [{"name": "x", "type": "banana"}]}
        }"#;
        assert!(MetaDescription::from_json(bad_type)
            .unwrap()
            .tuning_space()
            .is_err());
    }

    #[test]
    fn session_queries_respect_constraints() {
        let (db, key) = seeded_db();
        let meta_json = META.replace("KEY", &key);
        // In-range sample.
        db.submit(&key, record("demo", 1.0, 0.5, 2.0)).unwrap();
        // Out-of-range task parameter.
        db.submit(&key, record("demo", 5.0, 0.5, 3.0)).unwrap();
        // Wrong problem.
        db.submit(&key, record("other", 1.0, 0.5, 4.0)).unwrap();
        // Wrong machine node count.
        let mut far = record("demo", 1.0, 0.2, 5.0);
        far.machine.nodes = 64;
        db.submit(&key, far).unwrap();

        let session = CrowdSession::open(&db, &meta_json).unwrap();
        let hits = session.query_function_evaluations().unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].result.output("y"), Some(2.0));
    }

    #[test]
    fn source_tasks_group_by_task_params() {
        let (db, key) = seeded_db();
        let meta_json = META.replace("KEY", &key);
        for i in 0..12 {
            let x = i as f64 / 12.0;
            db.submit(&key, record("demo", 0.5, x, x * x)).unwrap();
            db.submit(&key, record("demo", 1.5, x, x * x + 1.0))
                .unwrap();
        }
        // One undersampled group.
        db.submit(&key, record("demo", 1.0, 0.3, 0.2)).unwrap();
        let session = CrowdSession::open(&db, &meta_json).unwrap();
        let tasks = session.source_tasks(5).unwrap();
        assert_eq!(tasks.len(), 2, "two well-sampled task groups");
        assert_eq!(tasks[0].data.len(), 12);
    }

    #[test]
    fn upload_respects_sync_flag() {
        let (db, key) = seeded_db();
        let meta_json = META.replace("KEY", &key).replace("\"yes\"", "\"no\"");
        let session = CrowdSession::open(&db, &meta_json).unwrap();
        let id = session.upload(record("demo", 1.0, 0.1, 9.0)).unwrap();
        assert!(id.is_none());
        assert_eq!(db.len(), 0);

        let meta_json = META.replace("KEY", &key);
        let session = CrowdSession::open(&db, &meta_json).unwrap();
        let id = session.upload(record("demo", 1.0, 0.1, 9.0)).unwrap();
        assert!(id.is_some());
        assert_eq!(db.len(), 1);
    }
}
