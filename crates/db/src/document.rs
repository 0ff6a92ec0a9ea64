//! The performance-data document model.
//!
//! The paper's shared database stores every performance sample as a JSON
//! document with three mandatory parts — *task parameters*, *tuning
//! parameters* and the *evaluation result* — plus reproducibility metadata
//! (machine and software configuration) and ownership/accessibility
//! information. This module defines those documents as typed Rust structs
//! that serialize to exactly that JSON shape.

use crate::sorted_map::SortedMap;
use serde::{Deserialize, Serialize};

/// A scalar parameter value inside a stored document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Scalar {
    /// Integer parameter (e.g. a block size).
    Int(i64),
    /// Real parameter (e.g. a threshold).
    Real(f64),
    /// String parameter (e.g. a categorical label or a file name).
    Str(String),
}

impl Scalar {
    /// Numeric view (strings return `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Real(v) => Some(*v),
            Scalar::Str(_) => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Real(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Str(v.to_string())
    }
}

/// A borrowed view of a [`Scalar`]. Field lookups hand these out, so
/// filtering and indexing a document copy no string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ScalarRef<'a> {
    Int(i64),
    Real(f64),
    Str(&'a str),
}

impl ScalarRef<'_> {
    /// Numeric view (strings return `None`), as [`Scalar::as_f64`].
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            ScalarRef::Int(v) => Some(v as f64),
            ScalarRef::Real(v) => Some(v),
            ScalarRef::Str(_) => None,
        }
    }

    fn to_scalar(self) -> Scalar {
        match self {
            ScalarRef::Int(v) => Scalar::Int(v),
            ScalarRef::Real(v) => Scalar::Real(v),
            ScalarRef::Str(s) => Scalar::Str(s.to_string()),
        }
    }
}

impl<'a> From<&'a Scalar> for ScalarRef<'a> {
    fn from(s: &'a Scalar) -> Self {
        match s {
            Scalar::Int(v) => ScalarRef::Int(*v),
            Scalar::Real(v) => ScalarRef::Real(*v),
            Scalar::Str(v) => ScalarRef::Str(v),
        }
    }
}

/// Ordered name → value map used for task and tuning parameters.
pub type ParamMap = SortedMap<Scalar>;

/// The outcome of one function evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "lowercase")]
pub enum EvalOutcome {
    /// Successful run: named outputs (e.g. `{"runtime": 3.65}`).
    Ok {
        /// Output name → measured value.
        outputs: SortedMap<f64>,
    },
    /// Failed run (e.g. out-of-memory from a bad configuration). The
    /// paper's tuner drops these from surrogate fitting but the database
    /// still records them.
    Failed {
        /// Human-readable failure reason.
        reason: String,
    },
}

impl EvalOutcome {
    /// Convenience constructor for a single-output success.
    pub fn single(name: &str, value: f64) -> Self {
        let mut outputs = SortedMap::new();
        outputs.insert(name.to_string(), value);
        EvalOutcome::Ok { outputs }
    }

    /// The value of the named output, if this run succeeded.
    pub fn output(&self, name: &str) -> Option<f64> {
        match self {
            EvalOutcome::Ok { outputs } => outputs.get(name).copied(),
            EvalOutcome::Failed { .. } => None,
        }
    }

    /// True for successful runs.
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalOutcome::Ok { .. })
    }
}

/// Machine configuration recorded with each sample (what the paper's
/// automatic Slurm parsing produces).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MachineConfig {
    /// Canonical machine name (e.g. `"cori"`).
    pub machine_name: String,
    /// Node type / partition (e.g. `"haswell"`, `"knl"`).
    pub node_type: String,
    /// Number of nodes used.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
}

impl MachineConfig {
    /// New machine configuration.
    pub fn new(machine: &str, node_type: &str, nodes: u32, cores_per_node: u32) -> Self {
        MachineConfig {
            machine_name: machine.to_string(),
            node_type: node_type.to_string(),
            nodes,
            cores_per_node,
        }
    }

    /// Total core count.
    pub fn total_cores(&self) -> u64 {
        self.nodes as u64 * self.cores_per_node as u64
    }
}

/// A software component recorded with each sample (what the paper's
/// automatic Spack parsing produces).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareConfig {
    /// Canonical package name (e.g. `"superlu-dist"`).
    pub name: String,
    /// Semantic version triple.
    pub version: [u32; 3],
    /// Compiler name and version, when known.
    pub compiler: Option<(String, [u32; 3])>,
    /// Build variants (e.g. `"+openmp"`).
    pub variants: Vec<String>,
}

impl SoftwareConfig {
    /// New software entry without compiler/variants.
    pub fn new(name: &str, version: [u32; 3]) -> Self {
        SoftwareConfig {
            name: name.to_string(),
            version,
            compiler: None,
            variants: Vec::new(),
        }
    }
}

/// Who may read a stored sample.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "level", rename_all = "lowercase")]
pub enum Access {
    /// Anyone (including anonymous queries) may read.
    #[default]
    Public,
    /// Only the owner may read.
    Private,
    /// The owner plus an explicit list of usernames may read.
    Shared {
        /// Usernames granted read access.
        with: Vec<String>,
    },
}

impl Access {
    /// True when `user` (or anonymous, `None`) may read an item owned by
    /// `owner` under this access level.
    #[inline]
    pub fn allows(&self, owner: &str, user: Option<&str>) -> bool {
        match self {
            Access::Public => true,
            Access::Private => user == Some(owner),
            Access::Shared { with } => match user {
                Some(u) => u == owner || with.iter().any(|w| w == u),
                None => false,
            },
        }
    }
}

/// Where an uploaded evaluation came from: the contributor identity and
/// enough context to trace it back to the producing run. Simulated
/// machines additionally record the fault-plan seed and objective call
/// index, so injected corruptions can be cross-checked against the
/// stored record (DESIGN.md §12).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Contributor identity (normally the authenticated uploader).
    pub contributor: String,
    /// Machine the evaluation ran on (canonical machine name).
    #[serde(default)]
    pub machine: String,
    /// Fault-plan seed when the evaluation came from a simulated machine
    /// under fault injection.
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Fault-plan call index of the evaluation, when simulated.
    #[serde(default)]
    pub fault_index: Option<u64>,
    /// Upload batch id assigned by the repository facade (one id per
    /// `submit` call, monotone per repository).
    #[serde(default)]
    pub batch: u64,
}

impl Provenance {
    /// Provenance for a named contributor (machine and batch filled in by
    /// the repository at submit time when left empty).
    pub fn contributor(name: &str) -> Self {
        Provenance {
            contributor: name.to_string(),
            ..Provenance::default()
        }
    }

    /// Record the fault-plan coordinates of a simulated evaluation
    /// (builder style).
    pub fn simulated(mut self, fault_seed: u64, fault_index: u64) -> Self {
        self.fault_seed = Some(fault_seed);
        self.fault_index = Some(fault_index);
        self
    }
}

/// One stored performance-data sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionEvaluation {
    /// Store-assigned document id (0 until inserted).
    #[serde(default)]
    pub id: u64,
    /// Tuning problem name (namespaces the data, e.g. `"PDGEQRF"`).
    pub problem: String,
    /// Task parameters: what problem instance was run.
    pub task_parameters: ParamMap,
    /// Tuning parameters: the configuration that was evaluated.
    pub tuning_parameters: ParamMap,
    /// Evaluation outcome.
    pub result: EvalOutcome,
    /// Machine configuration.
    pub machine: MachineConfig,
    /// Software stack.
    pub software: Vec<SoftwareConfig>,
    /// Owning username.
    pub owner: String,
    /// Read accessibility.
    #[serde(default)]
    pub access: Access,
    /// Logical insertion timestamp (store-assigned, monotonic).
    #[serde(default)]
    pub logical_time: u64,
    /// Upload provenance; `None` on records predating the provenance
    /// schema (old WAL/snapshot files load with the field absent).
    #[serde(default)]
    pub provenance: Option<Provenance>,
}

impl FunctionEvaluation {
    /// Builder-style constructor with the mandatory parts.
    pub fn new(problem: &str, owner: &str) -> Self {
        FunctionEvaluation {
            id: 0,
            problem: problem.to_string(),
            task_parameters: ParamMap::new(),
            tuning_parameters: ParamMap::new(),
            result: EvalOutcome::Failed {
                reason: "not yet evaluated".into(),
            },
            machine: MachineConfig::default(),
            software: Vec::new(),
            owner: owner.to_string(),
            access: Access::Public,
            logical_time: 0,
            provenance: None,
        }
    }

    /// Set a task parameter (builder style).
    pub fn task(mut self, name: &str, value: impl Into<Scalar>) -> Self {
        self.task_parameters.insert(name.to_string(), value.into());
        self
    }

    /// Set a tuning parameter (builder style).
    pub fn param(mut self, name: &str, value: impl Into<Scalar>) -> Self {
        self.tuning_parameters
            .insert(name.to_string(), value.into());
        self
    }

    /// Set the outcome (builder style).
    pub fn outcome(mut self, outcome: EvalOutcome) -> Self {
        self.result = outcome;
        self
    }

    /// Set the machine configuration (builder style).
    pub fn on_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Add a software entry (builder style).
    pub fn with_software(mut self, sw: SoftwareConfig) -> Self {
        self.software.push(sw);
        self
    }

    /// Set accessibility (builder style).
    pub fn with_access(mut self, access: Access) -> Self {
        self.access = access;
        self
    }

    /// Set upload provenance (builder style). The repository facade fills
    /// missing contributor/machine/batch fields at submit time.
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// Look up a dotted field path for the generic query language:
    /// `problem`, `owner`, `task.<name>`, `param.<name>`, `output.<name>`,
    /// `machine.name`, `machine.node_type`, `machine.nodes`,
    /// `machine.cores`, `software.<pkg>.version_major`.
    pub fn field(&self, path: &str) -> Option<Scalar> {
        self.field_ref(path).map(ScalarRef::to_scalar)
    }

    /// [`FunctionEvaluation::field`] without copying the value.
    pub(crate) fn field_ref(&self, path: &str) -> Option<ScalarRef<'_>> {
        let mut parts = path.splitn(3, '.');
        let head = parts.next()?;
        match head {
            "problem" => Some(ScalarRef::Str(&self.problem)),
            "owner" => Some(ScalarRef::Str(&self.owner)),
            "status" => Some(ScalarRef::Str(self.status())),
            "task" => self.task_parameters.get(parts.next()?).map(ScalarRef::from),
            "param" => self
                .tuning_parameters
                .get(parts.next()?)
                .map(ScalarRef::from),
            "output" => self.result.output(parts.next()?).map(ScalarRef::Real),
            "machine" => match parts.next()? {
                "name" => Some(ScalarRef::Str(&self.machine.machine_name)),
                "node_type" => Some(ScalarRef::Str(&self.machine.node_type)),
                "nodes" => Some(ScalarRef::Int(self.machine.nodes as i64)),
                "cores" => Some(ScalarRef::Int(self.machine.cores_per_node as i64)),
                _ => None,
            },
            "provenance" => match parts.next()? {
                "contributor" => self
                    .provenance
                    .as_ref()
                    .map(|p| ScalarRef::Str(&p.contributor)),
                "batch" => self
                    .provenance
                    .as_ref()
                    .map(|p| ScalarRef::Int(p.batch as i64)),
                _ => None,
            },
            "software" => {
                let pkg = parts.next()?;
                let sub = parts.next().unwrap_or("version_major");
                let sw = self.software.iter().find(|s| s.name == pkg)?;
                match sub {
                    "version_major" => Some(ScalarRef::Int(sw.version[0] as i64)),
                    "version_minor" => Some(ScalarRef::Int(sw.version[1] as i64)),
                    "version_patch" => Some(ScalarRef::Int(sw.version[2] as i64)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn status(&self) -> &'static str {
        if self.result.is_ok() {
            "ok"
        } else {
            "failed"
        }
    }

    /// Visit every queryable field path of this document with its value —
    /// the inverse of [`FunctionEvaluation::field`], used to build the
    /// store's field indexes. Paths absent here resolve to `None` in
    /// `field`, so indexing exactly this set is complete. Composite paths
    /// are built in one reused buffer and values are borrowed, so a visit
    /// allocates at most that buffer.
    pub(crate) fn visit_indexed_fields(&self, mut visit: impl FnMut(&str, ScalarRef<'_>)) {
        visit("problem", ScalarRef::Str(&self.problem));
        visit("owner", ScalarRef::Str(&self.owner));
        visit("status", ScalarRef::Str(self.status()));
        visit("machine.name", ScalarRef::Str(&self.machine.machine_name));
        visit("machine.node_type", ScalarRef::Str(&self.machine.node_type));
        visit("machine.nodes", ScalarRef::Int(self.machine.nodes as i64));
        visit(
            "machine.cores",
            ScalarRef::Int(self.machine.cores_per_node as i64),
        );
        if let Some(p) = &self.provenance {
            visit("provenance.contributor", ScalarRef::Str(&p.contributor));
            visit("provenance.batch", ScalarRef::Int(p.batch as i64));
        }
        let mut path = String::new();
        let mut visit_path = |parts: [&str; 3], value: ScalarRef<'_>| {
            path.clear();
            parts.iter().for_each(|part| path.push_str(part));
            visit(&path, value);
        };
        for (k, v) in &self.task_parameters {
            visit_path(["task.", k, ""], v.into());
        }
        for (k, v) in &self.tuning_parameters {
            visit_path(["param.", k, ""], v.into());
        }
        if let EvalOutcome::Ok { outputs } = &self.result {
            for (k, v) in outputs {
                visit_path(["output.", k, ""], ScalarRef::Real(*v));
            }
        }
        for sw in &self.software {
            let [major, minor, patch] = sw.version.map(|v| ScalarRef::Int(v as i64));
            // `field` resolves the bare package path to version_major.
            visit_path(["software.", &sw.name, ""], major);
            visit_path(["software.", &sw.name, ".version_major"], major);
            visit_path(["software.", &sw.name, ".version_minor"], minor);
            visit_path(["software.", &sw.name, ".version_patch"], patch);
        }
    }

    /// The fields [`FunctionEvaluation::visit_indexed_fields`] visits, as
    /// owned pairs (for checking them against `field`).
    #[cfg(test)]
    pub(crate) fn indexed_fields(&self) -> Vec<(String, Scalar)> {
        let mut out = Vec::new();
        self.visit_indexed_fields(|path, value| out.push((path.to_string(), value.to_scalar())));
        out
    }

    /// True when `user` (or anonymous, `None`) may read this document.
    pub fn readable_by(&self, user: Option<&str>) -> bool {
        self.access.allows(&self.owner, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FunctionEvaluation {
        FunctionEvaluation::new("PDGEQRF", "alice")
            .task("m", 10_000i64)
            .task("n", 10_000i64)
            .param("mb", 4i64)
            .param("nb", 8i64)
            .outcome(EvalOutcome::single("runtime", 3.65))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
            .with_software(SoftwareConfig::new("scalapack", [2, 1, 0]))
    }

    #[test]
    fn json_roundtrip_matches() {
        let e = sample();
        let json = serde_json::to_string_pretty(&e).unwrap();
        let back: FunctionEvaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        // JSON carries the paper's three mandatory parts.
        assert!(json.contains("task_parameters"));
        assert!(json.contains("tuning_parameters"));
        assert!(json.contains("result"));
    }

    #[test]
    fn field_paths_resolve() {
        let e = sample();
        assert_eq!(e.field("problem"), Some(Scalar::Str("PDGEQRF".into())));
        assert_eq!(e.field("task.m"), Some(Scalar::Int(10_000)));
        assert_eq!(e.field("param.nb"), Some(Scalar::Int(8)));
        assert_eq!(e.field("output.runtime"), Some(Scalar::Real(3.65)));
        assert_eq!(e.field("machine.name"), Some(Scalar::Str("cori".into())));
        assert_eq!(e.field("machine.nodes"), Some(Scalar::Int(8)));
        assert_eq!(
            e.field("software.scalapack.version_major"),
            Some(Scalar::Int(2))
        );
        assert_eq!(e.field("status"), Some(Scalar::Str("ok".into())));
        assert_eq!(e.field("task.zzz"), None);
        assert_eq!(e.field("nonsense"), None);
    }

    #[test]
    fn failed_outcome_has_no_outputs() {
        let e = sample().outcome(EvalOutcome::Failed {
            reason: "OOM".into(),
        });
        assert!(!e.result.is_ok());
        assert_eq!(e.field("output.runtime"), None);
        assert_eq!(e.field("status"), Some(Scalar::Str("failed".into())));
    }

    #[test]
    fn access_control_semantics() {
        let mut e = sample();
        assert!(e.readable_by(None));
        assert!(e.readable_by(Some("bob")));

        e.access = Access::Private;
        assert!(!e.readable_by(None));
        assert!(!e.readable_by(Some("bob")));
        assert!(e.readable_by(Some("alice")));

        e.access = Access::Shared {
            with: vec!["bob".into()],
        };
        assert!(!e.readable_by(None));
        assert!(e.readable_by(Some("bob")));
        assert!(e.readable_by(Some("alice")));
        assert!(!e.readable_by(Some("carol")));
    }

    #[test]
    fn scalar_views() {
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Real(2.5).as_f64(), Some(2.5));
        assert_eq!(Scalar::Str("x".into()).as_f64(), None);
        assert_eq!(Scalar::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn provenance_roundtrips_and_resolves() {
        // Records without provenance (old snapshots/WALs) still load.
        let bare = sample();
        let json = serde_json::to_string(&bare).unwrap();
        let back: FunctionEvaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(back.provenance, None);
        assert_eq!(bare.field("provenance.contributor"), None);

        let e = sample().with_provenance(Provenance::contributor("mallory").simulated(0xFA17, 7));
        let json = serde_json::to_string(&e).unwrap();
        let back: FunctionEvaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let p = back.provenance.unwrap();
        assert_eq!(p.contributor, "mallory");
        assert_eq!(p.fault_seed, Some(0xFA17));
        assert_eq!(p.fault_index, Some(7));
        assert_eq!(
            e.field("provenance.contributor"),
            Some(Scalar::Str("mallory".into()))
        );
        assert_eq!(e.field("provenance.batch"), Some(Scalar::Int(0)));
        // Indexed fields and `field` agree on every path, and the paths
        // are exactly the indexed set, in indexing order.
        let idx = e.indexed_fields();
        for (path, value) in &idx {
            assert_eq!(e.field(path).as_ref(), Some(value), "path {path}");
        }
        let paths: Vec<&str> = idx.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            [
                "problem",
                "owner",
                "status",
                "machine.name",
                "machine.node_type",
                "machine.nodes",
                "machine.cores",
                "provenance.contributor",
                "provenance.batch",
                "task.m",
                "task.n",
                "param.mb",
                "param.nb",
                "output.runtime",
                "software.scalapack",
                "software.scalapack.version_major",
                "software.scalapack.version_minor",
                "software.scalapack.version_patch",
            ]
        );
    }

    #[test]
    fn machine_total_cores() {
        assert_eq!(
            MachineConfig::new("cori", "haswell", 8, 32).total_cores(),
            256
        );
    }
}
