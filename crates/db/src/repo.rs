//! The shared crowd-tuning repository: the facade combining the document
//! store, the user registry, and tag normalization into the interface the
//! tuner programs against.
//!
//! This is the in-process equivalent of the paper's `gptune.lbl.gov`
//! service: authenticated uploads, meta-description-shaped queries
//! (problem space + configuration space), automatic environment
//! normalization, and per-record access control.

use crate::access::{AuthError, UserRegistry};
use crate::document::{FunctionEvaluation, MachineConfig, Provenance, SoftwareConfig};
use crate::env::TagRegistry;
use crate::query::Filter;
use crate::service::{CrowdService, ServiceConfig};
use crate::store::StoreError;
use crate::wal::{write_atomic, Documents};
use crowdtune_obs as obs;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from repository operations.
#[derive(Debug)]
pub enum DbError {
    /// Authentication failed.
    Auth(AuthError),
    /// Store-level failure.
    Store(StoreError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Auth(e) => write!(f, "database auth error: {e}"),
            DbError::Store(e) => write!(f, "database store error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<AuthError> for DbError {
    fn from(e: AuthError) -> Self {
        DbError::Auth(e)
    }
}

impl From<StoreError> for DbError {
    fn from(e: StoreError) -> Self {
        DbError::Store(e)
    }
}

/// Machine constraint of a configuration-space query: any listed machine
/// matches; `node_type`/`nodes` further restrict when present.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineFilter {
    /// Machine name (normalized against the tag registry before matching).
    pub machine_name: String,
    /// Required node type, if any.
    pub node_type: Option<String>,
    /// Inclusive node-count range, if any.
    pub nodes: Option<(u32, u32)>,
}

impl MachineFilter {
    /// Match any configuration on the named machine.
    pub fn named(machine: &str) -> Self {
        MachineFilter {
            machine_name: machine.to_string(),
            node_type: None,
            nodes: None,
        }
    }

    /// Restrict to a node type.
    pub fn node_type(mut self, t: &str) -> Self {
        self.node_type = Some(t.to_string());
        self
    }

    /// Restrict to an inclusive node-count range.
    pub fn nodes(mut self, lo: u32, hi: u32) -> Self {
        self.nodes = Some((lo, hi));
        self
    }

    /// `canonical` is this filter's machine name, canonicalized once per
    /// query rather than once per record.
    fn matches(&self, canonical: &str, m: &MachineConfig) -> bool {
        if canonical != m.machine_name {
            return false;
        }
        if let Some(t) = &self.node_type {
            if !t.eq_ignore_ascii_case(&m.node_type) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.nodes {
            if m.nodes < lo || m.nodes > hi {
                return false;
            }
        }
        true
    }
}

/// Software constraint: the record must carry the named package with a
/// version in `[version_from, version_to)` — the meta description's
/// `software_configurations` semantics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareFilter {
    /// Package name (normalized before matching).
    pub name: String,
    /// Inclusive minimum version.
    pub version_from: [u32; 3],
    /// Exclusive maximum version.
    pub version_to: [u32; 3],
}

impl SoftwareFilter {
    /// New software filter.
    pub fn new(name: &str, version_from: [u32; 3], version_to: [u32; 3]) -> Self {
        SoftwareFilter {
            name: name.to_string(),
            version_from,
            version_to,
        }
    }

    /// `want` is this filter's package name, canonicalized once per
    /// query rather than once per record. Stored package and compiler
    /// names are canonical already (`TagRegistry::normalize_software` runs
    /// at submit), so matching a record allocates nothing.
    fn matches(&self, want: &str, sw_list: &[SoftwareConfig]) -> bool {
        sw_list.iter().any(|sw| {
            // Either the package itself, or the compiler it was built with
            // (the paper's example constraint is "GCC in [8.0.0, 9.0.0)").
            let in_range = |version| {
                TagRegistry::version_in_range(version, self.version_from, self.version_to)
            };
            (sw.name == want && in_range(sw.version))
                || sw
                    .compiler
                    .as_ref()
                    .is_some_and(|(cname, cver)| cname == want && in_range(*cver))
        })
    }
}

/// The configuration-space part of a meta-description query: which
/// environments' data the user is willing to download.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationQuery {
    /// Acceptable machines (empty = any machine).
    pub machines: Vec<MachineFilter>,
    /// Required software constraints (all must hold).
    pub software: Vec<SoftwareFilter>,
    /// Trusted uploaders (empty = any user).
    pub users: Vec<String>,
}

impl ConfigurationQuery {
    /// Accept anything.
    pub fn any() -> Self {
        Self::default()
    }

    /// The per-record predicate of this query. The query's own machine
    /// and package names are canonicalized here, once, so testing a
    /// record allocates nothing.
    fn matcher<'a>(&'a self, tags: &TagRegistry) -> impl Fn(&FunctionEvaluation) -> bool + 'a {
        let machines: Vec<String> = self
            .machines
            .iter()
            .map(|m| tags.canonical_machine(&m.machine_name))
            .collect();
        let software: Vec<String> = self
            .software
            .iter()
            .map(|sf| tags.canonical_software(&sf.name))
            .collect();
        move |e| {
            (self.machines.is_empty()
                || self
                    .machines
                    .iter()
                    .zip(&machines)
                    .any(|(m, name)| m.matches(name, &e.machine)))
                && self
                    .software
                    .iter()
                    .zip(&software)
                    .all(|(sf, want)| sf.matches(want, &e.software))
                && (self.users.is_empty() || self.users.contains(&e.owner))
        }
    }
}

/// A complete query: problem name, a task/parameter filter (typed or
/// parsed from the SQL-like language), and a configuration query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Tuning problem name.
    pub problem: String,
    /// Filter over task/tuning parameters and outputs.
    pub filter: Filter,
    /// Environment constraints.
    pub configuration: ConfigurationQuery,
    /// Include failed evaluations (default: false — surrogate fitting
    /// drops failures, but data analysis may want them).
    pub include_failures: bool,
}

impl QuerySpec {
    /// Query everything for a problem.
    pub fn all_of(problem: &str) -> Self {
        QuerySpec {
            problem: problem.to_string(),
            filter: Filter::True,
            configuration: ConfigurationQuery::any(),
            include_failures: false,
        }
    }

    /// Set the filter (builder style).
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Set the configuration query (builder style).
    pub fn with_configuration(mut self, configuration: ConfigurationQuery) -> Self {
        self.configuration = configuration;
        self
    }

    /// Include failed evaluations (builder style).
    pub fn including_failures(mut self) -> Self {
        self.include_failures = true;
        self
    }
}

/// FNV-1a over a client identity, folding usernames into the compact
/// `client` field request traces carry (0 = anonymous/unknown).
fn client_hash(user: Option<&str>) -> u32 {
    let Some(user) = user else { return 0 };
    let mut h = 0x811c_9dc5u32;
    for &b in user.as_bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h.max(1)
}

/// The shared crowd-tuning database.
pub struct HistoryDb {
    service: CrowdService,
    users: UserRegistry,
    tags: TagRegistry,
    /// Monotonic upload-batch id; every `submit` call gets
    /// one, stamped into each accepted record's provenance.
    batch: AtomicU64,
}

impl Default for HistoryDb {
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryDb {
    /// A database with the built-in tag registry for one tuner process:
    /// a single-shard service.
    pub fn new() -> Self {
        Self::concurrent(ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        })
    }

    /// A database backed by a [`CrowdService`] with the given layout —
    /// parallel reads across client threads. A
    /// single-threaded caller sees the same ids and query results at any
    /// layout.
    pub fn concurrent(config: ServiceConfig) -> Self {
        HistoryDb {
            service: CrowdService::new(config),
            users: UserRegistry::new(),
            tags: TagRegistry::with_builtin_entries(),
            batch: AtomicU64::new(0),
        }
    }

    /// The service behind this database (fsync observability for
    /// benchmarks and reports). Always `Some`.
    pub fn service(&self) -> Option<&CrowdService> {
        Some(&self.service)
    }

    /// Access the user registry (registration, key management).
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }

    /// Register a user and return a fresh API key in one step.
    pub fn register_user<R: Rng>(
        &self,
        username: &str,
        email: &str,
        public_profile: bool,
        rng: &mut R,
    ) -> Result<String, DbError> {
        self.users.register(username, email, public_profile)?;
        Ok(self.users.create_api_key(username, rng)?)
    }

    /// Submit one evaluation. The API key identifies the owner; machine
    /// and software tags are normalized before storage. Returns the
    /// assigned document id.
    pub fn submit(&self, api_key: &str, eval: FunctionEvaluation) -> Result<u64, DbError> {
        let span = obs::span(obs::names::SPAN_DB_UPLOAD);
        let batch = self.batch.fetch_add(1, Ordering::Relaxed) + 1;
        let result = self.submit_inner(api_key, eval, batch);
        let (accepted, rejected) = if result.is_ok() { (1, 0) } else { (0, 1) };
        let contributor = match &result {
            Ok((_, owner)) => owner.clone(),
            Err(_) => String::new(),
        };
        obs::count(obs::names::CTR_DB_UPLOADED, accepted);
        obs::count(obs::names::CTR_DB_REJECTED, rejected);
        obs::record_with(|| obs::Event::Upload {
            accepted,
            rejected,
            contributor: contributor.clone(),
            batch,
            duration_us: span.elapsed_ns() / 1_000,
        });
        result.map(|(id, _)| id)
    }

    fn submit_inner(
        &self,
        api_key: &str,
        mut eval: FunctionEvaluation,
        batch: u64,
    ) -> Result<(u64, String), DbError> {
        let owner = self.users.authenticate(api_key)?;
        eval.owner = owner.clone();
        self.tags.normalize_machine(&mut eval.machine);
        for sw in &mut eval.software {
            self.tags.normalize_software(sw);
        }
        // Stamp provenance: the authenticated owner always wins over any
        // caller-supplied contributor, but simulation markers
        // (fault_seed/fault_index) set by the caller are preserved.
        let machine = eval.machine.machine_name.clone();
        let prov = eval.provenance.get_or_insert_with(Provenance::default);
        prov.contributor = owner.clone();
        prov.machine = machine;
        prov.batch = batch;
        let ctx = obs::RequestCtx::new(obs::OpKind::Upload, client_hash(Some(&eval.owner)));
        Ok((self.service.insert_ctx(eval, ctx)?, owner))
    }

    /// Query with an API key (sees public + own + shared-with-user data).
    /// The rows are the stored records themselves, shared by `Arc`.
    pub fn query(
        &self,
        api_key: &str,
        spec: &QuerySpec,
    ) -> Result<Vec<Arc<FunctionEvaluation>>, DbError> {
        let user = self.users.authenticate(api_key)?;
        Ok(self.query_as(Some(&user), spec))
    }

    /// Query anonymously (public data only).
    pub fn query_public(&self, spec: &QuerySpec) -> Vec<Arc<FunctionEvaluation>> {
        self.query_as(None, spec)
    }

    /// Filter the service scan's own hit list in place: no record is
    /// copied, and a returned row is the stored record.
    fn query_as(&self, user: Option<&str>, spec: &QuerySpec) -> Vec<Arc<FunctionEvaluation>> {
        let span = obs::span(obs::names::SPAN_DB_QUERY);
        let ctx = obs::RequestCtx::new(obs::OpKind::Query, client_hash(user));
        let (mut hits, stats) = self.service.query(&spec.problem, &spec.filter, user, ctx);
        let configuration = spec.configuration.matcher(&self.tags);
        hits.retain(|e| (spec.include_failures || e.result.is_ok()) && configuration(e));
        obs::count(obs::names::CTR_DB_SCANNED, stats.scanned as u64);
        obs::count(obs::names::CTR_DB_PRUNED, stats.pruned as u64);
        obs::count(obs::names::CTR_DB_RETURNED, hits.len() as u64);
        obs::count(obs::names::CTR_DB_DENIED, stats.denied as u64);
        obs::record_with(|| obs::Event::DbQuery {
            query: spec.problem.clone(),
            scanned: stats.scanned as u64,
            returned: hits.len() as u64,
            denied: stats.denied as u64,
            duration_us: span.elapsed_ns() / 1_000,
        });
        hits
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.service.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored-record counts per provenance contributor, sorted by name.
    /// Records without provenance (pre-schema imports) are not counted.
    pub fn contributor_counts(&self) -> Vec<(String, u64)> {
        self.service.contributor_counts()
    }

    /// Distinct problems with data.
    pub fn problems(&self) -> Vec<String> {
        self.service.problems()
    }

    /// Persist the document collection to a JSON file, atomically (see
    /// `wal::write_atomic`). User records are credentials and
    /// deliberately not saved. The file lists the records in id order,
    /// so it is the same at any shard count.
    pub fn save_documents(&self, path: &std::path::Path) -> Result<(), DbError> {
        let json = self.service.documents().to_json()?;
        write_atomic(path, json.as_bytes()).map_err(StoreError::from)?;
        Ok(())
    }

    /// A database laid out like [`HistoryDb::new`] holding the documents
    /// [`HistoryDb::save_documents`] wrote to `path`; new ids continue
    /// after the saved ones. No user is registered. A file cut mid-write
    /// is [`StoreError::Truncated`].
    pub fn load_documents(path: &std::path::Path) -> Result<Self, DbError> {
        let json = std::fs::read_to_string(path).map_err(StoreError::from)?;
        let db = Self::new();
        db.service.restore(Documents::from_json(&json, path)?);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{Access, EvalOutcome};
    use crate::env::parse_spack_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (HistoryDb, String, String) {
        let db = HistoryDb::new();
        let mut rng = StdRng::seed_from_u64(1);
        let alice = db
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        let bob = db.register_user("bob", "b@x.org", true, &mut rng).unwrap();
        (db, alice, bob)
    }

    fn pdgeqrf_eval(m: i64, runtime: f64, nodes: u32, node_type: &str) -> FunctionEvaluation {
        FunctionEvaluation::new("PDGEQRF", "ignored")
            .task("m", m)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", runtime))
            .on_machine(MachineConfig::new("NERSC Cori", node_type, nodes, 32))
            .with_software(parse_spack_spec("scalapack@2.1.0%gcc@8.3.0").unwrap())
    }

    #[test]
    fn submit_normalizes_and_sets_owner() {
        let (db, alice, _) = setup();
        let id = db
            .submit(&alice, pdgeqrf_eval(1000, 3.0, 8, "Haswell"))
            .unwrap();
        assert!(id > 0);
        let hits = db.query_public(&QuerySpec::all_of("PDGEQRF"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].owner, "alice");
        assert_eq!(hits[0].machine.machine_name, "cori"); // normalized
        assert_eq!(hits[0].machine.node_type, "haswell");
    }

    #[test]
    fn submit_stamps_provenance() {
        let (db, alice, bob) = setup();
        db.submit(&alice, pdgeqrf_eval(1000, 3.0, 8, "haswell"))
            .unwrap();
        // A simulated upload keeps its fault markers but the contributor,
        // machine, and batch are always re-stamped from the auth context.
        let spoofed = pdgeqrf_eval(2000, 4.0, 8, "haswell")
            .with_provenance(Provenance::contributor("eve").simulated(0xFA17, 7));
        db.submit(&bob, spoofed).unwrap();
        let hits = db.query_public(&QuerySpec::all_of("PDGEQRF"));
        assert_eq!(hits.len(), 2);
        let by_owner = |o: &str| {
            hits.iter()
                .find(|h| h.owner == o)
                .and_then(|h| h.provenance.as_ref())
                .expect("provenance stamped")
        };
        let pa = by_owner("alice");
        assert_eq!(pa.contributor, "alice");
        assert_eq!(pa.machine, "cori");
        assert_eq!(pa.batch, 1);
        assert_eq!(pa.fault_seed, None);
        let pb = by_owner("bob");
        assert_eq!(pb.contributor, "bob", "spoofed contributor overwritten");
        assert_eq!(pb.batch, 2);
        assert_eq!(pb.fault_seed, Some(0xFA17));
        assert_eq!(pb.fault_index, Some(7));
        assert_eq!(
            db.contributor_counts(),
            vec![("alice".to_string(), 1), ("bob".to_string(), 1)]
        );
    }

    #[test]
    fn bad_key_rejected() {
        let (db, _, _) = setup();
        assert!(matches!(
            db.submit("not-a-key", pdgeqrf_eval(1, 1.0, 1, "haswell")),
            Err(DbError::Auth(AuthError::InvalidKey))
        ));
    }

    #[test]
    fn machine_filter_with_nodes_and_type() {
        let (db, alice, _) = setup();
        db.submit(&alice, pdgeqrf_eval(1000, 3.0, 8, "haswell"))
            .unwrap();
        db.submit(&alice, pdgeqrf_eval(1000, 4.0, 32, "knl"))
            .unwrap();
        let spec = QuerySpec::all_of("PDGEQRF").with_configuration(ConfigurationQuery {
            machines: vec![MachineFilter::named("Cori")
                .node_type("haswell")
                .nodes(1, 16)],
            software: vec![],
            users: vec![],
        });
        let hits = db.query_public(&spec);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].machine.nodes, 8);
    }

    #[test]
    fn software_version_range_filter() {
        let (db, alice, _) = setup();
        db.submit(&alice, pdgeqrf_eval(1000, 3.0, 8, "haswell"))
            .unwrap(); // gcc 8.3.0
        let mut e = pdgeqrf_eval(1000, 4.0, 8, "haswell");
        e.software = vec![parse_spack_spec("scalapack@2.1.0%gcc@10.1.0").unwrap()];
        db.submit(&alice, e).unwrap();

        // Paper's example: GCC in [8.0.0, 9.0.0).
        let spec = QuerySpec::all_of("PDGEQRF").with_configuration(ConfigurationQuery {
            machines: vec![],
            software: vec![SoftwareFilter::new("scalapack", [2, 0, 0], [3, 0, 0])],
            users: vec![],
        });
        assert_eq!(db.query_public(&spec).len(), 2);

        let spec2 = QuerySpec::all_of("PDGEQRF").with_configuration(ConfigurationQuery {
            machines: vec![],
            software: vec![SoftwareFilter::new("gcc", [8, 0, 0], [9, 0, 0])],
            users: vec![],
        });
        // The compiler recorded on the scalapack entry satisfies the GCC
        // constraint for the first record only (the paper's §IV-A example).
        assert_eq!(db.query_public(&spec2).len(), 1);
    }

    #[test]
    fn user_trust_filter() {
        let (db, alice, bob) = setup();
        db.submit(&alice, pdgeqrf_eval(1, 1.0, 8, "haswell"))
            .unwrap();
        db.submit(&bob, pdgeqrf_eval(2, 2.0, 8, "haswell")).unwrap();
        let spec = QuerySpec::all_of("PDGEQRF").with_configuration(ConfigurationQuery {
            machines: vec![],
            software: vec![],
            users: vec!["bob".into()],
        });
        let hits = db.query_public(&spec);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].owner, "bob");
    }

    #[test]
    fn failures_excluded_by_default() {
        let (db, alice, _) = setup();
        db.submit(&alice, pdgeqrf_eval(1, 1.0, 8, "haswell"))
            .unwrap();
        let failed = pdgeqrf_eval(2, 0.0, 8, "haswell").outcome(EvalOutcome::Failed {
            reason: "OOM".into(),
        });
        db.submit(&alice, failed).unwrap();
        assert_eq!(db.query_public(&QuerySpec::all_of("PDGEQRF")).len(), 1);
        assert_eq!(
            db.query_public(&QuerySpec::all_of("PDGEQRF").including_failures())
                .len(),
            2
        );
    }

    #[test]
    fn private_data_invisible_to_others() {
        let (db, alice, bob) = setup();
        let e = pdgeqrf_eval(1, 1.0, 8, "haswell").with_access(Access::Private);
        db.submit(&alice, e).unwrap();
        assert_eq!(db.query_public(&QuerySpec::all_of("PDGEQRF")).len(), 0);
        assert_eq!(
            db.query(&bob, &QuerySpec::all_of("PDGEQRF")).unwrap().len(),
            0
        );
        assert_eq!(
            db.query(&alice, &QuerySpec::all_of("PDGEQRF"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn text_filter_composes_with_configuration() {
        let (db, alice, _) = setup();
        for m in [1000i64, 5000, 10000, 20000] {
            db.submit(&alice, pdgeqrf_eval(m, m as f64 / 1000.0, 8, "haswell"))
                .unwrap();
        }
        let filter = crate::query::parse_query("task.m BETWEEN 2000 AND 15000").unwrap();
        let spec = QuerySpec::all_of("PDGEQRF").with_filter(filter);
        let hits = db.query_public(&spec);
        assert_eq!(hits.len(), 2);
    }
}
