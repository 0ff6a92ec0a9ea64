//! Automatic environment parsing and tag normalization.
//!
//! The paper's database records the runtime environment of every sample
//! without manual input: Spack-installed software is introspected from
//! its spec, Slurm allocations from the job environment, and
//! heterogeneous user-provided names ("Cori", "cori-haswell",
//! "NERSC Cori") are normalized against a registry of well-known machine
//! and software tags. This module implements those parsers over the
//! textual formats the simulators emit.

use crate::document::{MachineConfig, SoftwareConfig};
use std::collections::HashMap;

/// Environment-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The spec string was not understandable.
    BadSpec(String),
    /// A required Slurm variable was missing.
    MissingVar(String),
    /// A variable had an unparsable value.
    BadVar(String, String),
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::BadSpec(s) => write!(f, "cannot parse spec '{s}'"),
            EnvError::MissingVar(v) => write!(f, "missing environment variable {v}"),
            EnvError::BadVar(v, val) => write!(f, "bad value '{val}' for {v}"),
        }
    }
}

impl std::error::Error for EnvError {}

fn parse_version(s: &str) -> Option<[u32; 3]> {
    let mut parts = s.split('.');
    let major = parts.next()?.parse().ok()?;
    let minor = parts.next().unwrap_or("0").parse().ok()?;
    let patch = parts.next().unwrap_or("0").parse().ok()?;
    Some([major, minor, patch])
}

/// Parse a Spack spec string like
/// `superlu-dist@7.2.0%gcc@9.1.0+openmp~cuda` into a [`SoftwareConfig`].
///
/// Grammar (subset of Spack's):
/// `name[@version][%compiler[@version]][{+|~}variant]*`
pub fn parse_spack_spec(spec: &str) -> Result<SoftwareConfig, EnvError> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Err(EnvError::BadSpec(spec.into()));
    }
    // Split off variants first (they can appear in any order at the end).
    let mut name_part = spec;
    let mut variants = Vec::new();
    if let Some(pos) = spec.find(['+', '~']) {
        name_part = &spec[..pos];
        let mut rest = &spec[pos..];
        while !rest.is_empty() {
            let sign = &rest[..1];
            let next = rest[1..]
                .find(['+', '~'])
                .map(|p| p + 1)
                .unwrap_or(rest.len());
            let var = &rest[1..next];
            if var.is_empty() {
                return Err(EnvError::BadSpec(spec.into()));
            }
            variants.push(format!("{sign}{var}"));
            rest = &rest[next..];
        }
    }
    // Now `name_part` is name[@version][%compiler[@version]].
    let (pkg_part, compiler) = match name_part.split_once('%') {
        Some((p, c)) => {
            let (cname, cver) = match c.split_once('@') {
                Some((n, v)) => (
                    n.to_string(),
                    parse_version(v).ok_or_else(|| EnvError::BadSpec(spec.into()))?,
                ),
                None => (c.to_string(), [0, 0, 0]),
            };
            if cname.is_empty() {
                return Err(EnvError::BadSpec(spec.into()));
            }
            (p, Some((cname, cver)))
        }
        None => (name_part, None),
    };
    let (name, version) = match pkg_part.split_once('@') {
        Some((n, v)) => (
            n.to_string(),
            parse_version(v).ok_or_else(|| EnvError::BadSpec(spec.into()))?,
        ),
        None => (pkg_part.to_string(), [0, 0, 0]),
    };
    if name.is_empty() {
        return Err(EnvError::BadSpec(spec.into()));
    }
    Ok(SoftwareConfig {
        name: name.to_ascii_lowercase(),
        version,
        compiler,
        variants,
    })
}

/// Parse a Slurm-style job environment (the `SLURM_*` variables) into a
/// [`MachineConfig`]. Required: `SLURM_JOB_NUM_NODES`,
/// `SLURM_CPUS_ON_NODE`. Optional: `SLURM_CLUSTER_NAME`,
/// `SLURM_JOB_PARTITION`.
pub fn parse_slurm_env(vars: &HashMap<String, String>) -> Result<MachineConfig, EnvError> {
    let get = |name: &str| -> Result<&String, EnvError> {
        vars.get(name)
            .ok_or_else(|| EnvError::MissingVar(name.into()))
    };
    let nodes: u32 = {
        let v = get("SLURM_JOB_NUM_NODES")?;
        v.parse()
            .map_err(|_| EnvError::BadVar("SLURM_JOB_NUM_NODES".into(), v.clone()))?
    };
    let cores: u32 = {
        let v = get("SLURM_CPUS_ON_NODE")?;
        v.parse()
            .map_err(|_| EnvError::BadVar("SLURM_CPUS_ON_NODE".into(), v.clone()))?
    };
    let machine = vars.get("SLURM_CLUSTER_NAME").cloned().unwrap_or_default();
    let partition = vars.get("SLURM_JOB_PARTITION").cloned().unwrap_or_default();
    Ok(MachineConfig {
        machine_name: machine.to_ascii_lowercase(),
        node_type: partition.to_ascii_lowercase(),
        nodes,
        cores_per_node: cores,
    })
}

/// Rewrite `name` in place as its canonical form under `aliases`: trimmed,
/// lowercased, then replaced by the alias target when it is a known
/// alias. Only trimming allocates; the rest reuses `name`'s buffer.
fn canonicalize(aliases: &HashMap<String, String>, name: &mut String) {
    let trimmed = name.trim();
    if trimmed.len() != name.len() {
        *name = trimmed.to_string();
    }
    name.make_ascii_lowercase();
    if let Some(canon) = aliases.get(name.as_str()) {
        name.clone_from(canon);
    }
}

/// A registry of canonical machine/software names with known aliases —
/// the paper's "separate databases for the detailed information of
/// popular software frameworks and user systems with possible tag names".
#[derive(Debug, Default)]
pub struct TagRegistry {
    /// alias (lowercased) -> canonical name
    machine_aliases: HashMap<String, String>,
    /// canonical machine -> known node types
    machine_nodes: HashMap<String, Vec<String>>,
    /// alias (lowercased) -> canonical software name
    software_aliases: HashMap<String, String>,
}

impl TagRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with the systems and software of the paper's
    /// evaluation (NERSC Cori, the HPC packages of §VI).
    pub fn with_builtin_entries() -> Self {
        let mut reg = Self::new();
        reg.add_machine("cori", &["cori", "nersc cori", "cori-haswell", "cori-knl"]);
        reg.set_node_types("cori", &["haswell", "knl"]);
        reg.add_machine("perlmutter", &["perlmutter", "nersc perlmutter"]);
        reg.set_node_types("perlmutter", &["cpu", "gpu"]);
        for (canon, aliases) in [
            ("scalapack", &["scalapack", "libscalapack"] as &[&str]),
            (
                "superlu-dist",
                &["superlu-dist", "superlu_dist", "superludist"],
            ),
            ("hypre", &["hypre"]),
            ("nimrod", &["nimrod"]),
            ("gcc", &["gcc", "gnu"]),
            ("cray-mpich", &["cray-mpich", "craympich", "mpich-cray"]),
        ] {
            reg.add_software(canon, aliases);
        }
        reg
    }

    /// Register a machine and its aliases.
    fn add_machine(&mut self, canonical: &str, aliases: &[&str]) {
        for a in aliases {
            self.machine_aliases
                .insert(a.to_ascii_lowercase(), canonical.to_string());
        }
        self.machine_aliases
            .insert(canonical.to_ascii_lowercase(), canonical.to_string());
    }

    /// Record the node types a machine offers.
    fn set_node_types(&mut self, canonical: &str, node_types: &[&str]) {
        self.machine_nodes.insert(
            canonical.to_string(),
            node_types.iter().map(|s| s.to_string()).collect(),
        );
    }

    /// Register a software package and its aliases.
    fn add_software(&mut self, canonical: &str, aliases: &[&str]) {
        for a in aliases {
            self.software_aliases
                .insert(a.to_ascii_lowercase(), canonical.to_string());
        }
        self.software_aliases
            .insert(canonical.to_ascii_lowercase(), canonical.to_string());
    }

    /// Canonicalize a machine name; unknown names are lowercased verbatim
    /// (the registry learns nothing silently, but queries stay usable).
    pub fn canonical_machine(&self, name: &str) -> String {
        let mut name = name.trim().to_string();
        canonicalize(&self.machine_aliases, &mut name);
        name
    }

    /// Canonicalize a software name.
    pub fn canonical_software(&self, name: &str) -> String {
        let mut name = name.trim().to_string();
        canonicalize(&self.software_aliases, &mut name);
        name
    }

    /// Normalize a whole machine configuration in place: canonical machine
    /// name, and a node type validated against the machine's known list
    /// (unknown node types are kept as provided). Names are rewritten in
    /// their own buffers, so a configuration that is already canonical
    /// costs no allocation.
    pub fn normalize_machine(&self, cfg: &mut MachineConfig) {
        canonicalize(&self.machine_aliases, &mut cfg.machine_name);
        cfg.node_type.make_ascii_lowercase();
        if let Some(known) = self.machine_nodes.get(&cfg.machine_name) {
            if let Some(exact) = known.iter().find(|k| cfg.node_type.contains(*k)) {
                cfg.node_type.clone_from(exact);
            }
        }
    }

    /// Normalize a software configuration in place, allocating nothing
    /// when its package and compiler names are already canonical.
    pub fn normalize_software(&self, cfg: &mut SoftwareConfig) {
        canonicalize(&self.software_aliases, &mut cfg.name);
        if let Some((cname, _)) = &mut cfg.compiler {
            canonicalize(&self.software_aliases, cname);
        }
    }

    /// Is `version` within `[from, to)`? Used for the meta description's
    /// `version_from`/`version_to` software constraints.
    pub fn version_in_range(version: [u32; 3], from: [u32; 3], to: [u32; 3]) -> bool {
        version >= from && version < to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spack_full_spec() {
        let sw = parse_spack_spec("superlu-dist@7.2.0%gcc@9.1.0+openmp~cuda").unwrap();
        assert_eq!(sw.name, "superlu-dist");
        assert_eq!(sw.version, [7, 2, 0]);
        assert_eq!(sw.compiler, Some(("gcc".to_string(), [9, 1, 0])));
        assert_eq!(
            sw.variants,
            vec!["+openmp".to_string(), "~cuda".to_string()]
        );
    }

    #[test]
    fn spack_minimal_specs() {
        let sw = parse_spack_spec("hypre").unwrap();
        assert_eq!(sw.name, "hypre");
        assert_eq!(sw.version, [0, 0, 0]);
        assert_eq!(sw.compiler, None);

        let sw = parse_spack_spec("ScaLAPACK@2.1").unwrap();
        assert_eq!(sw.name, "scalapack"); // lowercased
        assert_eq!(sw.version, [2, 1, 0]);

        let sw = parse_spack_spec("x%clang").unwrap();
        assert_eq!(sw.compiler, Some(("clang".to_string(), [0, 0, 0])));
    }

    #[test]
    fn spack_bad_specs_rejected() {
        assert!(parse_spack_spec("").is_err());
        assert!(parse_spack_spec("pkg@not.a.version").is_err());
        assert!(parse_spack_spec("pkg+").is_err());
        assert!(parse_spack_spec("%gcc").is_err());
    }

    #[test]
    fn slurm_env_parses() {
        let mut vars = HashMap::new();
        vars.insert("SLURM_JOB_NUM_NODES".to_string(), "64".to_string());
        vars.insert("SLURM_CPUS_ON_NODE".to_string(), "32".to_string());
        vars.insert("SLURM_CLUSTER_NAME".to_string(), "Cori".to_string());
        vars.insert("SLURM_JOB_PARTITION".to_string(), "Haswell".to_string());
        let m = parse_slurm_env(&vars).unwrap();
        assert_eq!(m.nodes, 64);
        assert_eq!(m.cores_per_node, 32);
        assert_eq!(m.machine_name, "cori");
        assert_eq!(m.node_type, "haswell");
    }

    #[test]
    fn slurm_env_missing_and_bad_vars() {
        let mut vars = HashMap::new();
        assert!(matches!(
            parse_slurm_env(&vars),
            Err(EnvError::MissingVar(_))
        ));
        vars.insert("SLURM_JOB_NUM_NODES".to_string(), "sixty-four".to_string());
        vars.insert("SLURM_CPUS_ON_NODE".to_string(), "32".to_string());
        assert!(matches!(parse_slurm_env(&vars), Err(EnvError::BadVar(..))));
    }

    #[test]
    fn tag_normalization_machines() {
        let reg = TagRegistry::with_builtin_entries();
        assert_eq!(reg.canonical_machine("NERSC Cori"), "cori");
        assert_eq!(reg.canonical_machine("cori-haswell"), "cori");
        assert_eq!(reg.canonical_machine("SomethingElse"), "somethingelse");
        let mut cfg = MachineConfig::new("NERSC Cori", "Haswell-partition", 8, 32);
        reg.normalize_machine(&mut cfg);
        assert_eq!(cfg.machine_name, "cori");
        assert_eq!(cfg.node_type, "haswell");
    }

    #[test]
    fn tag_normalization_software() {
        let reg = TagRegistry::with_builtin_entries();
        let mut sw = parse_spack_spec("SuperLU_DIST@7.2.0%GNU@9.1.0").unwrap();
        reg.normalize_software(&mut sw);
        assert_eq!(sw.name, "superlu-dist");
        assert_eq!(sw.compiler.as_ref().unwrap().0, "gcc");
    }

    #[test]
    fn version_ranges_half_open() {
        assert!(TagRegistry::version_in_range(
            [8, 3, 0],
            [8, 0, 0],
            [9, 0, 0]
        ));
        assert!(TagRegistry::version_in_range(
            [8, 0, 0],
            [8, 0, 0],
            [9, 0, 0]
        ));
        assert!(!TagRegistry::version_in_range(
            [9, 0, 0],
            [8, 0, 0],
            [9, 0, 0]
        ));
        assert!(!TagRegistry::version_in_range(
            [7, 9, 9],
            [8, 0, 0],
            [9, 0, 0]
        ));
    }
}
