//! Machine models: the simulated stand-ins for the paper's NERSC Cori
//! allocations.
//!
//! Each model carries the architectural coefficients the application cost
//! models consume — per-core compute rate, per-node memory bandwidth and
//! capacity, and interconnect latency/bandwidth — with values shaped on
//! the real systems: Cori Haswell nodes (2x16-core Xeon E5-2698v3,
//! 128 GB DDR4) and Cori KNL nodes (68-core Xeon Phi 7250, 96 GB DDR4 +
//! 16 GB MCDRAM). Absolute numbers only set the time scale; what matters
//! for reproducing the paper is the *relative* structure (KNL: more
//! cores, slower cores, higher aggregate bandwidth).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Node architecture of a machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeArch {
    /// Intel Xeon "Haswell" nodes (Cori phase 1).
    Haswell,
    /// Intel Xeon Phi "Knights Landing" nodes (Cori phase 2).
    Knl,
}

impl NodeArch {
    /// Canonical partition name.
    pub fn partition(&self) -> &'static str {
        match self {
            NodeArch::Haswell => "haswell",
            NodeArch::Knl => "knl",
        }
    }
}

/// A simulated machine allocation: `nodes` nodes of one architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Machine name (e.g. `"cori"`).
    pub name: String,
    /// Node architecture.
    pub arch: NodeArch,
    /// Number of allocated nodes.
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Per-core double-precision rate in GFLOP/s (effective, not peak).
    pub gflops_per_core: f64,
    /// Per-node memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Per-node memory capacity in GB.
    pub mem_gb: f64,
    /// Interconnect latency in microseconds.
    pub net_latency_us: f64,
    /// Per-node interconnect bandwidth in GB/s.
    pub net_bw_gbs: f64,
}

impl MachineModel {
    /// Cori Haswell allocation of `nodes` nodes (32 cores/node).
    pub fn cori_haswell(nodes: u32) -> Self {
        MachineModel {
            name: "cori".to_string(),
            arch: NodeArch::Haswell,
            nodes,
            cores_per_node: 32,
            gflops_per_core: 18.0,
            mem_bw_gbs: 120.0,
            mem_gb: 128.0,
            net_latency_us: 1.5,
            net_bw_gbs: 8.0,
        }
    }

    /// Cori KNL allocation of `nodes` nodes (68 cores/node).
    pub fn cori_knl(nodes: u32) -> Self {
        MachineModel {
            name: "cori".to_string(),
            arch: NodeArch::Knl,
            nodes,
            cores_per_node: 68,
            gflops_per_core: 6.5,
            mem_bw_gbs: 400.0, // MCDRAM-dominated effective bandwidth
            mem_gb: 96.0,
            net_latency_us: 2.2,
            net_bw_gbs: 8.0,
        }
    }

    /// Total cores in the allocation.
    pub fn total_cores(&self) -> u64 {
        self.nodes as u64 * self.cores_per_node as u64
    }

    /// The `SLURM_*` environment a job on this allocation would see —
    /// consumed by `crowdtune_db::parse_slurm_env` to exercise the
    /// automatic environment-recording path.
    pub fn slurm_env(&self) -> HashMap<String, String> {
        let mut vars = HashMap::new();
        vars.insert("SLURM_JOB_NUM_NODES".into(), self.nodes.to_string());
        vars.insert("SLURM_CPUS_ON_NODE".into(), self.cores_per_node.to_string());
        vars.insert("SLURM_CLUSTER_NAME".into(), self.name.clone());
        vars.insert(
            "SLURM_JOB_PARTITION".into(),
            self.arch.partition().to_string(),
        );
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_db::parse_slurm_env;

    #[test]
    fn paper_allocations_core_counts() {
        // The paper's experiments: 8 Haswell nodes = 256 cores, 32 Haswell
        // = 1024, 64 Haswell = 2048, 32 KNL = 2176.
        assert_eq!(MachineModel::cori_haswell(8).total_cores(), 256);
        assert_eq!(MachineModel::cori_haswell(32).total_cores(), 1024);
        assert_eq!(MachineModel::cori_haswell(64).total_cores(), 2048);
        assert_eq!(MachineModel::cori_knl(32).total_cores(), 2176);
    }

    #[test]
    fn knl_vs_haswell_structure() {
        let hsw = MachineModel::cori_haswell(32);
        let knl = MachineModel::cori_knl(32);
        assert!(knl.cores_per_node > hsw.cores_per_node);
        assert!(knl.gflops_per_core < hsw.gflops_per_core);
        assert!(knl.mem_bw_gbs > hsw.mem_bw_gbs);
        assert!(knl.mem_gb < hsw.mem_gb);
    }

    #[test]
    fn slurm_env_roundtrips_through_parser() {
        let m = MachineModel::cori_knl(16);
        let parsed = parse_slurm_env(&m.slurm_env()).unwrap();
        assert_eq!(parsed.machine_name, "cori");
        assert_eq!(parsed.node_type, "knl");
        assert_eq!(parsed.nodes, 16);
        assert_eq!(parsed.cores_per_node, 68);
    }
}
