//! # crowdtune
//!
//! Crowd-based autotuning for high-performance computing applications —
//! a from-scratch Rust implementation of the GPTuneCrowd system
//! (*Harnessing the Crowd for Autotuning High-Performance Computing
//! Applications*, IPDPS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`tuner`] ([`crowdtune_core`]) — Bayesian optimization, the
//!   transfer-learning (TLA) algorithm pool, the ensemble selector, the
//!   meta-description interface and the crowd-data utilities.
//! - [`db`] ([`crowdtune_db`]) — the shared performance database:
//!   JSON documents, SQL-like queries, users/API keys, access control,
//!   Spack/Slurm environment parsing, tag normalization.
//! - [`gp`] ([`crowdtune_gp`]) — Gaussian-process regression and the LCM
//!   multitask GP.
//! - [`space`] ([`crowdtune_space`]) — search spaces, transforms,
//!   samplers (uniform/LHS/Sobol'), space reduction.
//! - [`sensitivity`] ([`crowdtune_sensitivity`]) — Saltelli/Sobol global
//!   sensitivity analysis with bootstrap confidence intervals.
//! - [`apps`] ([`crowdtune_apps`]) — simulated HPC applications and
//!   machines (PDGEQRF, NIMROD, SuperLU_DIST, Hypre, synthetic
//!   functions; Cori Haswell/KNL).
//! - [`linalg`] ([`crowdtune_linalg`]) — the dense linear algebra and
//!   optimization substrate.
//! - [`telemetry`] ([`crowdtune_telemetry`]) — fleet telemetry: journal
//!   ingestion into the shared database, per-algorithm fleet queries,
//!   and Prometheus-text metrics exposition.
//!
//! ## Quickstart
//!
//! ```
//! use crowdtune::prelude::*;
//!
//! // A tuning problem: minimize a black-box over a small space.
//! let space = Space::new(vec![Param::real("x", 0.0, 1.0)]).unwrap();
//! let mut objective = |p: &Point| -> Result<f64, String> {
//!     let x = p[0].as_f64();
//!     Ok((x - 0.3) * (x - 0.3))
//! };
//! let config = TuneConfig { budget: 10, seed: 1, ..Default::default() };
//! let result = tune_notla(&space, &mut objective, &config);
//! let (best_point, best_y) = result.best().unwrap();
//! assert!(best_y < 0.05, "found {best_y} at {best_point:?}");
//! ```
//!
//! See `examples/` for crowd-tuning with transfer learning, the shared
//! database, and sensitivity-driven search-space reduction.

#![warn(missing_docs)]

pub use crowdtune_apps as apps;
pub use crowdtune_core as tuner;
pub use crowdtune_db as db;
pub use crowdtune_gp as gp;
pub use crowdtune_linalg as linalg;
pub use crowdtune_sensitivity as sensitivity;
pub use crowdtune_space as space;
pub use crowdtune_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use crowdtune_apps::{Application, EvalFailure, MachineModel};
    pub use crowdtune_core::{
        dims_of, query_predict_output, query_sensitivity_analysis, query_surrogate_model,
        records_to_dataset, tune, tune_notla, CrowdSession, Dataset, Ensemble, EnsemblePolicy,
        MetaDescription, MultitaskPs, MultitaskTs, NoTla, SourceTask, Stacking, SurrogateTier,
        TlaStrategy, TuneConfig, TuneResult, WeightedSum,
    };
    pub use crowdtune_db::{
        Access, EvalOutcome, Filter, FunctionEvaluation, HistoryDb, MachineConfig, QuerySpec,
        Scalar, SoftwareConfig,
    };
    pub use crowdtune_gp::{Gp, GpConfig, Lcm, LcmConfig, SparseGp, SparseGpConfig, TaskData};
    pub use crowdtune_sensitivity::{analyze_space, AnalysisConfig};
    pub use crowdtune_space::{Param, Point, Space, Value};
}
