//! # crowdtune-core
//!
//! The crowd-tuning autotuner — the paper's primary contribution:
//!
//! - [`tuner`] — the Bayesian-optimization driver: one loop hosting any
//!   strategy, the `NoTLA` baseline included.
//! - [`tla`] — the TLA algorithm pool (paper Table I): `Multitask(PS)`,
//!   `Multitask(TS)`, `WeightedSum(equal/dynamic)`, `Stacking`,
//!   and the `Ensemble(proposed/toggling/prob)` selector, plus `NoTLA`
//!   as the zero-source strategy.
//! - [`acquisition`] — Expected Improvement / LCB and the candidate
//!   search all strategies share.
//! - [`meta`] — the meta-description interface (paper §IV-A): one JSON
//!   document binds a tuning problem to the shared database.
//! - [`query_surrogate_model`], [`query_predict_output`] and
//!   [`query_sensitivity_analysis`] — the paper's crowd-data utilities
//!   (§IV-B), re-exported at the crate root.
//! - [`data`] — dataset plumbing between database records, spaces, and
//!   the GP stack.
//! - [`checkpoint`] — the fault model: retry policy for transient
//!   evaluation failures and checkpoint/resume with bitwise-identical
//!   replay (DESIGN.md §9).
//! - [`quality`] — observe-only data-quality scoring of crowd uploads:
//!   held-out standardized-residual outlier detection, duplicate-config
//!   disagreement, and per-contributor trust statistics (DESIGN.md §12).

#![warn(missing_docs)]

pub mod acquisition;
pub mod checkpoint;
pub mod data;
pub mod meta;
pub mod quality;
pub mod tla;
pub mod tuner;
mod utilities;

pub use acquisition::{
    expected_improvement, propose, CandidatePool, LcmTaskSurrogate, ProposalRequest,
    ProposalScratch, SearchOptions, Surrogate,
};
pub use checkpoint::{
    is_transient_error, CheckpointRecord, Checkpointing, ResumeError, RetryPolicy, TunerCheckpoint,
};
pub use data::{records_to_dataset, Dataset};
pub use meta::{CrowdSession, MetaDescription, MetaError};
pub use quality::{ContributorTrust, FlaggedRecord, QualityConfig, QualityReport, QualityScorer};
pub use tla::ensemble::{Ensemble, EnsemblePolicy};
pub use tla::multitask::{MultitaskPs, MultitaskTs};
pub use tla::notla::NoTla;
pub use tla::stacking::Stacking;
pub use tla::weighted::WeightedSum;
pub use tla::{SourceTask, TlaContext, TlaStrategy};
pub use tuner::{
    dims_of, tune, tune_notla, tune_tla_constrained, Constraint, EvalRecord, RunStats,
    SurrogateTier, TuneConfig, TuneResult,
};
pub use utilities::{
    query_predict_output, query_sensitivity_analysis, query_surrogate_model,
    query_surrogate_model_with, SurrogateKind, SurrogateModelHandle,
};
