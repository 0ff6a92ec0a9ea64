//! # crowdtune-gp
//!
//! Gaussian-process regression for crowd-tuning, hand-rolled on top of
//! `crowdtune-linalg`:
//!
//! - [`kernel`] — ARD squared-exponential and Matérn 5/2 kernels over the
//!   unit cube, with an indicator distance for categorical dimensions and
//!   analytic log-hyperparameter gradients.
//! - [`gp`] — single-task GP regression fitted by maximizing the exact log
//!   marginal likelihood (multi-start L-BFGS).
//! - [`lcm`] — the Linear Coregionalization Model multitask GP with
//!   support for unequal per-task sample counts, the substrate of the
//!   paper's `Multitask(PS)` and `Multitask(TS)` transfer-learning
//!   algorithms.
//! - [`incremental`] — amortized surrogate maintenance: rank-1 Cholesky
//!   appends between scheduled full refits, warm-started hyperparameter
//!   optimization.
//! - [`sparse`] — the crowd-scale inducing-point sparse GP: O(nm²) fit,
//!   O(m²) predictions, frozen-set updates between scheduled inducing
//!   reselections.
//! - [`experts`] — partitioned local experts: per-cell exact GPs plus a
//!   bounded cross-task LCM core, merged gPoE-style.
//! - [`calibration`] — observation-only surrogate-health diagnostics:
//!   held-out 90%-interval coverage and predictive-NLL drift.

#![warn(missing_docs)]

pub mod calibration;
pub mod experts;
pub mod gp;
pub mod incremental;
pub mod kernel;
pub mod lcm;
pub mod sparse;

pub use calibration::{CalibrationTracker, Z90};
pub use experts::{LocalExperts, LocalExpertsConfig};
pub use gp::{Gp, GpConfig, GpError, NoiseModel, Prediction};
pub use incremental::{IncrementalGp, RefitSchedule};
pub use kernel::{DimKind, Kernel, KernelKind};
pub use lcm::{Lcm, LcmConfig, LcmError, LcmFitStats, LcmLikelihood, TaskData};
pub use sparse::{IncrementalSparseGp, SparseGp, SparseGpConfig};
