//! # crowdtune-sensitivity
//!
//! Global sensitivity analysis for crowd-tuning — the engine behind the
//! paper's `QuerySensitivityAnalysis` utility and its search-space
//! reduction case studies (SuperLU_DIST, Hypre):
//!
//! - [`saltelli`] — Saltelli sample designs (`N (d + 2)` points) over a
//!   Sobol' base (RNG fallback for very high dimension).
//! - [`sobol_indices`] — first-order (Saltelli 2010) and total-effect
//!   (Jansen 1999) estimators with bootstrap confidence intervals,
//!   matching SALib's `sobol.analyze` outputs.
//! - [`analyze`] — named, space-aware analysis producing the paper's
//!   Table IV / Table V shape.

#![warn(missing_docs)]

pub mod analyze;
pub mod saltelli;
pub mod sobol_indices;

pub use analyze::{analyze_space, AnalysisConfig, NamedSobolResult};
pub use saltelli::{SaltelliDesign, SaltelliEvaluations};
pub use sobol_indices::{sobol_indices, ParamSensitivity, SobolResult};
