//! # crowdtune-linalg
//!
//! Dense linear algebra and small-scale optimization substrate for the
//! crowdtune autotuner. Everything here is hand-rolled: the Rust GP/BO
//! ecosystem is thin, and the paper's modelling stack (Gaussian processes,
//! the LCM multitask model, dynamic weight regression, Sobol bootstrap
//! statistics) needs exactly these pieces:
//!
//! - [`matrix::Matrix`] — dense row-major `f64` matrices with the BLAS-like
//!   kernels GP regression needs.
//! - [`cholesky::Cholesky`] — SPD factorization with automatic jitter
//!   escalation (the standard GP numerical hygiene).
//! - [`qr::Qr`] / [`qr::lstsq`] — Householder least squares for the
//!   `WeightedSum(dynamic)` weight regression.
//! - [`nnls::nnls`] — Lawson–Hanson non-negative least squares, keeping
//!   dynamic task weights additive.
//! - [`lbfgs::lbfgs`] — L-BFGS for maximizing GP log marginal likelihoods.
//! - [`neldermead::nelder_mead`] — gradient-free fallback optimizer.
//! - [`stats`] — moments, normal pdf/cdf (Expected Improvement), bootstrap
//!   confidence intervals (Sobol indices).

#![warn(missing_docs)]

pub mod cholesky;
pub mod lbfgs;
pub mod matrix;
pub mod neldermead;
pub mod nnls;
pub mod qr;
pub mod stats;

pub use cholesky::{Cholesky, NotPositiveDefinite};
pub use lbfgs::{lbfgs, Bounds, LbfgsOptions, LbfgsResult, StopReason};
pub use matrix::{axpy, dot, norm2, norm2_sq, Matrix};
pub use neldermead::{nelder_mead, NelderMeadOptions, NelderMeadResult};
pub use nnls::{nnls, nnls_with, NnlsOptions};
pub use qr::{lstsq, ridge, Qr, QrError};
