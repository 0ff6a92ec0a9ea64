//! # crowdtune-linalg
//!
//! Dense linear algebra and small-scale optimization substrate for the
//! crowdtune autotuner. Everything here is hand-rolled: the Rust GP/BO
//! ecosystem is thin, and the paper's modelling stack (Gaussian processes,
//! the LCM multitask model, dynamic weight regression, Expected
//! Improvement) needs exactly these pieces:
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
//! - [`stats`] — moments, quantiles, normal pdf/cdf (Expected
//!   Improvement), and a streaming mean/variance accumulator.

#![warn(missing_docs)]

pub mod cholesky;
pub mod lbfgs;
pub mod matrix;
pub mod nnls;
pub mod qr;
pub mod stats;

pub use cholesky::{Cholesky, NotPositiveDefinite};
pub use lbfgs::{lbfgs, Bounds, LbfgsOptions, LbfgsResult, StopReason};
pub use matrix::{dot, norm2_sq, Matrix};
pub use nnls::nnls;
pub use qr::{lstsq, ridge, Qr, QrError};
