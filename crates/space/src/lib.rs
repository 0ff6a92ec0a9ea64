//! # crowdtune-space
//!
//! Search-space definitions for crowd-tuning: named parameters over
//! integer / real / categorical domains, transforms to and from the unit
//! hypercube (where the Gaussian-process stack operates), space
//! *reduction* driven by sensitivity analysis, samplers (uniform, Latin
//! hypercube), and the Sobol' sequence.
//!
//! A "space" plays two roles, mirroring the paper's meta description:
//! the **input space** of task parameters (what problem is being solved —
//! matrix sizes, mesh densities) and the **parameter space** of tuning
//! parameters (what the tuner may change — block sizes, process grids).

#![warn(missing_docs)]

pub mod param;
pub mod sample;
pub mod sobol;
pub mod space;

pub use param::{Domain, Param, Value};
pub use sample::{sample_lhs, sample_uniform};
pub use sobol::Sobol;
pub use space::{Point, ReducedSpace, Space, SpaceError};
