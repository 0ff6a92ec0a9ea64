//! # crowdtune-db
//!
//! The shared crowd-tuning performance database — the in-process
//! equivalent of the paper's MongoDB-backed `gptune.lbl.gov` repository:
//!
//! - [`document`] — JSON performance-sample documents (task parameters,
//!   tuning parameters, evaluation result) plus reproducibility metadata
//!   (machine and software configuration) and per-record access control.
//!   Parameter and output maps are [`SortedMap`]s: key-sorted vectors
//!   that serialize like a `BTreeMap`.
//! - [`store`] — one service shard's index: its records indexed by
//!   problem, field value and contributor, behind a `RwLock`; plus the
//!   crate's error type and the scan statistics queries report.
//! - [`query`] — a typed filter AST and the SQL-like text query language
//!   (`task.m BETWEEN 1000 AND 20000 AND machine.name = 'cori'`).
//! - [`access`] — registered users, plain and keypair-style API keys.
//! - [`env`] — automatic environment parsing (Spack specs, Slurm job
//!   environments) and machine/software tag normalization.
//! - [`repo`] — the [`HistoryDb`] facade: authenticated submit, meta-
//!   description-shaped queries (problem space + configuration space).
//! - [`service`] — the crowd service, the one storage engine behind
//!   [`HistoryDb`]: global ids and logical times, parallel
//!   problem-sharded reads, group-commit WAL writes, and a blob table
//!   for tuner checkpoints.
//! - [`telemetry`] — the fleet-telemetry collection: cross-run records
//!   distilled from per-run event journals, with the same per-record
//!   access control as performance samples.
//! - [`wal`] — crash-safe persistence for the service: a checksummed
//!   write-ahead log, snapshot + replay recovery that truncates torn
//!   tails, atomic compaction, and the one snapshot codec that also
//!   reads and writes `HistoryDb`'s documents files.

#![warn(missing_docs)]

pub mod access;
pub mod document;
pub mod env;
pub mod query;
pub mod repo;
pub mod service;
mod sorted_map;
pub mod store;
pub mod telemetry;
pub mod wal;

pub use access::{AuthError, KeyRecord, User, UserRegistry};
pub use document::{
    Access, EvalOutcome, FunctionEvaluation, MachineConfig, ParamMap, Provenance, Scalar,
    SoftwareConfig,
};
pub use env::{parse_slurm_env, parse_spack_spec, EnvError, TagRegistry};
pub use query::{parse_query, FieldIndexes, Filter, ParseError};
pub use repo::{ConfigurationQuery, DbError, HistoryDb, MachineFilter, QuerySpec, SoftwareFilter};
pub use service::{CrowdService, ServiceConfig};
pub use sorted_map::SortedMap;
pub use store::{ScanStats, StoreError};
pub use telemetry::{FleetQuery, RunRecord, TelemetryCollection};
pub use wal::{crc32, RecoveryReport, WalConfig, WalRecord};
