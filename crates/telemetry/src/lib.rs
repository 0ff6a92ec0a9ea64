//! `crowdtune-telemetry` — fleet-level observability for crowdtune.
//!
//! The per-process `crowdtune-obs` layer answers "what did *this* run
//! do": spans, counters, histograms, and a JSONL journal. This crate
//! lifts those artifacts to the fleet level, the vantage point the
//! crowd-tuning paper argues matters — many users, many machines, many
//! task-learning algorithms, one shared history:
//!
//! - [`ingest`] parses per-run journals into indexed [`RunRecord`]s
//!   stored in the embedded database's telemetry collection, carrying
//!   run identity, per-stage raw durations, event counts, and the
//!   collapsed-stack profile.
//! - [`fleet`] provides typed queries over those records: "all `hypre`
//!   runs on machine X", "fit-time p50/p95 grouped by TLA algorithm" —
//!   exact order-statistic percentiles, honoring per-record access
//!   control.
//! - [`quality`] keeps one journal summary per scenario and reads its
//!   per-contributor data-quality rollup — which contributor is being
//!   flagged, which surrogate is drifting.
//! - [`exposition`] serves the live process metrics in Prometheus text
//!   format from a dependency-free blocking HTTP listener (or a
//!   `--oneshot` file for CI), without perturbing tuner determinism.
//!
//! The `crowdtune-report` binary is the one reader of everything the
//! system writes: `report` and `slo` over run journals, trace journals
//! and metrics snapshots, `attribute` over trace journals, and `ingest`/
//! `query` over the fleet store. `--expose`/`--expose-oneshot` flags on
//! the bench smoke driver exercise the exposition path mid-tune.

#![warn(missing_docs)]

pub mod attribution;
pub mod exposition;
pub mod fleet;
pub mod ingest;
pub mod quality;

pub use attribution::{
    reconcile, render_attribution, tail_attribution, OpTrace, Reconciliation, TailAttribution,
};
pub use crowdtune_db::{Access, FleetQuery, RunRecord, TelemetryCollection};
pub use exposition::{render_quality_prometheus, scrape, write_oneshot, ExpositionServer};
pub use fleet::{fleet_stage_percentiles, percentile_us, render_stage_table, StagePercentiles};
pub use ingest::{ingest_events, ingest_into, IngestMeta};
pub use quality::{render_quality_rollup, QualityRollup};
