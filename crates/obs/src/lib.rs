//! Observability substrate for the crowdtune workspace.
//!
//! This crate is deliberately hand-rolled on top of `std` plus the vendored
//! `serde`/`serde_json`/`parking_lot` stand-ins (the build environment is
//! offline, so pulling crates.io `tracing` is not an option). It provides the
//! three primitives the rest of the workspace instruments itself with:
//!
//! 1. **Spans** ([`span`]) — lightweight wall-clock timers with parent
//!    nesting tracked on a thread-local stack. Closing a span feeds a
//!    process-global histogram (when metrics are enabled) and the active
//!    per-run scope (when one is open on the current thread).
//! 2. **Metrics** ([`metrics`]) — process-global counters and log₂-bucketed
//!    histograms behind sharded atomics. The disabled path is a single
//!    relaxed atomic load, so instrumented hot loops keep PR 1's
//!    bitwise-deterministic parallel behaviour at effectively zero cost.
//! 3. **Event journal** ([`journal`]) — a per-tuning-run JSONL sink recording
//!    one typed [`Event`] per interesting occurrence (iteration, surrogate
//!    fit, optimizer restart, acquisition batch, Cholesky jitter bump,
//!    failure exclusion, DB query/upload, …). Journals are parsed back and
//!    schema-checked by [`journal::read_journal`] and summarized by
//!    [`report`] / the `crowdtune-report` binary.
//!
//! Instrumentation is *observation only*: nothing in this crate consumes
//! randomness or perturbs floating-point evaluation order, so enabling any
//! combination of metrics/journal/scope never changes tuner output.

#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod names;
pub mod report;
pub mod scope;
pub mod slo;
pub mod span;
pub mod trace;

pub use journal::{
    finite, install_journal, journal_active, journal_flush, journal_path, read_journal,
    record_with, uninstall_journal, Event, Journal, JournalError,
};
pub use metrics::{
    count, counter, counter_value, histogram, metrics_enabled, observe, reset_metrics,
    set_metrics_enabled, snapshot, Counter, Histogram, HistogramSummary, MetricsSnapshot,
};
pub use report::{
    profile_depth, render_profile, render_quality, render_report, summarize, worst_contributor,
    ContributorQuality, JournalReport, StageSummary, WarmstartSummary,
};
pub use scope::{scope_active, scope_begin, scope_count, scope_end, ScopeStats};
pub use slo::{
    evaluate_slos, parse_slo_file, render_slo_report, SloFile, SloObjective, SloOutcome, SloReport,
    SloWindows, WindowBurn,
};
pub use span::{current_span, span, SpanGuard};
pub use trace::{
    configure_tracing, drain_traces, now_ns, read_trace_journal, reset_traces, set_ring_capacity,
    set_tracing_enabled, tracing_enabled, write_trace_journal, OpKind, RequestCtx, TraceConfig,
    TraceJournal, TraceRecord, TraceStage, NO_SHARD,
};
