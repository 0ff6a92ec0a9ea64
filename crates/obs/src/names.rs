//! Well-known span, counter, and histogram names shared across crates.
//!
//! Instrumentation sites and consumers (RunStats, the report bin, tests)
//! must agree on these strings; keeping them here prevents silent drift.

/// Span: one full tuning run — the root frame of the per-run span stack,
/// so folded profiles read `tune;propose;gp_fit` etc.
pub const SPAN_TUNE: &str = "tune";
/// Span: one full `Gp::fit` call, including its parallel multistart.
pub const SPAN_GP_FIT: &str = "gp_fit";
/// Span: one full `Lcm::fit` call, including its parallel multistart.
pub const SPAN_LCM_FIT: &str = "lcm_fit";
/// Span: one acquisition proposal (candidate generation + batch scoring).
pub const SPAN_ACQUISITION: &str = "acquisition";
/// Span: one strategy `propose` call inside the tuning loop.
pub const SPAN_PROPOSE: &str = "propose";
/// Span: one objective evaluation inside the tuning loop.
pub const SPAN_EVAL: &str = "eval";
/// Span: one history-database query.
pub const SPAN_DB_QUERY: &str = "db_query";
/// Span: one history-database upload (submit/submit_batch).
pub const SPAN_DB_UPLOAD: &str = "db_upload";
/// Span: Saltelli design generation.
pub const SPAN_SALTELLI_GEN: &str = "saltelli_generate";
/// Span: model evaluation over a full Saltelli design.
pub const SPAN_SALTELLI_EVAL: &str = "saltelli_evaluate";
/// Span: Sobol index estimation, including the bootstrap.
pub const SPAN_SOBOL_INDICES: &str = "sobol_indices";
/// Span: one fleet-telemetry collection query.
pub const SPAN_TEL_QUERY: &str = "telemetry_query";

/// Counter: Cholesky factorizations that needed jitter escalation.
pub const CTR_JITTER_ESCALATIONS: &str = "linalg.jitter_escalations";
/// Counter: Cholesky factorizations that stayed indefinite after the full
/// jitter ladder.
pub const CTR_JITTER_EXHAUSTED: &str = "linalg.jitter_exhausted";
/// Counter: L-BFGS Wolfe line searches that failed to find a step.
pub const CTR_LINESEARCH_FAILURES: &str = "linalg.linesearch_failures";
/// Counter: multistart restarts executed across all fits.
pub const CTR_FIT_RESTARTS: &str = "gp.fit_restarts";
/// Counter: fits that fell back to default hyperparameters.
pub const CTR_FIT_FALLBACKS: &str = "gp.fit_fallbacks";
/// Counter: rank-1 incremental surrogate updates (appends, no refit).
pub const CTR_INCREMENTAL_UPDATES: &str = "gp.incremental_updates";
/// Counter: full surrogate refits driven by the refit schedule
/// (scheduled, NLL-triggered, or append-failure fallback).
pub const CTR_FULL_REFITS: &str = "gp.full_refits";
/// Counter: warm-started hyperparameter fits that ran with a reduced
/// budget — fewer GP restarts because the warm start was competitive, or
/// the shorter iteration cap of an LCM refit.
pub const CTR_WARMSTART_REDUCED: &str = "gp.warmstart_reduced";
/// Counter: candidates scored by acquisition batches.
pub const CTR_ACQ_CANDIDATES: &str = "acq.candidates_scored";
/// Counter: candidates removed by failure-region exclusion.
pub const CTR_ACQ_EXCLUDED: &str = "acq.candidates_excluded";
/// Counter: history-database records scanned by queries.
pub const CTR_DB_SCANNED: &str = "db.records_scanned";
/// Counter: history-database records returned by queries.
pub const CTR_DB_RETURNED: &str = "db.records_returned";
/// Counter: history-database records withheld by access control.
pub const CTR_DB_DENIED: &str = "db.records_denied";
/// Counter: records accepted by history-database uploads.
pub const CTR_DB_UPLOADED: &str = "db.records_uploaded";
/// Counter: records rejected by history-database uploads.
pub const CTR_DB_REJECTED: &str = "db.records_rejected";
/// Counter: records skipped without examination thanks to field-index
/// pruning (collection size minus candidates examined).
pub const CTR_DB_PRUNED: &str = "db.records_pruned";
/// Counter: queries answered from the shard-level result cache without
/// touching the store.
pub const CTR_DB_CACHE_HITS: &str = "db.cache_hits";
/// Counter: cacheable queries that missed the result cache and ran a
/// real scan.
pub const CTR_DB_CACHE_MISSES: &str = "db.cache_misses";
/// Counter: failed objective evaluations observed by the tuning loop.
pub const CTR_TUNE_FAILURES: &str = "tune.failures";
/// Counter: tuner iterations executed.
pub const CTR_TUNE_ITERATIONS: &str = "tune.iterations";
/// Counter: base points generated by Saltelli designs (rows of A and B).
pub const CTR_SENS_POINTS: &str = "sens.saltelli_points";
/// Counter: model evaluations consumed by Saltelli design evaluation.
pub const CTR_SENS_EVALS: &str = "sens.model_evals";
/// Counter: bootstrap resamples drawn by Sobol index estimation.
pub const CTR_SENS_BOOTSTRAP: &str = "sens.bootstrap_resamples";
/// Counter: point→unit-cube transforms.
pub const CTR_SPACE_TO_UNIT: &str = "space.to_unit";
/// Counter: unit-cube→point transforms.
pub const CTR_SPACE_FROM_UNIT: &str = "space.from_unit";
/// Counter: unit-vector snaps to discrete cell centers.
pub const CTR_SPACE_SNAP: &str = "space.snap_unit";
/// Counter: sensitivity-driven space reductions performed.
pub const CTR_SPACE_REDUCE: &str = "space.reductions";
/// Counter: transient evaluation failures retried by the tuner.
pub const CTR_TUNE_RETRIES: &str = "tune.retries";
/// Counter: resumable tuner checkpoints persisted to a durable store.
pub const CTR_TUNE_CHECKPOINTS: &str = "tune.checkpoints";
/// Counter: tuning runs resumed from a durable checkpoint.
pub const CTR_TUNE_RESUMES: &str = "tune.resumes";
/// Counter: faults injected into simulated evaluations by a fault plan.
pub const CTR_FAULTS_INJECTED: &str = "apps.faults_injected";
/// Counter: records appended to a durable store's write-ahead log.
pub const CTR_WAL_APPENDS: &str = "db.wal_appends";
/// Counter: WAL records replayed during durable-store recovery.
pub const CTR_WAL_REPLAYED: &str = "db.wal_records_replayed";
/// Counter: WAL compactions into an atomic snapshot.
pub const CTR_WAL_COMPACTIONS: &str = "db.wal_compactions";
/// Counter: torn WAL tails detected and truncated during recovery.
pub const CTR_WAL_TORN: &str = "db.wal_torn_recoveries";
/// Counter: physical fsyncs issued by the write-ahead log.
pub const CTR_WAL_FSYNCS: &str = "db.wal_fsyncs";
/// Counter: WAL records whose durability rode on another record's fsync
/// (group commit coalescing).
pub const CTR_WAL_FSYNC_BATCHED: &str = "db.wal_fsync_batched";
/// Counter: cached query results that a coherence audit found stale
/// relative to a fresh scan at the same epoch. Must stay zero — the SLO
/// "query staleness = 0" objective watches it.
pub const CTR_DB_CACHE_STALE: &str = "db.cache_stale_serves";
/// Histogram: microseconds a grouped WAL append spent waiting for its
/// covering fsync (leader flush time for leaders, wake latency for
/// followers). Visible even when ring-buffer tracing is off.
pub const HIST_WAL_GROUP_WAIT: &str = "db.wal_group_wait_us";
/// Histogram: microseconds spent waiting for a shard's write mutex.
/// Visible even when ring-buffer tracing is off.
pub const HIST_SHARD_LOCK_WAIT: &str = "db.shard_lock_wait_us";
/// Histogram: nanoseconds spent on the query-cache hit path (epoch check
/// plus `Arc` clone), so cache hits stop reading as free.
pub const HIST_CACHE_HIT_NS: &str = "db.cache_hit_ns";
/// Counter: admission decisions taken by the overload controller (every
/// upload that reached the admission gate, admitted or not). The
/// denominator for shed/deadline rate SLOs.
pub const CTR_DB_ADMISSIONS: &str = "db.admission_total";
/// Counter: uploads shed by admission control with a typed
/// `Overloaded { retry_after }` error (never silently dropped).
pub const CTR_DB_SHED: &str = "db.shed_total";
/// Counter: degraded-shard reads answered from an epoch-stamped stale
/// cache entry, explicitly marked `ScanStats::stale_served`.
pub const CTR_DB_STALE_SERVED: &str = "db.stale_served";
/// Counter: requests that returned a typed `DeadlineExceeded` error
/// instead of holding locks past their deadline.
pub const CTR_DB_DEADLINE_EXCEEDED: &str = "db.deadline_exceeded";
/// Histogram: per-shard virtual write-queue depth sampled at every
/// admission decision.
pub const HIST_DB_QUEUE_DEPTH: &str = "db.queue_depth";
/// Counter: uploads scored by the online data-quality scorer.
pub const CTR_QUALITY_SCORED: &str = "quality.uploads_scored";
/// Counter: uploads whose standardized residual crossed the outlier
/// threshold.
pub const CTR_QUALITY_FLAGGED: &str = "quality.outliers_flagged";
/// Counter: duplicate-configuration disagreements detected.
pub const CTR_QUALITY_DUPLICATES: &str = "quality.duplicate_disagreements";
/// Counter: records moved into the observe-only quarantine-flag state.
pub const CTR_QUALITY_QUARANTINED: &str = "quality.records_quarantined";
/// Counter: held-out points scored by surrogate calibration tracking.
pub const CTR_CALIBRATION_POINTS: &str = "calibration.points_scored";
/// Counter: held-out points that fell inside the surrogate's 90%
/// predictive interval (coverage = inside / points_scored).
pub const CTR_CALIBRATION_INSIDE90: &str = "calibration.points_inside90";
/// Counter: trace records dropped by saturated per-thread rings
/// (drop-oldest), surfaced so ring saturation is visible outside the
/// load benchmark.
pub const CTR_TRACE_DROPPED: &str = "obs.trace_dropped";
/// Counter: run records ingested into the fleet-telemetry collection.
pub const CTR_TEL_RUNS: &str = "telemetry.runs_ingested";
/// Counter: fleet-telemetry queries executed.
pub const CTR_TEL_QUERIES: &str = "telemetry.queries";
/// Counter: run records withheld from telemetry queries by access control.
pub const CTR_TEL_DENIED: &str = "telemetry.records_denied";
/// Counter: surrogate-tier escalations (exact GP → sparse tier).
pub const CTR_TIER_SWITCHES: &str = "tune.tier_switches";
/// Counter: inducing-set reselections performed by the sparse surrogate
/// (the sparse analogue of a scheduled full refit).
pub const CTR_SPARSE_RESELECTIONS: &str = "gp.sparse_reselections";
