//! Per-tuning-run JSONL event journal.
//!
//! A [`Journal`] appends one JSON object per line to a file; each line is an
//! internally-tagged [`Event`] (`"event": "<kind>"`). A journal is installed
//! process-wide with [`install_journal`]; instrumentation sites emit through
//! [`record_with`], which costs a single relaxed load while no journal is
//! installed (the event closure is not even evaluated). Journals are read
//! back and schema-checked with [`read_journal`]: every line must parse as
//! JSON *and* deserialize into a known [`Event`] variant.
//!
//! Fields that may be numerically undefined mid-run (best-so-far before the
//! first success, the NLL of a failed fit) are `Option<f64>` and serialize
//! as `null`; wrap raw floats with [`finite`] at emission sites so a NaN/∞
//! can never produce a line that fails its own schema check.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

/// One typed journal entry. The serialized form is internally tagged:
/// `{"event": "fit", ...}`, with variant names lowercased.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "lowercase")]
pub enum Event {
    /// A tuning run began.
    RunStart {
        /// Free-form run label (scenario/seed), used to correlate journals.
        run: String,
        /// Tuner/strategy name (e.g. `notla`, `ensemble-proposed`).
        tuner: String,
        /// Search-space dimensionality.
        dim: u64,
        /// Total evaluation budget.
        budget: u64,
        /// RNG seed.
        seed: u64,
    },
    /// One tuner iteration: a candidate was chosen and evaluated.
    Iteration {
        /// Zero-based iteration index within the run.
        iter: u64,
        /// Evaluated point in unit-cube coordinates.
        point: Vec<f64>,
        /// Objective value, `null` when the evaluation failed.
        value: Option<f64>,
        /// Whether the evaluation succeeded.
        ok: bool,
        /// Which proposer produced the candidate.
        proposed_by: String,
        /// Best successful objective value so far, `null` before the first.
        best: Option<f64>,
        /// Wall-clock microseconds spent on this iteration.
        duration_us: u64,
    },
    /// A surrogate model was fitted.
    Fit {
        /// Model kind (`gp` or `lcm`).
        model: String,
        /// Number of training points.
        points: u64,
        /// Number of optimizer restarts attempted.
        restarts: u64,
        /// Best negative log marginal likelihood, `null` if no start
        /// converged and a fallback was used.
        nll: Option<f64>,
        /// Wall-clock microseconds spent fitting.
        duration_us: u64,
        /// Whether the fit failed (no start converged), forcing the caller
        /// onto its fallback path.
        fallback: bool,
    },
    /// One multistart restart of the hyperparameter optimizer.
    Restart {
        /// Start index within the multistart batch.
        index: u64,
        /// Final objective (NLL) of this start, `null` if non-finite.
        nll: Option<f64>,
        /// L-BFGS iterations consumed.
        iterations: u64,
        /// Stop reason reported by the optimizer.
        stop: String,
    },
    /// An acquisition-scoring batch completed.
    Acquisition {
        /// Acquisition kind (`ei`, `lcb`, …).
        kind: String,
        /// Number of candidates scored.
        candidates: u64,
        /// Best acquisition score in the batch, `null` if non-finite.
        best_score: Option<f64>,
        /// Wall-clock microseconds spent scoring.
        duration_us: u64,
    },
    /// A Cholesky factorization needed jitter escalation to succeed.
    Jitter {
        /// Matrix dimension.
        dim: u64,
        /// Final diagonal jitter applied (0 if the recovery failed).
        jitter: f64,
        /// Number of factorization attempts (1 = clean, >1 = escalated).
        attempts: u64,
        /// Whether a factorization was eventually obtained.
        recovered: bool,
    },
    /// An L-BFGS Wolfe line search failed to find an acceptable step.
    LineSearch {
        /// Optimizer iteration at which the line search failed.
        iteration: u64,
    },
    /// Failed configurations were excluded from an acquisition pool.
    Exclusion {
        /// Number of known failed points driving the exclusion.
        failed: u64,
        /// Candidates removed from the pool.
        removed: u64,
        /// Pool size after exclusion.
        pool: u64,
    },
    /// Per-iteration ensemble/weighted-sum member weights.
    Weights {
        /// Strategy emitting the weights.
        strategy: String,
        /// One weight (or selection probability) per member, member order.
        weights: Vec<f64>,
        /// Member chosen this iteration (empty if not a selection policy).
        chosen: String,
    },
    /// A history-database query completed.
    DbQuery {
        /// Query description (problem name or filter summary).
        query: String,
        /// Records scanned before filtering.
        scanned: u64,
        /// Records returned after filtering.
        returned: u64,
        /// Records withheld by access control.
        denied: u64,
        /// Results served from the shard query cache (0 on the embedded
        /// store path or with caching disabled).
        #[serde(default)]
        cache_hits: u64,
        /// Cacheable lookups that missed the query cache.
        #[serde(default)]
        cache_misses: u64,
        /// Results served as epoch-stamped stale cache entries by a
        /// degraded shard (0 on journals predating overload control).
        #[serde(default)]
        stale_served: u64,
        /// Wall-clock microseconds spent in the query.
        duration_us: u64,
    },
    /// Evaluation records were uploaded to the history database.
    Upload {
        /// Records accepted.
        accepted: u64,
        /// Records rejected (auth/validation).
        rejected: u64,
        /// Contributor the accepted records belong to (empty when the
        /// upload was rejected before authentication, or on journals
        /// predating provenance).
        #[serde(default)]
        contributor: String,
        /// Upload batch id stamped into the records' provenance (0 on
        /// journals predating provenance).
        #[serde(default)]
        batch: u64,
        /// Wall-clock microseconds spent uploading.
        duration_us: u64,
    },
    /// A Saltelli design was generated for Sobol sensitivity analysis.
    Saltelli {
        /// Input dimensionality of the design.
        dim: u64,
        /// Base sample count `N`.
        n: u64,
        /// Model evaluations the design requires (`n * (dim + 2)`).
        total_evals: u64,
        /// Base-point scheme (`sobol` quasi-random or `rng` fallback).
        scheme: String,
        /// Wall-clock microseconds spent generating the design.
        duration_us: u64,
    },
    /// Sobol sensitivity indices were estimated from Saltelli evaluations.
    Sobol {
        /// Number of input parameters analyzed.
        dim: u64,
        /// Base sample count the estimators ran on.
        n: u64,
        /// Bootstrap resamples drawn for confidence intervals.
        bootstrap: u64,
        /// Variance of the pooled base evaluations, `null` if non-finite.
        variance: Option<f64>,
        /// Wall-clock microseconds spent estimating.
        duration_us: u64,
    },
    /// A search space was reduced after sensitivity analysis.
    SpaceReduce {
        /// Dimensionality of the full space.
        full_dim: u64,
        /// Parameters kept tunable.
        kept: u64,
        /// Parameters pinned to fixed values.
        fixed: u64,
    },
    /// Collapsed-stack span profile of a finished run: each key is a
    /// `;`-joined span path rooted at the run span, each value the total
    /// nanoseconds spent with exactly that stack open.
    Profile {
        /// Folded stack path → total nanoseconds.
        folded: BTreeMap<String, u64>,
    },
    /// An incremental surrogate decided between a cheap rank-1 append
    /// and a scheduled/triggered full refit.
    Refit {
        /// Surrogate model ("gp" or "lcm").
        model: String,
        /// Training points after this observation.
        points: u64,
        /// Why this path was taken: "append", "schedule", "nll",
        /// or "fallback" (append failed, forced full rebuild).
        reason: String,
        /// `true` when a full refit ran, `false` for a rank-1 append.
        full: bool,
        /// Incremental updates absorbed since the last full refit.
        updates_since_full: u64,
        /// Per-point NLL under the current hyperparameters, `null` if
        /// non-finite.
        nll_per_point: Option<f64>,
    },
    /// A hyperparameter fit seeded L-BFGS from the previous optimum.
    Warmstart {
        /// Surrogate model ("gp" or "lcm").
        model: String,
        /// NLL of the warm start before optimization, `null` if
        /// non-finite.
        warm_nll: Option<f64>,
        /// NLL of the multi-start winner, `null` if non-finite.
        best_nll: Option<f64>,
        /// Restarts actually run (reduced when the warm start was
        /// competitive on the previous fit).
        restarts: u64,
        /// `true` when the fit ran with a reduced restart count (GP) or
        /// iteration cap (LCM).
        reduced: bool,
        /// L-BFGS iterations of the winning run, `null` when not
        /// reported (GP refits journal theirs in `restart` events).
        #[serde(default)]
        iterations: Option<u64>,
    },
    /// A transient evaluation failure was retried by the tuner's retry
    /// policy instead of being recorded as permanent.
    Retry {
        /// Zero-based tuner iteration the retried evaluation belongs to.
        iter: u64,
        /// Attempt number that just failed (1 = first try).
        attempt: u64,
        /// Deterministic backoff charged before the next attempt, in
        /// simulated seconds (no wall-clock sleep is performed).
        backoff_s: f64,
        /// The transient error message.
        error: String,
    },
    /// A fault-injection plan perturbed a simulated evaluation.
    FaultInject {
        /// Zero-based objective-call index the fault was injected at.
        index: u64,
        /// Fault class (`transient`, `timeout`, `noise`, `corrupt`).
        kind: String,
        /// Human-readable description of the injected fault.
        detail: String,
        /// Document id the perturbed value was (or is about to be)
        /// stored under, when the caller uploads evaluations to the
        /// history database — 0 when unknown, so quality scoring can be
        /// validated against injected ground truth.
        #[serde(default)]
        doc: u64,
    },
    /// The tuner persisted a resumable checkpoint to the durable store.
    Checkpoint {
        /// Iterations completed at the time of the checkpoint.
        iter: u64,
        /// Serialized checkpoint size in bytes.
        bytes: u64,
        /// Blob key the checkpoint was stored under.
        key: String,
    },
    /// Durable state was recovered after a crash: a WAL replay on store
    /// startup, or a tuning run resumed from a checkpoint.
    Recovery {
        /// What recovered: `"wal"` (store startup) or `"checkpoint"`
        /// (tuner resume).
        source: String,
        /// Documents live after recovery (WAL) or history records
        /// restored (checkpoint).
        docs: u64,
        /// WAL records replayed on top of the snapshot (0 for checkpoint
        /// resumes).
        records: u64,
        /// Whether a torn tail was detected and truncated.
        torn: bool,
        /// Iteration the run resumed from, `null` for store recoveries.
        resumed_iter: Option<u64>,
    },
    /// An upload was scored against the current surrogate's predictive
    /// distribution by the online data-quality scorer (observe-only:
    /// scoring never changes what the surrogate fits).
    QualityScore {
        /// Zero-based tuner iteration (or upload sequence number) the
        /// scored observation belongs to.
        iter: u64,
        /// Document id of the scored upload, 0 when not database-backed.
        doc: u64,
        /// Contributor the observation is attributed to.
        contributor: String,
        /// Raw residual `y − μ(x)` against the surrogate's predictive
        /// mean, `null` when no surrogate was available yet.
        residual: Option<f64>,
        /// Standardized residual magnitude `|y − μ(x)| / σ(x)`, `null`
        /// when no surrogate was available yet.
        score: Option<f64>,
        /// Whether the online score crossed the outlier threshold.
        flagged: bool,
        /// Whether this configuration was already observed with a
        /// materially different objective value (duplicate-config
        /// disagreement).
        duplicate: bool,
    },
    /// A record's quarantine flag changed state. In this PR the
    /// lifecycle is observe-only: `flagged` records are marked and
    /// reported but still fitted, so tuner output is bitwise unchanged.
    Quarantine {
        /// Zero-based iteration (or upload sequence number) of the
        /// quarantined observation.
        iter: u64,
        /// Document id of the quarantined record, 0 when not
        /// database-backed.
        doc: u64,
        /// Contributor the record is attributed to.
        contributor: String,
        /// Why the record was flagged (`outlier`, `duplicate`,
        /// `sweep-outlier`).
        reason: String,
        /// Lifecycle state: `flagged` (this PR) — later PRs may add
        /// `quarantined`/`cleared` once enforcement lands.
        state: String,
    },
    /// Surrogate calibration diagnostics: predictive-interval coverage
    /// and NLL-per-point drift, sampled from the tuner loop.
    Calibration {
        /// Surrogate model ("gp" or "lcm").
        model: String,
        /// Held-out predictions scored so far (each observation is
        /// predicted before it is absorbed, so every point is held out).
        points: u64,
        /// Fraction of held-out observations inside the surrogate's 90%
        /// predictive interval, `null` before the first prediction.
        coverage90: Option<f64>,
        /// Mean predictive NLL per held-out point (y units), `null`
        /// before the first prediction.
        nll_pp: Option<f64>,
        /// Change in predictive NLL-per-point since the previous
        /// calibration event, `null` on the first.
        drift: Option<f64>,
        /// Best successful objective so far (simple-regret/convergence
        /// telemetry), `null` before the first success.
        best: Option<f64>,
    },
    /// The tuner escalated (or rebuilt) its surrogate tier: the exact GP
    /// was swapped for a crowd-scale sparse surrogate once the history
    /// crossed the configured size threshold.
    TierSwitch {
        /// Tier before the switch (`"exact"` or `"sparse"`).
        from: String,
        /// Tier after the switch (`"sparse"`).
        to: String,
        /// Observations held when the switch fired.
        points: u64,
        /// Size threshold that triggered the escalation.
        threshold: u64,
        /// Inducing points the sparse tier was built with.
        inducing: u64,
    },
    /// Admission control shed a request with a typed `Overloaded` error
    /// (never silently dropped, never acked-then-lost).
    Shed {
        /// Operation kind that was shed (`"upload"`, `"query"`, …).
        op: String,
        /// Shard the request targeted.
        shard: u64,
        /// Why the request was shed (`"queue_full"`, `"inflight_budget"`,
        /// `"shedding"`, or `"deadline"`).
        reason: String,
        /// Suggested client backoff carried in the typed error, ms.
        retry_after_ms: u64,
        /// Virtual write-queue depth at the shed decision.
        queue_depth: u64,
    },
    /// A shard's health state machine transitioned (hysteresis on queue
    /// depth and fsync latency): Healthy → Degraded → Shedding and back.
    Health {
        /// Shard whose health changed.
        shard: u64,
        /// State before the transition (`"healthy"`, `"degraded"`,
        /// `"shedding"`).
        from: String,
        /// State after the transition.
        to: String,
        /// Queue depth observed at the transition.
        queue_depth: u64,
    },
    /// A tuning run finished.
    RunEnd {
        /// Iterations executed.
        iterations: u64,
        /// Failed evaluations.
        failures: u64,
        /// Best successful objective value, `null` if every evaluation
        /// failed.
        best: Option<f64>,
        /// Wall-clock microseconds for the whole run.
        duration_us: u64,
    },
}

impl Event {
    /// The serialized tag of this event (`"fit"`, `"jitter"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "runstart",
            Event::Iteration { .. } => "iteration",
            Event::Fit { .. } => "fit",
            Event::Restart { .. } => "restart",
            Event::Acquisition { .. } => "acquisition",
            Event::Jitter { .. } => "jitter",
            Event::LineSearch { .. } => "linesearch",
            Event::Exclusion { .. } => "exclusion",
            Event::Weights { .. } => "weights",
            Event::DbQuery { .. } => "dbquery",
            Event::Upload { .. } => "upload",
            Event::Saltelli { .. } => "saltelli",
            Event::Sobol { .. } => "sobol",
            Event::SpaceReduce { .. } => "spacereduce",
            Event::Profile { .. } => "profile",
            Event::Refit { .. } => "refit",
            Event::Warmstart { .. } => "warmstart",
            Event::Retry { .. } => "retry",
            Event::FaultInject { .. } => "faultinject",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Recovery { .. } => "recovery",
            Event::QualityScore { .. } => "qualityscore",
            Event::Quarantine { .. } => "quarantine",
            Event::Calibration { .. } => "calibration",
            Event::TierSwitch { .. } => "tierswitch",
            Event::Shed { .. } => "shed",
            Event::Health { .. } => "health",
            Event::RunEnd { .. } => "runend",
        }
    }
}

/// Maps a raw float to `Some` only when finite, so optional numeric journal
/// fields never serialize NaN/∞ (which JSON cannot represent).
pub fn finite(v: f64) -> Option<f64> {
    if v.is_finite() {
        Some(v)
    } else {
        None
    }
}

/// An append-only JSONL sink. Writes are serialized through an internal
/// mutex, so one journal may be shared by concurrent recorders.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    lines: AtomicU64,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("lines", &self.lines.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Creates (truncating) a journal file at `path`, creating parent
    /// directories as needed.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        Ok(Journal {
            path,
            writer: Mutex::new(BufWriter::new(file)),
            lines: AtomicU64::new(0),
        })
    }

    /// Path the journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events written so far.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Appends one event as a JSON line.
    pub fn record(&self, ev: &Event) -> std::io::Result<()> {
        let line = serde_json::to_string(ev)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut w = self.writer.lock();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        self.lines.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.writer.lock().flush();
    }
}

static JOURNAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static JOURNAL: OnceLock<RwLock<Option<Arc<Journal>>>> = OnceLock::new();

fn journal_slot() -> &'static RwLock<Option<Arc<Journal>>> {
    JOURNAL.get_or_init(|| RwLock::new(None))
}

/// Returns whether a journal is installed (one relaxed load).
#[inline]
pub fn journal_active() -> bool {
    JOURNAL_ACTIVE.load(Ordering::Relaxed)
}

/// Installs `journal` as the process-wide event sink, replacing (and
/// returning) any previous one.
pub fn install_journal(journal: Arc<Journal>) -> Option<Arc<Journal>> {
    let prev = journal_slot().write().replace(journal);
    JOURNAL_ACTIVE.store(true, Ordering::Relaxed);
    prev
}

/// Removes and returns the installed journal, if any.
pub fn uninstall_journal() -> Option<Arc<Journal>> {
    JOURNAL_ACTIVE.store(false, Ordering::Relaxed);
    journal_slot().write().take()
}

/// Path of the installed journal, if any.
pub fn journal_path() -> Option<PathBuf> {
    journal_slot()
        .read()
        .as_ref()
        .map(|j| j.path().to_path_buf())
}

/// Flushes the installed journal, if any.
pub fn journal_flush() {
    if let Some(j) = journal_slot().read().as_ref() {
        let _ = j.flush();
    }
}

/// Records the event produced by `build` into the installed journal. While
/// no journal is installed this is a single relaxed load and `build` is not
/// evaluated. Write errors are counted (`obs.journal_errors`) but never
/// propagate — observability must not fail the run being observed.
#[inline]
pub fn record_with<F: FnOnce() -> Event>(build: F) {
    if !journal_active() {
        return;
    }
    let journal = journal_slot().read().as_ref().cloned();
    if let Some(j) = journal {
        if j.record(&build()).is_err() {
            crate::metrics::count("obs.journal_errors", 1);
        }
    }
}

/// Error returned by [`read_journal`].
#[derive(Debug)]
pub enum JournalError {
    /// The journal file could not be read.
    Io(std::io::Error),
    /// A line failed to parse or schema-check.
    Schema {
        /// One-based line number of the offending line.
        line: usize,
        /// Parser/deserializer message.
        message: String,
    },
    /// The file's final line is not newline-terminated. [`Journal::record`]
    /// always appends a trailing `\n`, so a missing one means the last
    /// record was cut mid-write (crash, full disk, partial copy) — even if
    /// the fragment happens to parse as JSON.
    Truncated {
        /// One-based line number of the truncated record.
        line: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Schema { line, message } => {
                write!(f, "journal schema violation at line {line}: {message}")
            }
            JournalError::Truncated { line } => {
                write!(
                    f,
                    "journal truncated at line {line}: last record is not \
                     newline-terminated (partial write?)"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Reads a JSONL journal back, schema-checking every line: each must be
/// valid JSON *and* deserialize into a known [`Event`] variant. Blank lines
/// are rejected (a truncated write is a violation, not noise), and a final
/// line with no trailing newline is reported as [`JournalError::Truncated`]
/// rather than parsed — [`Journal::record`] always terminates records, so
/// an unterminated tail is a cut-off write even when the fragment still
/// looks like JSON.
pub fn read_journal<P: AsRef<Path>>(path: P) -> Result<Vec<Event>, JournalError> {
    let data = std::fs::read_to_string(path.as_ref())?;
    let mut events = Vec::new();
    let mut rest = data.as_str();
    let mut lineno = 0usize;
    while !rest.is_empty() {
        lineno += 1;
        let line = match rest.find('\n') {
            Some(i) => {
                let line = &rest[..i];
                rest = &rest[i + 1..];
                line
            }
            None => return Err(JournalError::Truncated { line: lineno }),
        };
        let ev: Event = serde_json::from_str(line).map_err(|e| JournalError::Schema {
            line: lineno,
            message: e.to_string(),
        })?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_filters_non_finite() {
        assert_eq!(finite(1.5), Some(1.5));
        assert_eq!(finite(f64::NAN), None);
        assert_eq!(finite(f64::INFINITY), None);
    }

    #[test]
    fn record_with_is_inert_without_journal() {
        let _ = uninstall_journal();
        let mut built = false;
        record_with(|| {
            built = true;
            Event::LineSearch { iteration: 0 }
        });
        assert!(!built, "event closure must not run without a journal");
    }
}
