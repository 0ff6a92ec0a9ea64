//! Retry policy and checkpoint/resume for the tuning loops.
//!
//! Two pieces of the fault model live here:
//!
//! * [`RetryPolicy`] — how the tuner reacts to a *transient* evaluation
//!   failure (worker died, walltime, corrupted upload): retry up to
//!   `max_attempts` with deterministic exponential backoff charged in
//!   *simulated* seconds (nothing sleeps; the backoff is bookkeeping the
//!   journal records, so retries never perturb wall-clock determinism).
//!   Permanent failures (OOM, invalid configurations) are recorded and
//!   excluded from the surrogate exactly as before.
//!
//! * [`TunerCheckpoint`] — a resumable snapshot of a tuning run:
//!   everything needed to reconstruct the run's full state *by
//!   deterministic replay*. Rather than serializing the surrogate's
//!   Cholesky factors and the RNG internals, the checkpoint records the
//!   evaluation history (with per-record attempt counts); resuming
//!   re-executes the proposal path — which consumes the RNG and feeds
//!   the surrogate identically to the original run — while substituting
//!   the recorded outcome for each objective call. Because every
//!   proposal is a pure function of (seed, history so far), the resumed
//!   run's state at iteration `k` is bitwise identical to the
//!   uninterrupted run's, and so is everything after it. The only
//!   contract on the caller: a stateful objective must be fast-forwarded
//!   to [`TunerCheckpoint::objective_calls`] (see
//!   `crowdtune_apps::FaultInjector::advance_to`).
//!
//! Checkpoints persist through the crowd service's blob table
//! ([`crowdtune_db::CrowdService::put_blob`]); a durable service gives
//! them the same WAL guarantees as the performance data itself.

use crate::tuner::{EvalRecord, TuneConfig};
use crowdtune_db::CrowdService;
use crowdtune_space::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How the tuner reacts to transient evaluation failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per proposal (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in simulated seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub multiplier: f64,
    /// Ceiling on any single backoff, in simulated seconds. Unbounded
    /// doubling would make a deep retry ladder charge hours of simulated
    /// wait; the cap keeps the worst case at `max_attempts ×
    /// max_backoff_s`.
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 1.0,
            multiplier: 2.0,
            max_backoff_s: 60.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-fault-model behaviour).
    pub fn never() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Deterministic backoff charged after failed attempt `attempt`
    /// (1-based), in simulated seconds, capped at `max_backoff_s`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let raw = self.base_backoff_s * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        raw.min(self.max_backoff_s)
    }
}

/// Whether an evaluation error is transient (worth retrying) or
/// permanent (record and exclude). The convention is shared with
/// `crowdtune-apps`' fault injector: transient classes announce
/// themselves with a `"transient:"` or `"timeout:"` prefix; anything
/// else — OOM, invalid configuration, application errors — is permanent.
pub fn is_transient_error(err: &str) -> bool {
    let e = err.trim_start();
    e.starts_with("transient:") || e.starts_with("timeout:")
}

/// One recorded evaluation inside a checkpoint. Mirrors
/// [`EvalRecord`] in a serialization-friendly shape; `value`/`error`
/// split the `Result` so the JSON stays flat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// The evaluated configuration (space values).
    pub point: Vec<Value>,
    /// The configuration in (snapped) unit-cube coordinates.
    pub unit: Vec<f64>,
    /// Successful objective value, if any.
    pub value: Option<f64>,
    /// Failure reason, if the evaluation failed.
    pub error: Option<String>,
    /// Which algorithm proposed the configuration.
    pub proposed_by: String,
    /// Objective attempts consumed (1 + retries).
    pub attempts: u32,
}

impl CheckpointRecord {
    /// Capture an [`EvalRecord`].
    fn from_eval(rec: &EvalRecord) -> Self {
        CheckpointRecord {
            point: rec.point.clone(),
            unit: rec.unit.clone(),
            value: rec.result.as_ref().ok().copied(),
            error: rec.result.as_ref().err().cloned(),
            proposed_by: rec.proposed_by.clone(),
            attempts: rec.attempts,
        }
    }

    /// Rebuild the [`EvalRecord`] this checkpoint record captured.
    pub fn to_eval(&self) -> EvalRecord {
        EvalRecord {
            point: self.point.clone(),
            unit: self.unit.clone(),
            result: match (&self.value, &self.error) {
                (Some(y), _) => Ok(*y),
                (None, Some(e)) => Err(e.clone()),
                (None, None) => Err("checkpoint record carried no outcome".to_string()),
            },
            proposed_by: self.proposed_by.clone(),
            attempts: self.attempts,
        }
    }
}

/// A resumable snapshot of a tuning run, taken every `k` iterations and
/// persisted through the durable store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerCheckpoint {
    /// Checkpoint schema version.
    pub version: u32,
    /// Tuner/strategy name the run was started with (resume validates
    /// it to catch resuming the wrong run).
    pub tuner: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Evaluation budget of the run.
    pub budget: usize,
    /// Initial space-filling samples configured.
    pub n_init: usize,
    /// Search-space dimensionality.
    pub dim: usize,
    /// Iterations completed at capture time (= `history.len()`).
    pub iter: usize,
    /// Evaluation history up to `iter`.
    pub history: Vec<CheckpointRecord>,
}

impl TunerCheckpoint {
    /// Current schema version.
    pub const VERSION: u32 = 1;

    /// Capture a checkpoint from a run in progress.
    pub fn capture(tuner: &str, dim: usize, config: &TuneConfig, history: &[EvalRecord]) -> Self {
        TunerCheckpoint {
            version: Self::VERSION,
            tuner: tuner.to_string(),
            seed: config.seed,
            budget: config.budget,
            n_init: config.n_init,
            dim,
            iter: history.len(),
            history: history.iter().map(CheckpointRecord::from_eval).collect(),
        }
    }

    /// Total objective calls the run had made at capture time (retries
    /// included) — what a stateful objective must be fast-forwarded to
    /// before resuming.
    pub fn objective_calls(&self) -> u64 {
        self.history.iter().map(|r| r.attempts as u64).sum()
    }

    /// Serialize for blob storage.
    pub fn to_json(&self) -> Result<String, ResumeError> {
        serde_json::to_string(self).map_err(|e| ResumeError::Corrupt(e.to_string()))
    }

    /// Parse a checkpoint from blob storage.
    pub fn from_json(json: &str) -> Result<Self, ResumeError> {
        let ckpt: TunerCheckpoint =
            serde_json::from_str(json).map_err(|e| ResumeError::Corrupt(e.to_string()))?;
        if ckpt.version != Self::VERSION {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint version {} (this build reads {})",
                ckpt.version,
                Self::VERSION
            )));
        }
        if ckpt.history.len() != ckpt.iter {
            return Err(ResumeError::Corrupt(format!(
                "checkpoint claims {} iterations but carries {} records",
                ckpt.iter,
                ckpt.history.len()
            )));
        }
        Ok(ckpt)
    }

    /// Load the checkpoint stored under `key` in a crowd service.
    /// `Ok(None)` when no checkpoint exists yet.
    pub fn load(store: &CrowdService, key: &str) -> Result<Option<Self>, ResumeError> {
        match store.get_blob(key) {
            Some(json) => Self::from_json(&json).map(Some),
            None => Ok(None),
        }
    }

    /// Validate this checkpoint against the config and space a resume
    /// was asked to run with.
    pub fn validate(
        &self,
        tuner: &str,
        dim: usize,
        config: &TuneConfig,
    ) -> Result<(), ResumeError> {
        if self.tuner != tuner {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint was taken by tuner '{}', resume requested '{tuner}'",
                self.tuner
            )));
        }
        if self.seed != config.seed {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint seed {} != config seed {}",
                self.seed, config.seed
            )));
        }
        if self.n_init != config.n_init {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint n_init {} != config n_init {}",
                self.n_init, config.n_init
            )));
        }
        if self.dim != dim {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint dim {} != space dim {dim}",
                self.dim
            )));
        }
        if self.iter > config.budget {
            return Err(ResumeError::Incompatible(format!(
                "checkpoint already covers {} iterations, budget is {}",
                self.iter, config.budget
            )));
        }
        Ok(())
    }
}

/// Why a resume was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The checkpoint does not match the requested run (different
    /// tuner, seed, space, or an exhausted budget).
    Incompatible(String),
    /// The checkpoint blob failed to parse or is internally
    /// inconsistent.
    Corrupt(String),
    /// The durable store rejected the read/write.
    Store(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Incompatible(why) => write!(f, "checkpoint incompatible: {why}"),
            ResumeError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            ResumeError::Store(why) => write!(f, "checkpoint store error: {why}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Periodic checkpointing configuration carried inside [`TuneConfig`].
#[derive(Clone)]
pub struct Checkpointing {
    /// Persist a checkpoint after every `every` iterations (0 disables).
    pub every: usize,
    /// Blob key the checkpoint is stored under.
    pub key: String,
    /// The service checkpoints persist through (durable to survive a
    /// crash).
    pub store: Arc<CrowdService>,
}

impl Checkpointing {
    /// Checkpoint to `store` under `key` every `every` iterations.
    pub fn new(store: Arc<CrowdService>, key: impl Into<String>, every: usize) -> Self {
        Checkpointing {
            every,
            key: key.into(),
            store,
        }
    }
}

impl fmt::Debug for Checkpointing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpointing")
            .field("every", &self.every)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_follows_prefix_convention() {
        assert!(is_transient_error("transient: node died"));
        assert!(is_transient_error("timeout: walltime exceeded"));
        assert!(is_transient_error("  transient: leading space"));
        assert!(!is_transient_error("out of memory"));
        assert!(!is_transient_error("invalid configuration: grid"));
        assert!(!is_transient_error("transiently odd")); // no colon prefix
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(1), 1.0);
        assert_eq!(p.backoff_s(2), 2.0);
        assert_eq!(p.backoff_s(3), 4.0);
        assert_eq!(RetryPolicy::never().max_attempts, 1);
    }

    #[test]
    fn backoff_is_capped_and_total_wait_is_bounded() {
        let p = RetryPolicy {
            max_attempts: 20,
            base_backoff_s: 1.0,
            multiplier: 2.0,
            max_backoff_s: 8.0,
        };
        // Unbounded doubling would hit 2^19 s by attempt 20; the cap
        // pins every rung.
        assert_eq!(p.backoff_s(4), 8.0);
        assert_eq!(p.backoff_s(20), 8.0);
        // Total simulated backoff for k attempts stays under k × cap.
        for k in [3u32, 10, 20] {
            let total: f64 = (1..=k).map(|a| p.backoff_s(a)).sum();
            assert!(total <= f64::from(k) * p.max_backoff_s);
        }
    }

    #[test]
    fn checkpoint_json_roundtrip_is_bitwise() {
        let ckpt = TunerCheckpoint {
            version: TunerCheckpoint::VERSION,
            tuner: "NoTLA".into(),
            seed: 42,
            budget: 30,
            n_init: 2,
            dim: 1,
            iter: 2,
            history: vec![
                CheckpointRecord {
                    point: vec![Value::Real(0.437_500_000_000_001)],
                    unit: vec![0.437_500_000_000_001],
                    value: Some(3.004_999_999_999_3),
                    error: None,
                    proposed_by: "LHS-init".into(),
                    attempts: 1,
                },
                CheckpointRecord {
                    point: vec![Value::Real(0.9)],
                    unit: vec![0.9],
                    value: None,
                    error: Some("out of memory".into()),
                    proposed_by: "NoTLA".into(),
                    attempts: 3,
                },
            ],
        };
        let json = ckpt.to_json().unwrap();
        let back = TunerCheckpoint::from_json(&json).unwrap();
        assert_eq!(back, ckpt);
        // f64 payloads survive the text round trip bit-for-bit.
        match (&back.history[0].point[0], &ckpt.history[0].point[0]) {
            (Value::Real(a), Value::Real(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            _ => unreachable!(),
        }
        assert_eq!(back.objective_calls(), 4);
    }

    #[test]
    fn validation_catches_mismatches() {
        let config = TuneConfig {
            budget: 10,
            seed: 1,
            ..TuneConfig::default()
        };
        let ckpt = TunerCheckpoint::capture("NoTLA", 1, &config, &[]);
        assert!(ckpt.validate("NoTLA", 1, &config).is_ok());
        assert!(matches!(
            ckpt.validate("Stacking", 1, &config),
            Err(ResumeError::Incompatible(_))
        ));
        assert!(matches!(
            ckpt.validate("NoTLA", 2, &config),
            Err(ResumeError::Incompatible(_))
        ));
        let other = TuneConfig {
            seed: 2,
            ..config.clone()
        };
        assert!(matches!(
            ckpt.validate("NoTLA", 1, &other),
            Err(ResumeError::Incompatible(_))
        ));
    }

    #[test]
    fn version_and_shape_are_checked_on_parse() {
        let config = TuneConfig::default();
        let mut ckpt = TunerCheckpoint::capture("NoTLA", 1, &config, &[]);
        ckpt.version = 999;
        let json = serde_json::to_string(&ckpt).unwrap();
        assert!(matches!(
            TunerCheckpoint::from_json(&json),
            Err(ResumeError::Incompatible(_))
        ));
        let mut ckpt = TunerCheckpoint::capture("NoTLA", 1, &config, &[]);
        ckpt.iter = 5; // claims more than it carries
        let json = serde_json::to_string(&ckpt).unwrap();
        assert!(matches!(
            TunerCheckpoint::from_json(&json),
            Err(ResumeError::Corrupt(_))
        ));
        assert!(matches!(
            TunerCheckpoint::from_json("{not json"),
            Err(ResumeError::Corrupt(_))
        ));
    }
}
