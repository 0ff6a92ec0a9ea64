//! Surrogate calibration diagnostics: is the GP's predictive distribution
//! honest about its own uncertainty?
//!
//! The tuner scores every accepted observation against the surrogate's
//! prediction *before* folding it in, so each point is held out from the
//! model that predicts it. [`CalibrationTracker`] accumulates two
//! diagnostics over that stream:
//!
//! - **90%-interval coverage** — the fraction of held-out points that fell
//!   inside the central 90% predictive interval `mean ± z₉₀·std` (where
//!   `z₉₀ ≈ 1.6449` is the standard-normal 95th percentile). A calibrated
//!   model hovers near 0.90; materially less means overconfident
//!   intervals, materially more means underconfident ones.
//! - **Predictive NLL per point** — the mean Gaussian negative
//!   log-likelihood `½ln(2πσ²) + (y−μ)²/(2σ²)` of held-out observations,
//!   the proper scoring rule the paper's surrogate fitting optimizes
//!   in-sample. Drift across snapshots signals the model degrading as the
//!   crowd's data distribution shifts.
//!
//! Everything here is observation-only: the tracker never feeds back into
//! fitting, consumes no randomness, and is only exercised from journaled
//! code paths, so enabling it cannot change tuner output.

use crate::gp::Prediction;

/// Standard-normal 95th percentile: the half-width multiplier of the
/// central 90% predictive interval.
pub const Z90: f64 = 1.6448536269514722;

/// Running calibration diagnostics over held-out predictions.
#[derive(Debug, Clone, Default)]
pub struct CalibrationTracker {
    points: u64,
    inside90: u64,
    nll_sum: f64,
    /// NLL-per-point at the previous snapshot, for drift.
    last_nll_pp: Option<f64>,
}

impl CalibrationTracker {
    /// A fresh tracker with no points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one held-out observation against the prediction the
    /// surrogate made before seeing it; returns whether the point fell
    /// inside the 90% interval. Predictions with non-finite or
    /// non-positive std are counted but contribute no NLL (they would
    /// poison the mean with infinities).
    pub fn record(&mut self, pred: &Prediction, y: f64) -> bool {
        self.points += 1;
        let resid = y - pred.mean;
        let mut inside = false;
        if pred.std.is_finite() && pred.std > 0.0 && resid.is_finite() {
            if resid.abs() <= Z90 * pred.std {
                self.inside90 += 1;
                inside = true;
            }
            let var = pred.std * pred.std;
            let nll = 0.5 * (2.0 * std::f64::consts::PI * var).ln() + resid * resid / (2.0 * var);
            if nll.is_finite() {
                self.nll_sum += nll;
            }
        }
        inside
    }

    /// Held-out points recorded so far.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Empirical 90%-interval coverage, `None` before any point.
    pub fn coverage90(&self) -> Option<f64> {
        (self.points > 0).then(|| self.inside90 as f64 / self.points as f64)
    }

    /// Mean predictive NLL per held-out point, `None` before any point.
    pub fn nll_pp(&self) -> Option<f64> {
        (self.points > 0).then(|| self.nll_sum / self.points as f64)
    }

    /// Take a snapshot: returns `(coverage90, nll_pp, drift)` where drift
    /// is the change in NLL-per-point since the previous snapshot
    /// (`None` on the first). Call this at journal-emission points so
    /// drift aligns with `calibration` events.
    pub fn snapshot(&mut self) -> (Option<f64>, Option<f64>, Option<f64>) {
        let coverage = self.coverage90();
        let nll_pp = self.nll_pp();
        let drift = match (nll_pp, self.last_nll_pp) {
            (Some(now), Some(prev)) => Some(now - prev),
            _ => None,
        };
        if nll_pp.is_some() {
            self.last_nll_pp = nll_pp;
        }
        (coverage, nll_pp, drift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(mean: f64, std: f64) -> Prediction {
        Prediction { mean, std }
    }

    #[test]
    fn coverage_counts_interval_membership() {
        let mut t = CalibrationTracker::new();
        // Exactly on the mean: inside.
        t.record(&pred(1.0, 0.5), 1.0);
        // Just inside the 90% interval.
        t.record(&pred(0.0, 1.0), Z90 - 1e-9);
        // Far outside.
        t.record(&pred(0.0, 1.0), 10.0);
        assert_eq!(t.points(), 3);
        assert_eq!(t.inside90, 2);
        assert!((t.coverage90().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nll_matches_gaussian_formula_and_drift_tracks_snapshots() {
        let mut t = CalibrationTracker::new();
        t.record(&pred(0.0, 1.0), 0.0);
        let expect = 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((t.nll_pp().unwrap() - expect).abs() < 1e-12);
        let (cov, nll, drift) = t.snapshot();
        assert_eq!(cov, Some(1.0));
        assert!((nll.unwrap() - expect).abs() < 1e-12);
        assert_eq!(drift, None, "no drift on first snapshot");
        // A badly-missed point raises NLL; drift is the delta.
        t.record(&pred(0.0, 1.0), 4.0);
        let (_, nll2, drift2) = t.snapshot();
        assert!(nll2.unwrap() > expect);
        assert!((drift2.unwrap() - (nll2.unwrap() - expect)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_std_is_counted_but_contributes_no_nll() {
        let mut t = CalibrationTracker::new();
        t.record(&pred(0.0, 0.0), 1.0);
        t.record(&pred(0.0, f64::NAN), 1.0);
        assert_eq!(t.points(), 2);
        assert_eq!(t.inside90, 0);
        assert_eq!(t.nll_pp(), Some(0.0));
    }
}
