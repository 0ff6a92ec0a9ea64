//! Amortized surrogate maintenance for the BO iteration loop.
//!
//! Each tuner iteration adds exactly one observation, yet a from-scratch
//! refit pays the full O(n³) factorization plus a multi-start L-BFGS
//! every time. [`IncrementalGp`] splits that cost:
//!
//! - most iterations absorb the new point with a rank-1 Cholesky append
//!   ([`Gp::update`], O(n²)) under frozen hyperparameters;
//! - a [`RefitSchedule`] decides when to pay for a genuine refit — every
//!   `every` updates, or earlier when the frozen model's per-point NLL
//!   degrades past a threshold;
//! - full refits warm-start L-BFGS from the previous θ and run no random
//!   restarts while the warm start keeps proving competitive (its
//!   per-point NLL within `WARM_TOLERANCE` of the fresh optimum). The
//!   reduction decision is computed from NLL values, never from timing or
//!   thread count, so fixed-seed runs stay deterministic at any
//!   parallelism.
//!
//! Every decision is journaled through `crowdtune-obs` as `refit` /
//! `warmstart` events.

use crowdtune_obs as obs;
use rand::Rng;

use crate::gp::{Gp, GpConfig, GpError, NoiseModel, Prediction};

/// When the incremental surrogate pays for a full refit.
#[derive(Debug, Clone)]
pub struct RefitSchedule {
    /// Full refit after this many incremental updates (0 = never by
    /// count; the NLL trigger still applies).
    pub every: usize,
    /// Warmup floor: refit on every observation while the training set
    /// holds at most this many points. Early θ estimates change fast
    /// with each point, and the O(n³) rebuild is cheap at small n.
    pub min_points: usize,
    /// Full refit when the frozen-θ per-point NLL exceeds its value at
    /// the last full refit by more than this (raw-y units).
    pub nll_degradation: f64,
}

/// The warm start counts as competitive when the previous model's
/// per-point NLL is within this of the fresh multi-start optimum; the
/// next refit then runs no random restarts.
const WARM_TOLERANCE: f64 = 0.1;

impl Default for RefitSchedule {
    fn default() -> Self {
        RefitSchedule {
            every: 16,
            min_points: 16,
            nll_degradation: 1.0,
        }
    }
}

/// A GP surrogate maintained across `observe` calls: rank-1 appends
/// between scheduled full refits, warm-started hyperparameter fits.
#[derive(Debug, Clone)]
pub struct IncrementalGp {
    config: GpConfig,
    schedule: RefitSchedule,
    gp: Option<Gp>,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    updates_since_full: usize,
    /// Per-point raw NLL right after the last full refit.
    nll_pp_at_refit: f64,
    /// Winner θ of the last full refit, the next warm start.
    prev_theta: Option<Vec<f64>>,
    /// Whether the next refit runs with no random restarts.
    next_reduced: bool,
}

impl IncrementalGp {
    /// An empty incremental surrogate; the first `observe` triggers the
    /// initial full fit.
    pub fn new(config: GpConfig, schedule: RefitSchedule) -> Self {
        IncrementalGp {
            config,
            schedule,
            gp: None,
            x: Vec::new(),
            y: Vec::new(),
            updates_since_full: 0,
            nll_pp_at_refit: f64::INFINITY,
            prev_theta: None,
            next_reduced: false,
        }
    }

    /// Absorb one observation, appending when the schedule allows and
    /// refitting when it demands.
    pub fn observe<R: Rng>(&mut self, xnew: &[f64], ynew: f64, rng: &mut R) -> Result<(), GpError> {
        self.x.push(xnew.to_vec());
        self.y.push(ynew);
        if self.gp.is_none() || self.x.len() <= self.schedule.min_points {
            return self.full_refit(rng, "schedule");
        }
        let gp = self.gp.as_mut().expect("checked above");
        if gp.update(xnew, ynew).is_err() {
            // Append numerically failed (near-duplicate point past the
            // jitter ladder): rebuild everything at fresh θ.
            return self.full_refit(rng, "fallback");
        }
        self.updates_since_full += 1;
        let n = gp.len() as f64;
        let nll_pp = gp.nll_raw() / n;
        if self.schedule.every > 0 && self.updates_since_full >= self.schedule.every {
            return self.full_refit(rng, "schedule");
        }
        if nll_pp - self.nll_pp_at_refit > self.schedule.nll_degradation {
            return self.full_refit(rng, "nll");
        }
        obs::count(obs::names::CTR_INCREMENTAL_UPDATES, 1);
        obs::record_with(|| obs::Event::Refit {
            model: "gp".to_string(),
            points: self.x.len() as u64,
            reason: "append".to_string(),
            full: false,
            updates_since_full: self.updates_since_full as u64,
            nll_per_point: obs::finite(nll_pp),
        });
        Ok(())
    }

    fn full_refit<R: Rng>(&mut self, rng: &mut R, reason: &str) -> Result<(), GpError> {
        let fixed_noise = matches!(self.config.noise, NoiseModel::Fixed(_));
        let warm_nll_pp = self.gp.as_ref().map(|g| g.nll_raw() / g.len() as f64);
        let reduced = self.next_reduced && self.prev_theta.is_some();
        let mut config = self.config.clone();
        if reduced {
            config.restarts = 0;
        }
        let warm: Vec<Vec<f64>> = self.prev_theta.iter().cloned().collect();
        let gp = match Gp::fit_with_starts(&self.x, &self.y, &config, rng, &warm) {
            Ok(gp) => gp,
            Err(e) => {
                // Keep the invariant that a stored GP always covers every
                // observed point: drop the stale model so the next observe
                // rebuilds from scratch instead of appending onto it.
                self.gp = None;
                self.updates_since_full = 0;
                return Err(e);
            }
        };
        let n = gp.len() as f64;
        let best_nll_pp = gp.nll_raw() / n;
        if !warm.is_empty() {
            if reduced {
                obs::count(obs::names::CTR_WARMSTART_REDUCED, 1);
            }
            obs::record_with(|| obs::Event::Warmstart {
                model: "gp".to_string(),
                warm_nll: warm_nll_pp.and_then(obs::finite),
                best_nll: obs::finite(best_nll_pp),
                restarts: (warm.len() + config.restarts + 1) as u64,
                reduced,
                iterations: None,
            });
        }
        // Competitive warm start ⇒ the next refit can skip most random
        // restarts. Decided from NLL values only: deterministic at any
        // thread count.
        self.next_reduced = match warm_nll_pp {
            Some(w) => w.is_finite() && w - best_nll_pp <= WARM_TOLERANCE,
            None => false,
        };
        self.prev_theta = Some(gp.pack_theta(fixed_noise));
        self.nll_pp_at_refit = best_nll_pp;
        let updates = std::mem::take(&mut self.updates_since_full) as u64;
        obs::count(obs::names::CTR_FULL_REFITS, 1);
        obs::record_with(|| obs::Event::Refit {
            model: "gp".to_string(),
            points: self.x.len() as u64,
            reason: reason.to_string(),
            full: true,
            updates_since_full: updates,
            nll_per_point: obs::finite(best_nll_pp),
        });
        self.gp = Some(gp);
        Ok(())
    }

    /// The current fitted surrogate, `None` before the first observation.
    pub fn gp(&self) -> Option<&Gp> {
        self.gp.as_ref()
    }

    /// Posterior prediction through the maintained surrogate.
    ///
    /// Panics when no observation has been absorbed yet.
    pub fn predict(&self, xstar: &[f64]) -> Prediction {
        self.gp
            .as_ref()
            .expect("no observations yet")
            .predict(xstar)
    }

    /// Observations absorbed so far.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Incremental updates since the last full refit.
    pub fn updates_since_full(&self) -> usize {
        self.updates_since_full
    }

    /// The refit schedule in force.
    pub fn schedule(&self) -> &RefitSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GpConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn objective(x: &[f64]) -> f64 {
        3.0 + 10.0 * (x[0] - 0.4) * (x[0] - 0.4) + (7.0 * x[0]).sin()
    }

    fn drive(inc: &mut IncrementalGp, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let x = vec![rng.gen::<f64>()];
            let y = objective(&x);
            inc.observe(&x, y, &mut rng).unwrap();
        }
    }

    #[test]
    fn appends_between_scheduled_refits() {
        let mut config = GpConfig::continuous(1);
        config.restarts = 1;
        let schedule = RefitSchedule {
            every: 8,
            min_points: 1,
            nll_degradation: f64::INFINITY, // isolate the count trigger
        };
        let mut inc = IncrementalGp::new(config, schedule);
        drive(&mut inc, 20, 5);
        // n=1 fit, then counts 1..8 (refit at 8), 1..8 (refit at 17),
        // then three appends.
        assert_eq!(inc.updates_since_full(), 3);
        assert_eq!(inc.len(), 20);
    }

    #[test]
    fn incremental_matches_full_rebuild_within_1e_6() {
        // The maintained (append-path) model must agree with a full
        // rebuild at the same θ and the same frozen standardization.
        let mut config = GpConfig::continuous(1);
        config.restarts = 1;
        let schedule = RefitSchedule {
            every: 10,
            min_points: 4,
            ..RefitSchedule::default()
        };
        let mut inc = IncrementalGp::new(config, schedule);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..30 {
            let x = vec![rng.gen::<f64>()];
            let y = objective(&x);
            inc.observe(&x, y, &mut rng).unwrap();
            if i % 3 == 2 {
                let mut reference = inc.gp().unwrap().clone();
                reference.refit_at_current_hypers().unwrap();
                for q in [0.05, 0.3, 0.62, 0.97] {
                    let a = inc.predict(&[q]);
                    let b = reference.predict(&[q]);
                    assert!(
                        (a.mean - b.mean).abs() < 1e-6,
                        "mean {} vs {}",
                        a.mean,
                        b.mean
                    );
                    assert!((a.std - b.std).abs() < 1e-6, "std {} vs {}", a.std, b.std);
                }
            }
        }
    }

    #[test]
    fn parallel_and_serial_paths_are_bitwise_identical() {
        let schedule = RefitSchedule::default();
        let mut par_cfg = GpConfig::continuous(1);
        par_cfg.restarts = 2;
        let mut ser_cfg = par_cfg.clone();
        ser_cfg.parallel = false;
        let mut par = IncrementalGp::new(par_cfg, schedule.clone());
        let mut ser = IncrementalGp::new(ser_cfg, schedule);
        drive(&mut par, 25, 7);
        drive(&mut ser, 25, 7);
        for q in [0.0, 0.21, 0.5, 0.83, 1.0] {
            assert_eq!(par.predict(&[q]), ser.predict(&[q]));
        }
    }

    #[test]
    fn nll_degradation_triggers_early_refit() {
        let mut config = GpConfig::continuous(1);
        config.restarts = 1;
        let schedule = RefitSchedule {
            every: 1_000,
            min_points: 1,
            nll_degradation: 0.0, // any worsening forces a refit
        };
        let mut inc = IncrementalGp::new(config, schedule);
        let mut rng = StdRng::seed_from_u64(3);
        // Smooth data first, then an abrupt regime change the frozen-θ
        // model cannot explain.
        for i in 0..8 {
            inc.observe(&[i as f64 / 8.0], 1.0, &mut rng).unwrap();
        }
        inc.observe(&[0.95], 250.0, &mut rng).unwrap();
        assert_eq!(
            inc.updates_since_full(),
            0,
            "outlier must have forced a full refit"
        );
    }
}
