//! Online data-quality scoring for crowd uploads (DESIGN.md §12).
//!
//! The open repository accepts every authenticated upload at face value;
//! PR 5's fault injector already produces corrupted-but-valid measurements
//! that flow silently into surrogate fits. This module makes that problem
//! *visible* without changing any fitting behavior:
//!
//! - **Standardized-residual outlier scores.** Each accepted observation
//!   is scored against the surrogate's prediction *before* it is folded
//!   in, so the point is genuinely held out. The score is
//!   `|y − μ| / max(σ, s)` where `σ` is the predictive std and `s` is a
//!   running robust scale (1.4826 × median of past clean residual
//!   magnitudes) that guards against an overconfident surrogate.
//! - **Duplicate-config disagreement.** Two uploads of the bit-identical
//!   configuration whose outputs disagree by more than a relative
//!   tolerance cannot both be right.
//! - **Final robust sweep.** Early observations arrive before the
//!   surrogate exists and cannot be scored online. [`QualityScorer::finalize`]
//!   re-scores every stored observation against the final surrogate with
//!   a median/MAD rule, catching early-iteration corruption.
//! - **Per-contributor trust statistics** roll all of the above up by
//!   provenance contributor.
//!
//! Flags drive an *observe-only* quarantine lifecycle in this PR: a
//! flagged record is journaled (`qualityscore`, `quarantine` events) and
//! counted, but fitting is untouched — tuner output with scoring enabled
//! is bitwise identical to a run without it (the scorer only ever *reads*
//! predictions; it consumes no randomness and mutates nothing shared).

use crowdtune_gp::{Gp, Prediction};
use crowdtune_obs as obs;
use std::collections::{BTreeMap, HashMap};

/// Tunables for the quality scorer.
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Online outlier threshold in robust standardized-residual units.
    pub z_threshold: f64,
    /// Observations that must be scored before online flagging engages
    /// (the robust scale is meaningless on the first few points).
    pub min_points: u64,
    /// Relative output disagreement above which two uploads of the same
    /// configuration are a duplicate disagreement.
    pub duplicate_tol: f64,
    /// Final-sweep threshold in MAD units of the residual distribution.
    pub sweep_threshold: f64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            z_threshold: 8.0,
            min_points: 5,
            duplicate_tol: 0.05,
            sweep_threshold: 10.0,
        }
    }
}

/// Running trust statistics for one contributor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContributorTrust {
    /// Observations scored.
    pub scored: u64,
    /// Observations flagged (online, duplicate, or sweep).
    pub flagged: u64,
    /// Duplicate disagreements attributed to this contributor.
    pub duplicates: u64,
    /// Largest standardized-residual score seen.
    pub max_score: f64,
    /// Sum of scores (for the mean).
    pub score_sum: f64,
}

/// One flagged record in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct FlaggedRecord {
    /// Scorer-assigned ordinal (1-based, in scoring order). When every
    /// scored observation maps to one sequentially-assigned store
    /// document, this is the document id offset.
    pub doc: u64,
    /// Tuner iteration the observation arrived at.
    pub iter: u64,
    /// Provenance contributor.
    pub contributor: String,
    /// Why it was flagged: `outlier`, `duplicate`, or `sweep-outlier`.
    pub reason: String,
    /// The score that crossed the threshold (robust z online, MAD units
    /// for the sweep).
    pub score: f64,
}

/// Everything the scorer learned over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityReport {
    /// Observations scored.
    pub scored: u64,
    /// Every flagged record, in flag order.
    pub flagged: Vec<FlaggedRecord>,
    /// Duplicate disagreements detected.
    pub duplicates: u64,
    /// Per-contributor trust statistics.
    pub contributors: BTreeMap<String, ContributorTrust>,
}

impl QualityReport {
    /// The contributor with the most flags, if anyone was flagged —
    /// the "who is poisoning the history" answer.
    pub fn worst_contributor(&self) -> Option<(&str, &ContributorTrust)> {
        self.contributors
            .iter()
            .filter(|(_, t)| t.flagged > 0)
            .max_by(|a, b| a.1.flagged.cmp(&b.1.flagged).then_with(|| b.0.cmp(a.0)))
            .map(|(name, t)| (name.as_str(), t))
    }
}

/// One scored observation, retained for the final sweep.
#[derive(Debug, Clone)]
struct ScoredObs {
    doc: u64,
    iter: u64,
    contributor: String,
    unit: Vec<f64>,
    y: f64,
    /// Held-out residual `y − μ(x)` against the pre-absorption
    /// prediction, `None` when no surrogate existed yet.
    held_resid: Option<f64>,
    /// Predictive std of that same pre-absorption prediction.
    held_std: f64,
    flagged: bool,
}

/// Bit-exact hash of a unit-cube configuration (FNV-1a over coordinate
/// bit patterns) for duplicate detection.
fn unit_key(unit: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in unit {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Median of a slice (mutates order). Returns 0.0 when empty.
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// The online data-quality scorer. Strictly observe-only: it reads
/// surrogate predictions, journals events, bumps counters, and remembers
/// what it saw — it never touches the data path.
#[derive(Debug)]
pub struct QualityScorer {
    config: QualityConfig,
    /// Contributor attributed to tuner-driven observations
    /// ([`QualityScorer::observe`]); direct [`QualityScorer::score`]
    /// calls name their own.
    contributor: String,
    obs: Vec<ScoredObs>,
    /// unit-bits hash -> index of the first observation with that config.
    seen: HashMap<u64, usize>,
    /// Magnitudes of past unflagged residuals (robust online scale).
    clean_resid: Vec<f64>,
    contributors: BTreeMap<String, ContributorTrust>,
    report: Option<QualityReport>,
}

impl QualityScorer {
    /// A scorer attributing tuner-driven observations to `contributor`.
    pub fn new(contributor: &str, config: QualityConfig) -> Self {
        QualityScorer {
            config,
            contributor: contributor.to_string(),
            obs: Vec::new(),
            seen: HashMap::new(),
            clean_resid: Vec::new(),
            contributors: BTreeMap::new(),
            report: None,
        }
    }

    /// Observations scored so far.
    pub fn scored(&self) -> u64 {
        self.obs.len() as u64
    }

    /// Score one observation from the tuning loop, attributed to the
    /// scorer's default contributor; the doc ordinal is assigned
    /// sequentially (1-based).
    pub fn observe(&mut self, iter: u64, unit: &[f64], y: f64, pred: Option<Prediction>) {
        let doc = self.obs.len() as u64 + 1;
        let contributor = self.contributor.clone();
        self.score(iter, doc, &contributor, unit, y, pred);
    }

    /// Score one observation with explicit provenance. `pred` is the
    /// surrogate's prediction made *before* the observation was absorbed
    /// (None while no surrogate exists yet).
    pub fn score(
        &mut self,
        iter: u64,
        doc: u64,
        contributor: &str,
        unit: &[f64],
        y: f64,
        pred: Option<Prediction>,
    ) {
        let (residual, score) = match &pred {
            Some(p) if p.mean.is_finite() => {
                let r = y - p.mean;
                let sigma = if p.std.is_finite() {
                    p.std.max(0.0)
                } else {
                    0.0
                };
                let robust = {
                    let mut mags = self.clean_resid.clone();
                    1.4826 * median(&mut mags)
                };
                let scale = sigma.max(robust).max(1e-12);
                (Some(r), Some(r.abs() / scale))
            }
            _ => (None, None),
        };
        let enough = self.obs.len() as u64 >= self.config.min_points;
        let outlier = enough && score.is_some_and(|s| s > self.config.z_threshold);

        // Duplicate-config disagreement against the first upload of the
        // bit-identical configuration.
        let key = unit_key(unit);
        let duplicate = match self.seen.get(&key) {
            Some(&first) => {
                let y0 = self.obs[first].y;
                let denom = y0.abs().max(y.abs()).max(1e-12);
                (y - y0).abs() / denom > self.config.duplicate_tol
            }
            None => {
                self.seen.insert(key, self.obs.len());
                false
            }
        };
        let flagged = outlier || duplicate;

        obs::count(obs::names::CTR_QUALITY_SCORED, 1);
        if outlier {
            obs::count(obs::names::CTR_QUALITY_FLAGGED, 1);
        }
        if duplicate {
            obs::count(obs::names::CTR_QUALITY_DUPLICATES, 1);
        }
        obs::record_with(|| obs::Event::QualityScore {
            iter,
            doc,
            contributor: contributor.to_string(),
            residual: residual.and_then(obs::finite),
            score: score.and_then(obs::finite),
            flagged,
            duplicate,
        });

        let trust = self
            .contributors
            .entry(contributor.to_string())
            .or_default();
        trust.scored += 1;
        if let Some(s) = score.filter(|s| s.is_finite()) {
            trust.score_sum += s;
            trust.max_score = trust.max_score.max(s);
        }
        if duplicate {
            trust.duplicates += 1;
        }
        if flagged {
            trust.flagged += 1;
            let reason = if duplicate { "duplicate" } else { "outlier" };
            Self::note_quarantine(iter, doc, contributor, reason);
            self.flag(FlaggedRecord {
                doc,
                iter,
                contributor: contributor.to_string(),
                reason: reason.to_string(),
                score: score.unwrap_or(f64::INFINITY),
            });
        } else if let Some(r) = residual {
            // Only unflagged residuals feed the robust scale, so one bad
            // contributor can't widen everyone's tolerance.
            if r.is_finite() {
                self.clean_resid.push(r.abs());
            }
        }
        self.obs.push(ScoredObs {
            doc,
            iter,
            contributor: contributor.to_string(),
            unit: unit.to_vec(),
            y,
            held_resid: residual.filter(|r| r.is_finite()),
            held_std: pred
                .as_ref()
                .map(|p| {
                    if p.std.is_finite() {
                        p.std.max(0.0)
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0),
            flagged,
        });
    }

    fn flag(&mut self, rec: FlaggedRecord) {
        self.report_mut().flagged.push(rec);
    }

    fn report_mut(&mut self) -> &mut QualityReport {
        self.report.get_or_insert_with(QualityReport::default)
    }

    /// Flag observation `i` as a sweep outlier with deviation score `s`.
    fn flag_swept(&mut self, i: usize, s: f64) {
        self.obs[i].flagged = true;
        let (doc, iter) = (self.obs[i].doc, self.obs[i].iter);
        let contributor = self.obs[i].contributor.clone();
        Self::note_quarantine(iter, doc, &contributor, "sweep-outlier");
        self.contributors
            .entry(contributor.clone())
            .or_default()
            .flagged += 1;
        self.flag(FlaggedRecord {
            doc,
            iter,
            contributor,
            reason: "sweep-outlier".to_string(),
            score: s,
        });
    }

    fn note_quarantine(iter: u64, doc: u64, contributor: &str, reason: &str) {
        obs::count(obs::names::CTR_QUALITY_QUARANTINED, 1);
        obs::record_with(|| obs::Event::Quarantine {
            iter,
            doc,
            contributor: contributor.to_string(),
            reason: reason.to_string(),
            state: "flagged".to_string(),
        });
    }

    /// Close out the run: re-score every stored observation against the
    /// final surrogate with a robust median/MAD rule, flagging what the
    /// online path could not see (observations from before the surrogate
    /// existed), and return the completed report. Idempotent only in the
    /// sense that the scorer should be finalized once, at run end.
    pub fn finalize(&mut self, gp: Option<&Gp>) -> QualityReport {
        // Held-out sweep first: residuals recorded online against the
        // *pre-absorption* prediction are honest out-of-sample errors, so
        // a corrupted point cannot hide behind a final model that later
        // interpolated it, and a corruption-inflated predictive std (the
        // reason the online z-score can miss) plays no role — the scale
        // here is the robust spread of the held-out population itself.
        let held: Vec<(usize, f64)> = self
            .obs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.held_resid.map(|r| (i, r)))
            .collect();
        if held.len() as u64 >= self.config.min_points {
            let mut vals: Vec<f64> = held.iter().map(|&(_, r)| r).collect();
            let med = median(&mut vals);
            let mut dev: Vec<f64> = held.iter().map(|&(_, r)| (r - med).abs()).collect();
            let mad = median(&mut dev);
            let mut ymag: Vec<f64> = self.obs.iter().map(|o| o.y.abs()).collect();
            let yscale = median(&mut ymag).max(1.0);
            let scale = (1.4826 * mad).max(1e-3 * yscale);
            // Each point's deviation is additionally floored by its own
            // predictive std: a prediction that honestly declared itself
            // uncertain is never swept for being off by that much.
            let hits: Vec<(usize, f64)> = held
                .iter()
                .filter(|&&(i, _)| !self.obs[i].flagged)
                .map(|&(i, r)| (i, (r - med).abs() / scale.max(self.obs[i].held_std)))
                .filter(|&(_, s)| s > self.config.sweep_threshold)
                .collect();
            for (i, s) in hits {
                self.flag_swept(i, s);
            }
        }
        if let Some(gp) = gp {
            // Residuals of ALL stored observations against the final
            // model; median/MAD are robust to the corrupted minority.
            let resid: Vec<f64> = self
                .obs
                .iter()
                .map(|o| o.y - gp.predict(&o.unit).mean)
                .collect();
            let med = median(&mut resid.clone());
            let mad = {
                let mut dev: Vec<f64> = resid.iter().map(|r| (r - med).abs()).collect();
                median(&mut dev)
            };
            // Floor the MAD so a near-interpolating fit on clean data
            // (residuals ~ machine epsilon) doesn't turn numerical dust
            // into flags.
            let mut ymag: Vec<f64> = self.obs.iter().map(|o| o.y.abs()).collect();
            let yscale = median(&mut ymag).max(1.0);
            let scale = (1.4826 * mad).max(1e-3 * yscale);
            let sweep: Vec<(usize, f64)> = self
                .obs
                .iter()
                .enumerate()
                .filter(|(_, o)| !o.flagged)
                .map(|(i, _)| (i, ((resid[i] - med).abs()) / scale))
                .filter(|&(_, s)| s > self.config.sweep_threshold)
                .collect();
            for (i, s) in sweep {
                self.flag_swept(i, s);
            }
        }
        let scored = self.obs.len() as u64;
        let duplicates = self.contributors.values().map(|t| t.duplicates).sum();
        let contributors = self.contributors.clone();
        let report = self.report_mut();
        report.scored = scored;
        report.duplicates = duplicates;
        report.contributors = contributors;
        report.clone()
    }

    /// The report built by [`QualityScorer::finalize`], if it ran.
    pub fn report(&self) -> Option<&QualityReport> {
        self.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(mean: f64, std: f64) -> Option<Prediction> {
        Some(Prediction { mean, std })
    }

    fn warmup(scorer: &mut QualityScorer, n: u64) {
        for i in 0..n {
            scorer.observe(i, &[i as f64 / 100.0], 1.0, pred(1.0, 0.1));
        }
    }

    #[test]
    fn outlier_flagged_after_warmup_inliers_not() {
        let mut s = QualityScorer::new("alice", QualityConfig::default());
        warmup(&mut s, 6);
        // In-band observation: no flag.
        s.observe(6, &[0.5], 1.05, pred(1.0, 0.1));
        // Gross outlier: 90 predictive stds out.
        s.observe(7, &[0.6], 10.0, pred(1.0, 0.1));
        let report = s.finalize(None);
        assert_eq!(report.scored, 8);
        assert_eq!(report.flagged.len(), 1);
        assert_eq!(report.flagged[0].reason, "outlier");
        assert_eq!(report.flagged[0].doc, 8);
        let (worst, trust) = report.worst_contributor().unwrap();
        assert_eq!(worst, "alice");
        assert_eq!(trust.flagged, 1);
    }

    #[test]
    fn no_flags_before_min_points() {
        let mut s = QualityScorer::new("alice", QualityConfig::default());
        // A gross outlier on the very first scored point: the robust
        // scale doesn't exist yet, so flagging must not engage.
        s.observe(0, &[0.1], 100.0, pred(1.0, 0.1));
        assert!(s.finalize(None).flagged.is_empty());
    }

    #[test]
    fn duplicate_disagreement_attributed_to_second_upload() {
        let mut s = QualityScorer::new("alice", QualityConfig::default());
        s.score(0, 1, "alice", &[0.25, 0.75], 2.0, None);
        // Same bit-exact config, agreeing output: fine.
        s.score(1, 2, "bob", &[0.25, 0.75], 2.0001, None);
        // Same config, 50% disagreement: flagged against mallory.
        s.score(2, 3, "mallory", &[0.25, 0.75], 3.0, None);
        let report = s.finalize(None);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.flagged.len(), 1);
        assert_eq!(report.flagged[0].contributor, "mallory");
        assert_eq!(report.flagged[0].reason, "duplicate");
        assert_eq!(report.contributors["mallory"].duplicates, 1);
        assert_eq!(report.contributors["bob"].duplicates, 0);
    }

    #[test]
    fn robust_scale_guards_overconfident_sigma() {
        // The surrogate claims sigma=1e-9 but typical residuals are ~0.1;
        // a 0.3 residual is ~3 robust units, far below the threshold, so
        // an honest-but-imperfect model doesn't spray false flags.
        let mut s = QualityScorer::new("alice", QualityConfig::default());
        for i in 0..8 {
            let y = 1.0 + if i % 2 == 0 { 0.1 } else { -0.1 };
            s.observe(i, &[i as f64 / 10.0], y, pred(1.0, 1e-9));
        }
        s.observe(8, &[0.9], 1.3, pred(1.0, 1e-9));
        assert!(s.finalize(None).flagged.is_empty());
    }
}
