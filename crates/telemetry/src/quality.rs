//! Fleet-level data-quality rollup: per-scenario, per-contributor
//! aggregates distilled from the quality and calibration events that
//! `crowdtune-core`'s scorer and the tuner loop journal.
//!
//! The per-run `crowdtune-obs` report answers "how clean was *this*
//! run's data". This module lifts that to the fleet vantage point the
//! crowd model needs: many contributors uploading into one shared
//! history, where a single noisy machine or misconfigured harness can
//! quietly poison every downstream surrogate. The rollup ingests any
//! number of journals (one per run/scenario), keyed by a
//! caller-supplied scenario label, and answers:
//!
//! - which contributors are being flagged, and at what rate;
//! - which scenario's surrogate is worst-calibrated (coverage drift);
//! - who the single worst offender across the whole fleet is.
//!
//! Everything here is read-only over journals: ingesting has no effect
//! on tuning, storage, or the journals themselves.

use std::collections::BTreeMap;

use crowdtune_obs::Event;

/// Quality aggregate for one contributor within one scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContributorAggregate {
    /// Records accepted from this contributor (from `upload` events).
    pub uploads: u64,
    /// Observations scored by the quality scorer.
    pub scored: u64,
    /// Observations whose standardized residual crossed the outlier
    /// threshold.
    pub flagged: u64,
    /// Duplicate-configuration disagreements attributed to this
    /// contributor.
    pub duplicates: u64,
    /// Quarantine events (observe-only flag lifecycle) for this
    /// contributor's records.
    pub quarantined: u64,
    /// Largest standardized-residual score seen, `None` until a scored
    /// observation carries one.
    pub worst_score: Option<f64>,
}

impl ContributorAggregate {
    /// Fraction of scored observations that were flagged, `None` before
    /// any observation was scored.
    pub fn flag_rate(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.flagged as f64 / self.scored as f64)
    }

    /// Combined severity used for ranking: flagged + quarantined.
    pub fn severity(&self) -> u64 {
        self.flagged + self.quarantined
    }
}

/// Quality rollup for one scenario (one tuning problem / journal).
#[derive(Debug, Clone, Default)]
pub struct ScenarioQuality {
    /// Per-contributor aggregates, keyed by contributor name.
    pub contributors: BTreeMap<String, ContributorAggregate>,
    /// Total observations scored in this scenario.
    pub scored: u64,
    /// Total online outlier flags in this scenario.
    pub flagged: u64,
    /// Total quarantine markers in this scenario. Every flag — online,
    /// duplicate, or final-sweep — emits one, so this is the complete
    /// count of records withheld from trust.
    pub quarantined: u64,
    /// Held-out calibration points scored by the surrogate (from the
    /// last `calibration` event).
    pub calibration_points: u64,
    /// Last observed 90%-interval coverage.
    pub coverage90: Option<f64>,
    /// Last observed predictive NLL per point.
    pub nll_pp: Option<f64>,
    /// Last observed NLL-per-point drift between refits.
    pub drift: Option<f64>,
}

impl ScenarioQuality {
    /// Scenario-wide outlier rate, `None` before any scored observation.
    fn outlier_rate(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.flagged as f64 / self.scored as f64)
    }

    /// Absolute deviation of 90%-interval coverage from its nominal
    /// 0.90, `None` before any calibration event.
    #[cfg(test)]
    fn coverage_error(&self) -> Option<f64> {
        self.coverage90.map(|c| (c - 0.90).abs())
    }

    fn absorb(&mut self, ev: &Event) {
        match ev {
            Event::Upload {
                accepted,
                contributor,
                ..
            } if !contributor.is_empty() => {
                self.contributors
                    .entry(contributor.clone())
                    .or_default()
                    .uploads += accepted;
            }
            Event::QualityScore {
                contributor,
                score,
                flagged,
                duplicate,
                ..
            } => {
                self.scored += 1;
                if *flagged {
                    self.flagged += 1;
                }
                let agg = self.contributors.entry(contributor.clone()).or_default();
                agg.scored += 1;
                if *flagged {
                    agg.flagged += 1;
                }
                if *duplicate {
                    agg.duplicates += 1;
                }
                if let Some(s) = score {
                    if agg.worst_score.is_none_or(|w| *s > w) {
                        agg.worst_score = Some(*s);
                    }
                }
            }
            Event::Quarantine { contributor, .. } => {
                self.quarantined += 1;
                self.contributors
                    .entry(contributor.clone())
                    .or_default()
                    .quarantined += 1;
            }
            Event::Calibration {
                points,
                coverage90,
                nll_pp,
                drift,
                ..
            } => {
                // Calibration events are cumulative snapshots; keep the
                // richest (latest) one.
                self.calibration_points = self.calibration_points.max(*points);
                if coverage90.is_some() {
                    self.coverage90 = *coverage90;
                }
                if nll_pp.is_some() {
                    self.nll_pp = *nll_pp;
                }
                if drift.is_some() {
                    self.drift = *drift;
                }
            }
            _ => {}
        }
    }
}

/// Fleet-wide quality rollup over any number of scenario journals.
#[derive(Debug, Clone, Default)]
pub struct QualityRollup {
    /// Per-scenario rollups, keyed by the caller-supplied label.
    pub scenarios: BTreeMap<String, ScenarioQuality>,
}

impl QualityRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one journal's events into the rollup under `scenario`.
    /// Ingesting the same scenario twice accumulates (multiple runs of
    /// one problem roll up together).
    pub fn ingest(&mut self, scenario: &str, events: &[Event]) {
        let sq = self.scenarios.entry(scenario.to_string()).or_default();
        for ev in events {
            sq.absorb(ev);
        }
    }

    /// The single worst contributor across the fleet by severity
    /// (flagged + quarantined), ties broken toward the lexically first
    /// scenario/contributor. `None` when nobody has been flagged.
    pub fn worst_contributor(&self) -> Option<(&str, &str, &ContributorAggregate)> {
        self.scenarios
            .iter()
            .flat_map(|(scen, sq)| {
                sq.contributors
                    .iter()
                    .map(move |(name, agg)| (scen.as_str(), name.as_str(), agg))
            })
            .filter(|(_, _, agg)| agg.severity() > 0)
            .max_by(|a, b| {
                a.2.severity()
                    .cmp(&b.2.severity())
                    // On ties prefer the lexically first, so reverse the
                    // key ordering fed to max_by.
                    .then_with(|| (b.0, b.1).cmp(&(a.0, a.1)))
            })
    }
}

/// Render the rollup as a human-readable fleet quality table.
pub fn render_quality_rollup(r: &QualityRollup) -> String {
    let mut out = String::new();
    out.push_str("fleet data quality\n");
    if r.scenarios.is_empty() {
        out.push_str("  (no scenarios ingested)\n");
        return out;
    }
    for (scen, sq) in &r.scenarios {
        out.push_str(&format!(
            "  scenario {scen}: {} scored, {} flagged online, {} quarantined",
            sq.scored, sq.flagged, sq.quarantined
        ));
        if let Some(rate) = sq.outlier_rate() {
            out.push_str(&format!(" ({:.1}% outlier rate)", rate * 100.0));
        }
        out.push('\n');
        if let Some(cov) = sq.coverage90 {
            out.push_str(&format!(
                "    calibration: coverage@90 {:.3} over {} points",
                cov, sq.calibration_points
            ));
            if let Some(nll) = sq.nll_pp {
                out.push_str(&format!(", nll/pt {nll:.3}"));
            }
            if let Some(d) = sq.drift {
                out.push_str(&format!(", drift {d:+.3}"));
            }
            out.push('\n');
        }
        for (name, agg) in &sq.contributors {
            out.push_str(&format!(
                "    {name}: {} uploads, {} scored, {} flagged, {} duplicates, {} quarantined",
                agg.uploads, agg.scored, agg.flagged, agg.duplicates, agg.quarantined
            ));
            if let Some(w) = agg.worst_score {
                out.push_str(&format!(", worst score {w:.2}"));
            }
            out.push('\n');
        }
    }
    if let Some((scen, name, agg)) = r.worst_contributor() {
        out.push_str(&format!(
            "  worst contributor: {name} (scenario {scen}, severity {})\n",
            agg.severity()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(contributor: &str, score: Option<f64>, flagged: bool, duplicate: bool) -> Event {
        Event::QualityScore {
            iter: 0,
            doc: 0,
            contributor: contributor.to_string(),
            residual: score,
            score,
            flagged,
            duplicate,
        }
    }

    #[test]
    fn rollup_aggregates_per_scenario_and_contributor() {
        let mut roll = QualityRollup::new();
        roll.ingest(
            "hypre",
            &[
                Event::Upload {
                    accepted: 3,
                    rejected: 0,
                    contributor: "alice".into(),
                    batch: 1,
                    duration_us: 10,
                },
                score("alice", Some(0.5), false, false),
                score("mallory", Some(12.0), true, false),
                score("mallory", Some(9.0), true, true),
                Event::Quarantine {
                    iter: 1,
                    doc: 2,
                    contributor: "mallory".into(),
                    reason: "outlier".into(),
                    state: "flagged".into(),
                },
                Event::Calibration {
                    model: "gp".into(),
                    points: 16,
                    coverage90: Some(0.875),
                    nll_pp: Some(1.2),
                    drift: Some(-0.1),
                    best: Some(0.4),
                },
            ],
        );
        let sq = &roll.scenarios["hypre"];
        assert_eq!(sq.scored, 3);
        assert_eq!(sq.flagged, 2);
        assert!((sq.outlier_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((sq.coverage_error().unwrap() - 0.025).abs() < 1e-12);
        assert_eq!(sq.calibration_points, 16);
        assert_eq!(sq.contributors["alice"].uploads, 3);
        assert_eq!(sq.contributors["alice"].flagged, 0);
        let m = &sq.contributors["mallory"];
        assert_eq!(m.scored, 2);
        assert_eq!(m.flagged, 2);
        assert_eq!(m.duplicates, 1);
        assert_eq!(m.quarantined, 1);
        assert_eq!(m.worst_score, Some(12.0));
        assert_eq!(m.severity(), 3);
        assert!((m.flag_rate().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_contributor_spans_scenarios() {
        let mut roll = QualityRollup::new();
        roll.ingest("a", &[score("alice", Some(9.0), true, false)]);
        roll.ingest(
            "b",
            &[
                score("mallory", Some(20.0), true, false),
                score("mallory", Some(21.0), true, false),
            ],
        );
        let (scen, name, agg) = roll.worst_contributor().expect("flagged contributors");
        assert_eq!((scen, name), ("b", "mallory"));
        assert_eq!(agg.severity(), 2);
        let text = render_quality_rollup(&roll);
        assert!(text.contains("worst contributor: mallory"));
    }

    #[test]
    fn clean_fleet_has_no_worst_contributor() {
        let mut roll = QualityRollup::new();
        roll.ingest("a", &[score("alice", Some(0.1), false, false)]);
        assert!(roll.worst_contributor().is_none());
        assert!(render_quality_rollup(&roll).contains("scenario a"));
    }
}
