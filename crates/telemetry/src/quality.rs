//! Fleet-level data-quality rollup: per-scenario, per-contributor
//! aggregates distilled from the quality and calibration events that
//! `crowdtune-core`'s scorer and the tuner loop journal.
//!
//! The per-run `crowdtune-obs` report answers "how clean was *this*
//! run's data". This module lifts that to the fleet vantage point the
//! crowd model needs: many contributors uploading into one shared
//! history, where a single noisy machine or misconfigured harness can
//! quietly poison every downstream surrogate. The rollup summarizes any
//! number of journals (one per run/scenario) with the per-run report's
//! own fold, [`summarize`], keyed by a caller-supplied scenario label,
//! and answers:
//!
//! - which contributors are being flagged, and at what rate;
//! - which scenario's surrogate is worst-calibrated (coverage drift);
//! - who the single worst offender across the whole fleet is.
//!
//! Everything here is read-only over journals: ingesting has no effect
//! on tuning, storage, or the journals themselves.

use std::collections::BTreeMap;

use crowdtune_obs::{summarize, ContributorQuality, Event, JournalReport};

/// Fleet-wide quality rollup over any number of scenario journals.
#[derive(Debug, Clone, Default)]
pub struct QualityRollup {
    /// One journal summary per scenario, keyed by the caller-supplied
    /// label. The rollup reads its `quality_*`, `quarantined`,
    /// `calibration_*`, `coverage90` and `contributors` fields.
    pub scenarios: BTreeMap<String, JournalReport>,
}

impl QualityRollup {
    /// Summarize one journal's events under `scenario`, replacing any
    /// earlier summary of that scenario.
    pub fn ingest(&mut self, scenario: &str, events: &[Event]) {
        self.scenarios
            .insert(scenario.to_string(), summarize(scenario, events));
    }

    /// The single worst contributor across the fleet by severity
    /// (flagged + quarantined), ties broken toward the lexically first
    /// scenario/contributor. `None` when nobody has been flagged.
    pub fn worst_contributor(&self) -> Option<(&str, &str, &ContributorQuality)> {
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
            sq.quality_scored, sq.quality_flagged, sq.quarantined
        ));
        if sq.quality_scored > 0 {
            let rate = sq.quality_flagged as f64 / sq.quality_scored as f64;
            out.push_str(&format!(" ({:.1}% outlier rate)", rate * 100.0));
        }
        out.push('\n');
        if let Some(cov) = sq.coverage90 {
            out.push_str(&format!(
                "    calibration: coverage@90 {:.3} over {} points",
                cov, sq.calibration_points
            ));
            if let Some(nll) = sq.calibration_nll_pp {
                out.push_str(&format!(", nll/pt {nll:.3}"));
            }
            if let Some(d) = sq.calibration_drift {
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
        let mut roll = QualityRollup::default();
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
        assert_eq!(sq.quality_scored, 3);
        assert_eq!(sq.quality_flagged, 2);
        assert_eq!(sq.coverage90, Some(0.875));
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
        assert!(render_quality_rollup(&roll).contains("(66.7% outlier rate)"));
    }

    #[test]
    fn worst_contributor_spans_scenarios() {
        let mut roll = QualityRollup::default();
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
        let mut roll = QualityRollup::default();
        roll.ingest("a", &[score("alice", Some(0.1), false, false)]);
        assert!(roll.worst_contributor().is_none());
        assert!(render_quality_rollup(&roll).contains("scenario a"));
    }
}
