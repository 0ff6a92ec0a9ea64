//! Journal summarization: the library half of the `crowdtune-report` bin.
//!
//! [`summarize`] folds a parsed journal into a [`JournalReport`] — per-stage
//! time/count breakdown plus recovery totals — and [`render_report`] formats
//! it as the human table the bin prints. The report structure itself is
//! serializable and doubles as the `results/obs_snapshot.json` export.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::journal::Event;

/// Aggregate of one journal stage (fit, acquisition, db query, …).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Number of events in the stage.
    pub count: u64,
    /// Total wall-clock microseconds across events.
    pub total_us: u64,
    /// Mean microseconds per event.
    pub mean_us: f64,
    /// Largest single event in microseconds.
    pub max_us: u64,
}

impl StageSummary {
    fn add(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        self.mean_us = self.total_us as f64 / self.count as f64;
    }
}

/// Everything `crowdtune-report` derives from one journal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JournalReport {
    /// Journal path this report was built from (tagging for the snapshot).
    pub journal: String,
    /// Total events in the journal.
    pub events_total: u64,
    /// Events per kind (`"fit"`, `"jitter"`, …).
    pub event_counts: BTreeMap<String, u64>,
    /// Time/count breakdown per timed stage.
    pub stages: BTreeMap<String, StageSummary>,
    /// Tuner iterations observed.
    pub iterations: u64,
    /// Failed evaluations observed.
    pub failures: u64,
    /// Best objective value across all runs in the journal.
    pub best: Option<f64>,
    /// Surrogate fits (gp + lcm).
    pub fits: u64,
    /// Fits that fell back to default hyperparameters.
    pub fit_fallbacks: u64,
    /// Optimizer restarts journaled.
    pub restarts: u64,
    /// Total L-BFGS iterations across journaled restarts.
    pub lbfgs_iterations: u64,
    /// Cholesky jitter escalations journaled.
    pub jitter_escalations: u64,
    /// Jitter recoveries that exhausted the ladder without factorizing.
    pub jitter_exhausted: u64,
    /// L-BFGS line-search failures journaled.
    pub linesearch_failures: u64,
    /// Candidates removed by failure exclusion.
    pub excluded_candidates: u64,
    /// DB records scanned by journaled queries.
    pub db_scanned: u64,
    /// DB records returned by journaled queries.
    pub db_returned: u64,
    /// DB records withheld by access control.
    pub db_denied: u64,
    /// Journaled queries answered from the shard query cache.
    #[serde(default)]
    pub db_cache_hits: u64,
    /// Journaled cacheable queries that missed the query cache.
    #[serde(default)]
    pub db_cache_misses: u64,
    /// Journaled reads answered from epoch-stamped stale cache entries
    /// by degraded shards.
    #[serde(default)]
    pub db_stale_served: u64,
    /// Requests shed by admission control with a typed `Overloaded`.
    #[serde(default)]
    pub db_shed: u64,
    /// Requests shed specifically for an expired deadline.
    #[serde(default)]
    pub db_deadline_exceeded: u64,
    /// Shard health transitions journaled (degradation-ladder moves).
    #[serde(default)]
    pub db_health_transitions: u64,
    /// Records accepted by journaled uploads.
    pub uploads_accepted: u64,
    /// Records rejected by journaled uploads.
    pub uploads_rejected: u64,
    /// Model evaluations consumed by journaled Saltelli designs.
    #[serde(default)]
    pub saltelli_evals: u64,
    /// Sobol index estimations journaled.
    #[serde(default)]
    pub sobol_estimates: u64,
    /// Sensitivity-driven space reductions journaled.
    #[serde(default)]
    pub space_reductions: u64,
    /// Full surrogate refits journaled by the incremental path.
    #[serde(default)]
    pub full_refits: u64,
    /// Rank-1 incremental surrogate updates journaled.
    #[serde(default)]
    pub incremental_updates: u64,
    /// Warm-started hyperparameter refits per surrogate model (`gp`,
    /// `lcm`).
    #[serde(default)]
    pub warmstarts: BTreeMap<String, WarmstartSummary>,
    /// Transient evaluation failures retried by the tuner's retry policy.
    #[serde(default)]
    pub retries: u64,
    /// Faults injected into simulated evaluations, per kind.
    #[serde(default)]
    pub faults_injected: BTreeMap<String, u64>,
    /// Resumable tuner checkpoints persisted.
    #[serde(default)]
    pub checkpoints: u64,
    /// Recoveries journaled (WAL replays + checkpoint resumes).
    #[serde(default)]
    pub recoveries: u64,
    /// Recoveries that detected and truncated a torn WAL tail.
    #[serde(default)]
    pub torn_recoveries: u64,
    /// Merged collapsed-stack profile across all `profile` events: folded
    /// span path (`tune;propose;gp_fit`) → total nanoseconds.
    #[serde(default)]
    pub profile: BTreeMap<String, u64>,
    /// Uploads scored by the online data-quality scorer.
    #[serde(default)]
    pub quality_scored: u64,
    /// Scored uploads whose standardized residual crossed the outlier
    /// threshold.
    #[serde(default)]
    pub quality_flagged: u64,
    /// Duplicate-configuration disagreements detected.
    #[serde(default)]
    pub quality_duplicates: u64,
    /// Records moved into the observe-only quarantine-flag state.
    #[serde(default)]
    pub quarantined: u64,
    /// Per-contributor data-quality rollup, keyed by contributor id.
    #[serde(default)]
    pub contributors: BTreeMap<String, ContributorQuality>,
    /// Held-out points scored by calibration tracking (last `calibration`
    /// event's cumulative count).
    #[serde(default)]
    pub calibration_points: u64,
    /// 90%-interval coverage from the last `calibration` event.
    #[serde(default)]
    pub coverage90: Option<f64>,
    /// Predictive NLL per held-out point from the last `calibration`
    /// event.
    #[serde(default)]
    pub calibration_nll_pp: Option<f64>,
    /// NLL-per-point drift from the last `calibration` event carrying one.
    #[serde(default)]
    pub calibration_drift: Option<f64>,
    /// Surrogate-tier escalations journaled (exact → sparse switches).
    #[serde(default)]
    pub tier_switches: u64,
    /// Tier in force after the last `tierswitch` event, empty when the
    /// journal carried none (the run stayed on the exact GP).
    #[serde(default)]
    pub tier_last: String,
    /// Observation count at the last tier switch.
    #[serde(default)]
    pub tier_points: u64,
    /// Inducing points of the sparse tier at the last switch.
    #[serde(default)]
    pub tier_inducing: u64,
}

/// Warm-started refits of one surrogate model.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmstartSummary {
    /// Warm-started refits journaled.
    pub refits: u64,
    /// Refits that ran with a reduced restart count or iteration cap.
    pub reduced: u64,
    /// Refits whose warm and fitted NLL were both finite.
    pub scored: u64,
    /// Sum over scored refits of warm NLL minus fitted NLL (what the
    /// optimizer gained from the warm start).
    pub nll_gain: f64,
    /// Refits that reported their L-BFGS iterations.
    pub iter_reports: u64,
    /// L-BFGS iterations summed over those refits.
    pub iterations: u64,
}

/// Per-contributor slice of the data-quality rollup.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ContributorQuality {
    /// Records this contributor uploaded (from `upload` events).
    #[serde(default)]
    pub uploads: u64,
    /// Observations scored against the surrogate.
    #[serde(default)]
    pub scored: u64,
    /// Scored observations flagged as outliers online.
    #[serde(default)]
    pub flagged: u64,
    /// Duplicate-configuration disagreements attributed here.
    #[serde(default)]
    pub duplicates: u64,
    /// Records of this contributor in the quarantine-flag state.
    #[serde(default)]
    pub quarantined: u64,
    /// Largest standardized-residual score observed.
    #[serde(default)]
    pub worst_score: Option<f64>,
}

fn better(best: &mut Option<f64>, candidate: Option<f64>) {
    if let Some(c) = candidate {
        if best.is_none_or(|b| c < b) {
            *best = Some(c);
        }
    }
}

/// Folds parsed journal events into a [`JournalReport`]. `journal` is the
/// path tag recorded in the report.
pub fn summarize(journal: &str, events: &[Event]) -> JournalReport {
    let mut r = JournalReport {
        journal: journal.to_string(),
        events_total: events.len() as u64,
        ..JournalReport::default()
    };
    for ev in events {
        *r.event_counts.entry(ev.kind().to_string()).or_insert(0) += 1;
        match ev {
            Event::RunStart { .. } => {}
            Event::Iteration {
                ok,
                best,
                duration_us,
                ..
            } => {
                r.iterations += 1;
                if !ok {
                    r.failures += 1;
                }
                better(&mut r.best, *best);
                r.stages
                    .entry("iteration".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Fit {
                duration_us,
                fallback,
                ..
            } => {
                r.fits += 1;
                if *fallback {
                    r.fit_fallbacks += 1;
                }
                r.stages
                    .entry("fit".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Restart { iterations, .. } => {
                r.restarts += 1;
                r.lbfgs_iterations += iterations;
            }
            Event::Acquisition { duration_us, .. } => {
                r.stages
                    .entry("acquisition".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Jitter {
                attempts,
                recovered,
                ..
            } => {
                if *attempts > 1 {
                    r.jitter_escalations += 1;
                }
                if !recovered {
                    r.jitter_exhausted += 1;
                }
            }
            Event::LineSearch { .. } => r.linesearch_failures += 1,
            Event::Exclusion { removed, .. } => r.excluded_candidates += removed,
            Event::Weights { .. } => {}
            Event::DbQuery {
                scanned,
                returned,
                denied,
                cache_hits,
                cache_misses,
                stale_served,
                duration_us,
                ..
            } => {
                r.db_scanned += scanned;
                r.db_returned += returned;
                r.db_denied += denied;
                r.db_cache_hits += cache_hits;
                r.db_cache_misses += cache_misses;
                r.db_stale_served += stale_served;
                r.stages
                    .entry("db_query".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Upload {
                accepted,
                rejected,
                contributor,
                duration_us,
                ..
            } => {
                r.uploads_accepted += accepted;
                r.uploads_rejected += rejected;
                if !contributor.is_empty() {
                    r.contributors
                        .entry(contributor.clone())
                        .or_default()
                        .uploads += accepted;
                }
                r.stages
                    .entry("db_upload".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Saltelli {
                total_evals,
                duration_us,
                ..
            } => {
                r.saltelli_evals += total_evals;
                r.stages
                    .entry("saltelli".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::Sobol { duration_us, .. } => {
                r.sobol_estimates += 1;
                r.stages
                    .entry("sobol".to_string())
                    .or_default()
                    .add(*duration_us);
            }
            Event::SpaceReduce { .. } => r.space_reductions += 1,
            Event::Refit { full, .. } => {
                if *full {
                    r.full_refits += 1;
                } else {
                    r.incremental_updates += 1;
                }
            }
            Event::Warmstart {
                model,
                warm_nll,
                best_nll,
                reduced,
                iterations,
                ..
            } => {
                let w = r.warmstarts.entry(model.clone()).or_default();
                w.refits += 1;
                w.reduced += u64::from(*reduced);
                if let (Some(warm), Some(best)) = (warm_nll, best_nll) {
                    w.scored += 1;
                    w.nll_gain += warm - best;
                }
                if let Some(it) = iterations {
                    w.iter_reports += 1;
                    w.iterations += it;
                }
            }
            Event::Retry { .. } => r.retries += 1,
            Event::FaultInject { kind, .. } => {
                *r.faults_injected.entry(kind.clone()).or_insert(0) += 1;
            }
            Event::Checkpoint { .. } => r.checkpoints += 1,
            Event::Recovery { torn, .. } => {
                r.recoveries += 1;
                if *torn {
                    r.torn_recoveries += 1;
                }
            }
            Event::QualityScore {
                contributor,
                score,
                flagged,
                duplicate,
                ..
            } => {
                r.quality_scored += 1;
                let c = r.contributors.entry(contributor.clone()).or_default();
                c.scored += 1;
                if *flagged {
                    r.quality_flagged += 1;
                    c.flagged += 1;
                }
                if *duplicate {
                    r.quality_duplicates += 1;
                    c.duplicates += 1;
                }
                if let Some(s) = score {
                    if c.worst_score.is_none_or(|w| *s > w) {
                        c.worst_score = Some(*s);
                    }
                }
            }
            Event::Quarantine { contributor, .. } => {
                r.quarantined += 1;
                r.contributors
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
                r.calibration_points = r.calibration_points.max(*points);
                if coverage90.is_some() {
                    r.coverage90 = *coverage90;
                }
                if nll_pp.is_some() {
                    r.calibration_nll_pp = *nll_pp;
                }
                if drift.is_some() {
                    r.calibration_drift = *drift;
                }
            }
            Event::TierSwitch {
                to,
                points,
                inducing,
                ..
            } => {
                r.tier_switches += 1;
                r.tier_last = to.clone();
                r.tier_points = *points;
                r.tier_inducing = *inducing;
            }
            Event::Shed {
                reason,
                retry_after_ms: _,
                ..
            } => {
                r.db_shed += 1;
                if reason == "deadline" {
                    r.db_deadline_exceeded += 1;
                }
            }
            Event::Health { .. } => r.db_health_transitions += 1,
            Event::Profile { folded } => {
                for (path, ns) in folded {
                    *r.profile.entry(path.clone()).or_insert(0) += ns;
                }
            }
            Event::RunEnd { duration_us, .. } => {
                r.stages
                    .entry("run".to_string())
                    .or_default()
                    .add(*duration_us);
            }
        }
    }
    r
}

/// Renders the merged collapsed-stack profile in the standard flamegraph
/// input format: one `frame;frame;frame value` line per folded stack, where
/// the value is total nanoseconds. Empty when the journal carried no
/// `profile` events.
pub fn render_profile(r: &JournalReport) -> String {
    let mut out = String::new();
    for (path, ns) in &r.profile {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

/// Deepest stack (number of frames) in the merged profile.
pub fn profile_depth(r: &JournalReport) -> usize {
    r.profile
        .keys()
        .map(|p| p.split(';').count())
        .max()
        .unwrap_or(0)
}

/// Formats a report as the aligned human-readable table printed by the
/// `crowdtune-report` bin.
pub fn render_report(r: &JournalReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("journal   {}\n", r.journal));
    out.push_str(&format!("events    {}\n", r.events_total));
    out.push_str("\nevent counts\n");
    for (kind, n) in &r.event_counts {
        out.push_str(&format!("  {kind:<12} {n:>8}\n"));
    }
    out.push_str("\nstage breakdown\n");
    out.push_str(&format!(
        "  {:<12} {:>8} {:>12} {:>12} {:>12}\n",
        "stage", "count", "total_ms", "mean_us", "max_us"
    ));
    for (stage, s) in &r.stages {
        out.push_str(&format!(
            "  {:<12} {:>8} {:>12.3} {:>12.1} {:>12}\n",
            stage,
            s.count,
            s.total_us as f64 / 1e3,
            s.mean_us,
            s.max_us
        ));
    }
    out.push_str("\ntuning\n");
    out.push_str(&format!("  iterations          {:>8}\n", r.iterations));
    out.push_str(&format!("  failures            {:>8}\n", r.failures));
    match r.best {
        Some(b) => out.push_str(&format!("  best                {b:>8.6}\n")),
        None => out.push_str("  best                    none\n"),
    }
    out.push_str(&format!("  fits                {:>8}\n", r.fits));
    out.push_str(&format!("  fit fallbacks       {:>8}\n", r.fit_fallbacks));
    out.push_str(&format!("  restarts            {:>8}\n", r.restarts));
    out.push_str(&format!(
        "  lbfgs iterations    {:>8}\n",
        r.lbfgs_iterations
    ));
    if r.tier_switches > 0 {
        out.push_str(&format!(
            "  surrogate tier      {:>8} ({} switches, n={} m={})\n",
            r.tier_last, r.tier_switches, r.tier_points, r.tier_inducing
        ));
    } else {
        out.push_str("  surrogate tier         exact\n");
    }
    if !r.warmstarts.is_empty() {
        out.push_str("\nwarm-started refits\n");
        out.push_str(&format!(
            "  {:<12} {:>8} {:>8} {:>12} {:>12}\n",
            "model", "refits", "reduced", "mean_gain", "mean_iters"
        ));
        for (model, w) in &r.warmstarts {
            let mean = |sum: f64, n: u64| {
                if n == 0 {
                    "-".to_string()
                } else {
                    format!("{:.3}", sum / n as f64)
                }
            };
            out.push_str(&format!(
                "  {:<12} {:>8} {:>8} {:>12} {:>12}\n",
                model,
                w.refits,
                w.reduced,
                mean(w.nll_gain, w.scored),
                mean(w.iterations as f64, w.iter_reports)
            ));
        }
    }
    out.push_str("\nnumerical recoveries\n");
    out.push_str(&format!(
        "  jitter escalations  {:>8}\n",
        r.jitter_escalations
    ));
    out.push_str(&format!(
        "  jitter exhausted    {:>8}\n",
        r.jitter_exhausted
    ));
    out.push_str(&format!(
        "  line-search fails   {:>8}\n",
        r.linesearch_failures
    ));
    out.push_str("\ndatabase\n");
    out.push_str(&format!("  records scanned     {:>8}\n", r.db_scanned));
    out.push_str(&format!("  records returned    {:>8}\n", r.db_returned));
    out.push_str(&format!("  records denied      {:>8}\n", r.db_denied));
    out.push_str(&format!("  cache hits          {:>8}\n", r.db_cache_hits));
    out.push_str(&format!("  cache misses        {:>8}\n", r.db_cache_misses));
    if r.db_shed > 0 || r.db_stale_served > 0 || r.db_health_transitions > 0 {
        out.push_str(&format!("  requests shed       {:>8}\n", r.db_shed));
        out.push_str(&format!(
            "  deadline exceeded   {:>8}\n",
            r.db_deadline_exceeded
        ));
        out.push_str(&format!("  stale cache serves  {:>8}\n", r.db_stale_served));
        out.push_str(&format!(
            "  health transitions  {:>8}\n",
            r.db_health_transitions
        ));
    }
    out.push_str(&format!(
        "  uploads accepted    {:>8}\n",
        r.uploads_accepted
    ));
    out.push_str(&format!(
        "  uploads rejected    {:>8}\n",
        r.uploads_rejected
    ));
    out.push_str("\nfault tolerance\n");
    out.push_str(&format!("  retries             {:>8}\n", r.retries));
    let faults_total: u64 = r.faults_injected.values().sum();
    out.push_str(&format!("  faults injected     {faults_total:>8}\n"));
    for (kind, n) in &r.faults_injected {
        out.push_str(&format!("    {kind:<16} {n:>8}\n"));
    }
    out.push_str(&format!("  checkpoints         {:>8}\n", r.checkpoints));
    out.push_str(&format!("  recoveries          {:>8}\n", r.recoveries));
    out.push_str(&format!("  torn-tail recoveries{:>8}\n", r.torn_recoveries));
    out.push_str("\nsensitivity\n");
    out.push_str(&format!("  saltelli evals      {:>8}\n", r.saltelli_evals));
    out.push_str(&format!("  sobol estimates     {:>8}\n", r.sobol_estimates));
    out.push_str(&format!(
        "  space reductions    {:>8}\n",
        r.space_reductions
    ));
    if r.quality_scored > 0 || r.calibration_points > 0 || !r.contributors.is_empty() {
        out.push('\n');
        out.push_str(&render_quality(r));
    }
    if !r.profile.is_empty() {
        out.push_str(&format!(
            "\nprofile   {} folded stacks, max depth {} (render with --profile)\n",
            r.profile.len(),
            profile_depth(r)
        ));
    }
    out
}

/// Formats the data-quality section on its own — the body of
/// `crowdtune-report --quality`. Covers scorer totals, the per-contributor
/// rollup (sorted worst-first by flags), and surrogate calibration.
pub fn render_quality(r: &JournalReport) -> String {
    let mut out = String::new();
    out.push_str("data quality\n");
    out.push_str(&format!("  uploads scored      {:>8}\n", r.quality_scored));
    out.push_str(&format!("  outliers flagged    {:>8}\n", r.quality_flagged));
    out.push_str(&format!(
        "  duplicate disagree  {:>8}\n",
        r.quality_duplicates
    ));
    out.push_str(&format!("  quarantined         {:>8}\n", r.quarantined));
    if r.quality_scored > 0 {
        out.push_str(&format!(
            "  outlier rate        {:>8.4}\n",
            r.quality_flagged as f64 / r.quality_scored as f64
        ));
    }
    if !r.contributors.is_empty() {
        out.push_str("\ncontributors (worst first)\n");
        out.push_str(&format!(
            "  {:<16} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}\n",
            "contributor", "uploads", "scored", "flagged", "quarant", "dup", "worst_score"
        ));
        let mut rows: Vec<(&String, &ContributorQuality)> = r.contributors.iter().collect();
        rows.sort_by(|a, b| {
            (b.1.flagged + b.1.quarantined)
                .cmp(&(a.1.flagged + a.1.quarantined))
                .then_with(|| a.0.cmp(b.0))
        });
        for (name, c) in rows {
            let worst = match c.worst_score {
                Some(w) => format!("{w:>12.2}"),
                None => format!("{:>12}", "-"),
            };
            out.push_str(&format!(
                "  {:<16} {:>8} {:>8} {:>8} {:>8} {:>10} {worst}\n",
                name, c.uploads, c.scored, c.flagged, c.quarantined, c.duplicates
            ));
        }
    }
    out.push_str("\ncalibration\n");
    out.push_str(&format!(
        "  points scored       {:>8}\n",
        r.calibration_points
    ));
    match r.coverage90 {
        Some(c) => out.push_str(&format!("  coverage@90         {c:>8.4}\n")),
        None => out.push_str("  coverage@90             none\n"),
    }
    match r.calibration_nll_pp {
        Some(n) => out.push_str(&format!("  nll per point       {n:>8.4}\n")),
        None => out.push_str("  nll per point           none\n"),
    }
    match r.calibration_drift {
        Some(d) => out.push_str(&format!("  nll drift           {d:>8.4}\n")),
        None => out.push_str("  nll drift               none\n"),
    }
    out
}

/// The contributor with the most flagged + quarantined records, if any
/// contributor has at least one. This is what "names the injected bad
/// contributor" means operationally: smokes assert on this value.
pub fn worst_contributor(r: &JournalReport) -> Option<(&str, &ContributorQuality)> {
    r.contributors
        .iter()
        .filter(|(_, c)| c.flagged + c.quarantined > 0)
        .max_by(|a, b| {
            (a.1.flagged + a.1.quarantined)
                .cmp(&(b.1.flagged + b.1.quarantined))
                .then_with(|| b.0.cmp(a.0))
        })
        .map(|(name, c)| (name.as_str(), c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmstarts_are_summarized_per_model() {
        let warm = |model: &str, warm_nll, reduced, iterations| Event::Warmstart {
            model: model.into(),
            warm_nll,
            best_nll: Some(1.0),
            restarts: 1,
            reduced,
            iterations,
        };
        let events = vec![
            warm("gp", Some(1.5), false, None),
            warm("lcm", Some(3.0), true, Some(4)),
            warm("lcm", Some(2.0), true, Some(10)),
            warm("lcm", None, false, Some(7)),
        ];
        let r = summarize("j", &events);
        let gp = &r.warmstarts["gp"];
        assert_eq!(
            (gp.refits, gp.reduced, gp.scored, gp.iter_reports),
            (1, 0, 1, 0)
        );
        let lcm = &r.warmstarts["lcm"];
        assert_eq!((lcm.refits, lcm.reduced, lcm.scored), (3, 2, 2));
        assert_eq!((lcm.iter_reports, lcm.iterations), (3, 21));
        assert_eq!(lcm.nll_gain, 3.0);
        let text = render_report(&r);
        assert!(text.contains("warm-started refits"), "{text}");
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with("lcm"))
            .unwrap();
        assert!(row.contains("1.500") && row.contains("7.000"), "{row}");
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with("gp "))
            .unwrap();
        assert!(row.trim_end().ends_with('-'), "{row}");
    }

    #[test]
    fn summarize_counts_stages_and_recoveries() {
        let events = vec![
            Event::RunStart {
                run: "t".into(),
                tuner: "notla".into(),
                dim: 2,
                budget: 4,
                seed: 1,
            },
            Event::Iteration {
                iter: 0,
                point: vec![0.5, 0.5],
                value: Some(1.0),
                ok: true,
                proposed_by: "init".into(),
                best: Some(1.0),
                duration_us: 10,
            },
            Event::Iteration {
                iter: 1,
                point: vec![0.1, 0.9],
                value: None,
                ok: false,
                proposed_by: "ei".into(),
                best: Some(1.0),
                duration_us: 30,
            },
            Event::Jitter {
                dim: 8,
                jitter: 1e-8,
                attempts: 3,
                recovered: true,
            },
            Event::LineSearch { iteration: 4 },
            Event::Upload {
                accepted: 5,
                rejected: 1,
                contributor: "alice".into(),
                batch: 1,
                duration_us: 7,
            },
        ];
        let r = summarize("j.jsonl", &events);
        assert_eq!(r.events_total, 6);
        assert_eq!(r.iterations, 2);
        assert_eq!(r.failures, 1);
        assert_eq!(r.best, Some(1.0));
        assert_eq!(r.jitter_escalations, 1);
        assert_eq!(r.linesearch_failures, 1);
        assert_eq!(r.uploads_accepted, 5);
        assert_eq!(r.uploads_rejected, 1);
        let it = &r.stages["iteration"];
        assert_eq!(it.count, 2);
        assert_eq!(it.total_us, 40);
        assert_eq!(it.max_us, 30);
        let rendered = render_report(&r);
        assert!(rendered.contains("jitter escalations"));
        assert!(rendered.contains("iteration"));
    }

    #[test]
    fn profile_events_merge_into_collapsed_stacks() {
        let mut a = BTreeMap::new();
        a.insert("tune".to_string(), 100u64);
        a.insert("tune;propose".to_string(), 60);
        a.insert("tune;propose;gp_fit".to_string(), 40);
        let mut b = BTreeMap::new();
        b.insert("tune;propose".to_string(), 10u64);
        b.insert("tune;eval".to_string(), 25);
        let events = vec![Event::Profile { folded: a }, Event::Profile { folded: b }];
        let r = summarize("p.jsonl", &events);
        assert_eq!(r.profile["tune;propose"], 70, "same paths must merge");
        assert_eq!(r.profile["tune;eval"], 25);
        assert_eq!(profile_depth(&r), 3);
        let folded = render_profile(&r);
        assert!(folded.contains("tune;propose;gp_fit 40\n"));
        // Every line is `path value`, flamegraph-compatible.
        for line in folded.lines() {
            let (path, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn fault_tolerance_events_are_rolled_up() {
        let events = vec![
            Event::Retry {
                iter: 3,
                attempt: 1,
                backoff_s: 1.0,
                error: "transient: node failure".into(),
            },
            Event::Retry {
                iter: 3,
                attempt: 2,
                backoff_s: 2.0,
                error: "transient: node failure".into(),
            },
            Event::FaultInject {
                index: 9,
                kind: "transient".into(),
                detail: "simulated node failure".into(),
                doc: 0,
            },
            Event::FaultInject {
                index: 11,
                kind: "noise".into(),
                detail: "flaky episode x4.0".into(),
                doc: 42,
            },
            Event::Checkpoint {
                iter: 5,
                bytes: 2048,
                key: "ckpt/run".into(),
            },
            Event::Recovery {
                source: "wal".into(),
                docs: 12,
                records: 4,
                torn: true,
                resumed_iter: None,
            },
            Event::Recovery {
                source: "checkpoint".into(),
                docs: 5,
                records: 0,
                torn: false,
                resumed_iter: Some(5),
            },
        ];
        let r = summarize("f.jsonl", &events);
        assert_eq!(r.retries, 2);
        assert_eq!(r.faults_injected["transient"], 1);
        assert_eq!(r.faults_injected["noise"], 1);
        assert_eq!(r.checkpoints, 1);
        assert_eq!(r.recoveries, 2);
        assert_eq!(r.torn_recoveries, 1);
        let rendered = render_report(&r);
        assert!(rendered.contains("fault tolerance"));
        assert!(rendered.contains("faults injected"));
        assert!(rendered.contains("torn-tail recoveries"));
    }

    #[test]
    fn quality_events_roll_up_per_contributor() {
        let events = vec![
            Event::Upload {
                accepted: 3,
                rejected: 0,
                contributor: "mallory".into(),
                batch: 1,
                duration_us: 5,
            },
            Event::QualityScore {
                iter: 4,
                doc: 7,
                contributor: "mallory".into(),
                residual: Some(9.0),
                score: Some(12.5),
                flagged: true,
                duplicate: false,
            },
            Event::QualityScore {
                iter: 5,
                doc: 8,
                contributor: "alice".into(),
                residual: Some(0.2),
                score: Some(0.4),
                flagged: false,
                duplicate: false,
            },
            Event::Quarantine {
                iter: 4,
                doc: 7,
                contributor: "mallory".into(),
                reason: "outlier".into(),
                state: "flagged".into(),
            },
            Event::Calibration {
                model: "gp".into(),
                points: 20,
                coverage90: Some(0.85),
                nll_pp: Some(1.3),
                drift: Some(0.1),
                best: Some(0.01),
            },
        ];
        let r = summarize("q.jsonl", &events);
        assert_eq!(r.quality_scored, 2);
        assert_eq!(r.quality_flagged, 1);
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.calibration_points, 20);
        assert_eq!(r.coverage90, Some(0.85));
        let m = &r.contributors["mallory"];
        assert_eq!(m.uploads, 3);
        assert_eq!(m.flagged, 1);
        assert_eq!(m.quarantined, 1);
        assert_eq!(m.worst_score, Some(12.5));
        assert_eq!(r.contributors["alice"].flagged, 0);
        let (worst, _) = worst_contributor(&r).expect("has flagged contributor");
        assert_eq!(worst, "mallory");
        let rendered = render_quality(&r);
        assert!(rendered.contains("data quality"));
        assert!(rendered.contains("mallory"));
        assert!(rendered.contains("coverage@90"));
        assert!(render_report(&r).contains("data quality"));
    }

    #[test]
    fn sensitivity_events_are_rolled_up() {
        let events = vec![
            Event::Saltelli {
                dim: 3,
                n: 64,
                total_evals: 320,
                scheme: "sobol".into(),
                duration_us: 120,
            },
            Event::Sobol {
                dim: 3,
                n: 64,
                bootstrap: 100,
                variance: Some(2.5),
                duration_us: 450,
            },
            Event::SpaceReduce {
                full_dim: 3,
                kept: 2,
                fixed: 1,
            },
        ];
        let r = summarize("s.jsonl", &events);
        assert_eq!(r.saltelli_evals, 320);
        assert_eq!(r.sobol_estimates, 1);
        assert_eq!(r.space_reductions, 1);
        assert_eq!(r.stages["saltelli"].count, 1);
        assert_eq!(r.stages["sobol"].total_us, 450);
        assert!(render_report(&r).contains("saltelli evals"));
    }
}
