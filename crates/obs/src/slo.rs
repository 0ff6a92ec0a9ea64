//! Declarative service-level objectives evaluated over trace journals.
//!
//! An [`SloFile`] (JSON on disk) declares objectives against the crowd
//! service: latency quantile bounds per op kind (optionally per stage),
//! error-rate ceilings over counter pairs, and must-stay-zero counters
//! (e.g. `obs.trace_dropped` for "no trace record lost").
//!
//! Latency objectives are evaluated over *sliding windows* of trace time
//! with multi-window burn rates, following the standard SRE recipe: the
//! burn rate of a window is `bad_fraction / error_budget` where the error
//! budget of a q-quantile objective is `1 - q` (a p99 objective tolerates
//! 1% slow requests; burning at exactly budget is burn rate 1.0). An
//! objective is **breached** only when every configured window (fast and
//! slow) that has samples burns above the threshold — the fast window
//! makes the signal responsive, the slow window keeps one latency spike
//! from paging. Counter objectives are point-in-time over a
//! [`MetricsSnapshot`].

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::trace::{OpKind, TraceRecord, TraceStage};

/// Sliding-window lengths for burn-rate evaluation, microseconds of
/// trace time, anchored at the newest record in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindows {
    /// Fast window (responsiveness), e.g. 2_000_000 µs.
    pub fast_us: u64,
    /// Slow window (stability), e.g. 20_000_000 µs. Must be ≥ fast.
    pub slow_us: u64,
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
pub enum SloObjective {
    /// Latency quantile bound: the q-quantile of `stage` durations for
    /// `op` must stay under `max_us`, burn-rate evaluated per window.
    Latency {
        /// Objective name, used in reports and metric labels.
        name: String,
        /// Op kind name (`upload`, `query`, ...) as in [`OpKind::as_str`].
        op: String,
        /// Stage name as in [`TraceStage::as_str`]; defaults to `op`
        /// (the end-to-end stage) when omitted.
        stage: Option<String>,
        /// Quantile in (0, 1), e.g. 0.99.
        q: f64,
        /// Duration bound in microseconds.
        max_us: f64,
    },
    /// Error-rate ceiling: `bad / total` counters must stay ≤ `max`.
    Error {
        /// Objective name.
        name: String,
        /// Counter holding the failure count.
        bad: String,
        /// Counter holding the attempt count.
        total: String,
        /// Maximum tolerated failure fraction in [0, 1].
        max: f64,
    },
    /// Must-stay-zero counter (e.g. dropped trace records).
    Zero {
        /// Objective name.
        name: String,
        /// Counter that must read zero.
        counter: String,
    },
    /// Data-quality ratio objective over a counter pair. With no
    /// `target` the observed value is the raw ratio `bad / total`
    /// (e.g. outlier rate from `quality.outliers_flagged` over
    /// `quality.uploads_scored`). With a `target` the observed value is
    /// the absolute deviation `|bad / total - target|` (e.g. coverage
    /// error against 0.90 from `calibration.points_inside90` over
    /// `calibration.points_scored`). Breaches when observed > `max`.
    Quality {
        /// Objective name.
        name: String,
        /// Counter holding the numerator (flagged / inside-interval).
        bad: String,
        /// Counter holding the denominator (scored points).
        total: String,
        /// Optional target ratio; when set, the objective bounds the
        /// deviation from it rather than the ratio itself.
        target: Option<f64>,
        /// Maximum tolerated observed value in [0, 1].
        max: f64,
    },
}

impl SloObjective {
    /// The objective's display name.
    pub fn name(&self) -> &str {
        match self {
            SloObjective::Latency { name, .. }
            | SloObjective::Error { name, .. }
            | SloObjective::Zero { name, .. }
            | SloObjective::Quality { name, .. } => name,
        }
    }
}

/// A parsed SLO spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloFile {
    /// Burn-rate windows shared by all latency objectives.
    pub windows: SloWindows,
    /// Burn-rate threshold; breach requires every window to exceed it.
    /// Defaults to 1.0 (burning exactly the error budget).
    pub burn_threshold: Option<f64>,
    /// The objectives to evaluate.
    pub objectives: Vec<SloObjective>,
}

/// Burn-rate evaluation of one window of one objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowBurn {
    /// Window length in µs (0 for point-in-time counter objectives).
    pub window_us: u64,
    /// Samples that fell inside the window.
    pub samples: u64,
    /// Samples that violated the objective bound.
    pub bad: u64,
    /// `bad_fraction / error_budget`; `bad_fraction` for counter
    /// objectives (budget 1).
    pub burn: f64,
    /// Observed value: the q-quantile latency in µs for latency
    /// objectives, the counter/ratio value otherwise.
    pub observed: f64,
}

/// Evaluation outcome of one objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloOutcome {
    /// Objective name.
    pub name: String,
    /// Objective kind (`latency`, `error`, `zero`).
    pub kind: String,
    /// Whether every populated window burned above threshold.
    pub breached: bool,
    /// Human-readable bound description.
    pub detail: String,
    /// Per-window burn rates (one `window_us: 0` entry for counters).
    pub windows: Vec<WindowBurn>,
}

/// Full evaluation of an [`SloFile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Burn threshold the breach decisions used.
    pub burn_threshold: f64,
    /// One outcome per objective, in file order.
    pub outcomes: Vec<SloOutcome>,
}

impl SloReport {
    /// Whether any objective breached.
    pub fn any_breached(&self) -> bool {
        self.outcomes.iter().any(|o| o.breached)
    }
}

/// Exact order-statistic quantile with linear interpolation over an
/// unsorted slice of durations (ns). Returns 0 for an empty slice.
fn quantile_ns(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        values[lo] as f64
    } else {
        let frac = rank - lo as f64;
        values[lo] as f64 * (1.0 - frac) + values[hi] as f64 * frac
    }
}

/// The fields of one `latency` objective, borrowed out of the enum
/// variant for evaluation.
struct LatencySpec<'a> {
    name: &'a str,
    op: &'a str,
    stage: Option<&'a str>,
    q: f64,
    max_us: f64,
}

fn latency_outcome(
    spec: &LatencySpec<'_>,
    windows: &SloWindows,
    threshold: f64,
    traces: &[TraceRecord],
) -> SloOutcome {
    let LatencySpec {
        name,
        op,
        stage,
        q,
        max_us,
    } = *spec;
    let stage_name = stage.unwrap_or("op");
    let want_op = OpKind::parse(op);
    let want_stage = TraceStage::parse(stage_name);
    // (end_ns, dur_ns) for every matching record.
    let samples: Vec<(u64, u64)> = traces
        .iter()
        .filter(|r| Some(r.op) == want_op && Some(r.stage) == want_stage)
        .map(|r| (r.start_ns + r.dur_ns, r.dur_ns))
        .collect();
    let anchor_ns = samples.iter().map(|(end, _)| *end).max().unwrap_or(0);
    let budget = (1.0 - q).max(1e-9);
    let mut burns = Vec::new();
    for window_us in [windows.fast_us, windows.slow_us] {
        let window_ns = window_us.saturating_mul(1000);
        let cutoff = anchor_ns.saturating_sub(window_ns);
        let mut durs: Vec<u64> = samples
            .iter()
            .filter(|(end, _)| *end >= cutoff)
            .map(|(_, d)| *d)
            .collect();
        let bad = durs.iter().filter(|d| **d as f64 / 1000.0 > max_us).count() as u64;
        let n = durs.len() as u64;
        let bad_frac = if n == 0 { 0.0 } else { bad as f64 / n as f64 };
        burns.push(WindowBurn {
            window_us,
            samples: n,
            bad,
            burn: bad_frac / budget,
            observed: quantile_ns(&mut durs, q) / 1000.0,
        });
    }
    // Breach only when every window that saw traffic burns hot; an
    // objective with no samples anywhere does not breach.
    let populated: Vec<&WindowBurn> = burns.iter().filter(|w| w.samples > 0).collect();
    let breached = !populated.is_empty() && populated.iter().all(|w| w.burn > threshold);
    SloOutcome {
        name: name.to_string(),
        kind: "latency".to_string(),
        breached,
        detail: format!("{op}/{stage_name} p{:.4} <= {max_us} us", q * 100.0),
        windows: burns,
    }
}

fn counter(snapshot: Option<&MetricsSnapshot>, name: &str) -> u64 {
    snapshot
        .and_then(|s| s.counters.get(name).copied())
        .unwrap_or(0)
}

/// Evaluate an SLO spec against a trace journal and (optionally) a
/// metrics snapshot for the counter-based objectives.
pub fn evaluate_slos(
    file: &SloFile,
    traces: &[TraceRecord],
    snapshot: Option<&MetricsSnapshot>,
) -> SloReport {
    let threshold = file.burn_threshold.unwrap_or(1.0);
    let outcomes = file
        .objectives
        .iter()
        .map(|obj| match obj {
            SloObjective::Latency {
                name,
                op,
                stage,
                q,
                max_us,
            } => latency_outcome(
                &LatencySpec {
                    name,
                    op,
                    stage: stage.as_deref(),
                    q: *q,
                    max_us: *max_us,
                },
                &file.windows,
                threshold,
                traces,
            ),
            SloObjective::Error {
                name,
                bad,
                total,
                max,
            } => {
                let bad_n = counter(snapshot, bad);
                let total_n = counter(snapshot, total);
                let frac = if total_n == 0 {
                    0.0
                } else {
                    bad_n as f64 / total_n as f64
                };
                SloOutcome {
                    name: name.clone(),
                    kind: "error".to_string(),
                    breached: frac > *max,
                    detail: format!("{bad} / {total} <= {max}"),
                    windows: vec![WindowBurn {
                        window_us: 0,
                        samples: total_n,
                        bad: bad_n,
                        burn: if *max > 0.0 { frac / *max } else { frac },
                        observed: frac,
                    }],
                }
            }
            SloObjective::Quality {
                name,
                bad,
                total,
                target,
                max,
            } => {
                let bad_n = counter(snapshot, bad);
                let total_n = counter(snapshot, total);
                let ratio = if total_n == 0 {
                    // No scored points: observe the target itself (zero
                    // deviation) so an idle run never breaches.
                    target.unwrap_or(0.0)
                } else {
                    bad_n as f64 / total_n as f64
                };
                let observed = match target {
                    Some(t) => (ratio - t).abs(),
                    None => ratio,
                };
                let detail = match target {
                    Some(t) => format!("|{bad} / {total} - {t}| <= {max}"),
                    None => format!("{bad} / {total} <= {max}"),
                };
                SloOutcome {
                    name: name.clone(),
                    kind: "quality".to_string(),
                    breached: observed > *max,
                    detail,
                    windows: vec![WindowBurn {
                        window_us: 0,
                        samples: total_n,
                        bad: bad_n,
                        burn: if *max > 0.0 {
                            observed / *max
                        } else {
                            observed
                        },
                        observed,
                    }],
                }
            }
            SloObjective::Zero { name, counter: c } => {
                let v = counter(snapshot, c);
                SloOutcome {
                    name: name.clone(),
                    kind: "zero".to_string(),
                    breached: v != 0,
                    detail: format!("{c} == 0"),
                    windows: vec![WindowBurn {
                        window_us: 0,
                        samples: v,
                        bad: v,
                        burn: v as f64,
                        observed: v as f64,
                    }],
                }
            }
        })
        .collect();
    SloReport {
        burn_threshold: threshold,
        outcomes,
    }
}

/// Parse an SLO spec file (JSON).
pub fn parse_slo_file(path: impl AsRef<Path>) -> Result<SloFile, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
    let value = serde_json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    SloFile::from_value(&value).map_err(|e| format!("invalid SLO spec: {e}"))
}

/// Render an [`SloReport`] as a human-readable text section.
pub fn render_slo_report(report: &SloReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SLO report (burn threshold {:.2})\n",
        report.burn_threshold
    ));
    for o in &report.outcomes {
        let status = if o.breached { "BREACH" } else { "ok" };
        out.push_str(&format!("  [{status:>6}] {} — {}\n", o.name, o.detail));
        for w in &o.windows {
            if w.window_us == 0 {
                out.push_str(&format!(
                    "           point-in-time: observed {:.4} (bad {} / {})\n",
                    w.observed, w.bad, w.samples
                ));
            } else {
                out.push_str(&format!(
                    "           window {:>9} us: {} samples, {} bad, burn {:.3}, observed {:.1} us\n",
                    w.window_us, w.samples, w.bad, w.burn, w.observed
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpKind, stage: TraceStage, start_us: u64, dur_us: u64) -> TraceRecord {
        TraceRecord {
            trace: 1,
            client: 0,
            op,
            stage,
            shard: 0,
            start_ns: start_us * 1000,
            dur_ns: dur_us * 1000,
            link: 0,
        }
    }

    fn latency_file(q: f64, max_us: f64) -> SloFile {
        SloFile {
            windows: SloWindows {
                fast_us: 1_000,
                slow_us: 1_000_000,
            },
            burn_threshold: None,
            objectives: vec![SloObjective::Latency {
                name: "upload-p99".to_string(),
                op: "upload".to_string(),
                stage: None,
                q,
                max_us,
            }],
        }
    }

    #[test]
    fn healthy_traffic_does_not_breach() {
        let traces: Vec<TraceRecord> = (0..100)
            .map(|i| rec(OpKind::Upload, TraceStage::Op, i * 10, 50))
            .collect();
        let report = evaluate_slos(&latency_file(0.99, 100.0), &traces, None);
        assert!(!report.any_breached());
        assert_eq!(report.outcomes[0].windows.len(), 2);
        assert!(report.outcomes[0].windows[1].observed <= 100.0);
    }

    #[test]
    fn sustained_slowness_breaches_all_windows() {
        // Every request blows the 100 µs bound in both windows: burn
        // rate 1/0.01 = 100 ≫ 1.
        let traces: Vec<TraceRecord> = (0..100)
            .map(|i| rec(OpKind::Upload, TraceStage::Op, i * 10, 500))
            .collect();
        let report = evaluate_slos(&latency_file(0.99, 100.0), &traces, None);
        assert!(report.any_breached());
        for w in &report.outcomes[0].windows {
            assert!(w.burn > 1.0);
        }
    }

    #[test]
    fn old_spike_outside_fast_window_does_not_breach() {
        // A burst of slow requests long ago, healthy traffic since: the
        // slow window still burns, but the fast window is clean, so the
        // multi-window rule holds the alarm.
        let mut traces: Vec<TraceRecord> = (0..50)
            .map(|i| rec(OpKind::Upload, TraceStage::Op, i, 500))
            .collect();
        traces.extend((0..50).map(|i| rec(OpKind::Upload, TraceStage::Op, 10_000 + i * 10, 50)));
        let report = evaluate_slos(&latency_file(0.99, 100.0), &traces, None);
        assert!(!report.any_breached());
        let windows = &report.outcomes[0].windows;
        assert!(windows[0].burn <= 1.0, "fast window clean");
        assert!(windows[1].burn > 1.0, "slow window saw the spike");
    }

    #[test]
    fn counter_objectives_use_snapshot() {
        let mut snap = MetricsSnapshot {
            counters: Default::default(),
            histograms: Default::default(),
        };
        snap.counters.insert("obs.trace_dropped".to_string(), 0);
        snap.counters
            .insert("db.wal_torn_recoveries".to_string(), 3);
        snap.counters.insert("db.wal_appends".to_string(), 10);
        let file = SloFile {
            windows: SloWindows {
                fast_us: 1,
                slow_us: 2,
            },
            burn_threshold: Some(1.0),
            objectives: vec![
                SloObjective::Zero {
                    name: "no-drops".to_string(),
                    counter: "obs.trace_dropped".to_string(),
                },
                SloObjective::Error {
                    name: "torn-rate".to_string(),
                    bad: "db.wal_torn_recoveries".to_string(),
                    total: "db.wal_appends".to_string(),
                    max: 0.01,
                },
            ],
        };
        let report = evaluate_slos(&file, &[], Some(&snap));
        assert!(!report.outcomes[0].breached);
        assert!(report.outcomes[1].breached);
        assert!((report.outcomes[1].windows[0].observed - 0.3).abs() < 1e-12);
    }

    #[test]
    fn quality_objectives_bound_rates_and_target_deviation() {
        let mut snap = MetricsSnapshot {
            counters: Default::default(),
            histograms: Default::default(),
        };
        snap.counters
            .insert("quality.outliers_flagged".to_string(), 8);
        snap.counters
            .insert("quality.uploads_scored".to_string(), 100);
        snap.counters
            .insert("calibration.points_inside90".to_string(), 70);
        snap.counters
            .insert("calibration.points_scored".to_string(), 100);
        let file = SloFile {
            windows: SloWindows {
                fast_us: 1,
                slow_us: 2,
            },
            burn_threshold: Some(1.0),
            objectives: vec![
                SloObjective::Quality {
                    name: "outlier-rate".to_string(),
                    bad: "quality.outliers_flagged".to_string(),
                    total: "quality.uploads_scored".to_string(),
                    target: None,
                    max: 0.05,
                },
                SloObjective::Quality {
                    name: "coverage-error".to_string(),
                    bad: "calibration.points_inside90".to_string(),
                    total: "calibration.points_scored".to_string(),
                    target: Some(0.90),
                    max: 0.25,
                },
                SloObjective::Quality {
                    name: "idle-no-breach".to_string(),
                    bad: "quality.outliers_flagged".to_string(),
                    total: "nonexistent.counter".to_string(),
                    target: Some(0.90),
                    max: 0.01,
                },
            ],
        };
        let report = evaluate_slos(&file, &[], Some(&snap));
        // 8% outlier rate over a 5% ceiling: breach.
        assert!(report.outcomes[0].breached);
        assert!((report.outcomes[0].windows[0].observed - 0.08).abs() < 1e-12);
        // Coverage 0.70 vs target 0.90 → deviation 0.20 ≤ 0.25: ok.
        assert!(!report.outcomes[1].breached);
        assert!((report.outcomes[1].windows[0].observed - 0.20).abs() < 1e-12);
        // No scored points: never breaches.
        assert!(!report.outcomes[2].breached);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let file = latency_file(0.99, 123.0);
        let text = serde_json::to_string(&file.to_value()).unwrap();
        let back = SloFile::from_value(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        let report = evaluate_slos(&back, &[], None);
        assert!(!report.any_breached(), "no samples → no breach");
        assert!(!render_slo_report(&report).is_empty());
    }
}
