//! Performance regression gate over the benchmark trajectory.
//!
//! Each benchmarked run appends one [`TrajectoryEntry`] to
//! `results/bench_trajectory.json`: a label, the rayon thread count, and
//! a map of *dimensionless, higher-is-worse* stats distilled from two
//! sources:
//!
//! - `results/bench_hotpath.json` → `cost.<substrate>` = `1 / speedup`
//!   for every substrate (the reciprocal keeps "bigger = slower").
//! - the obs journal → `norm.<stage>` = mean stage microseconds divided
//!   by the same run's `matmul_256` optimized nanoseconds. Dividing by a
//!   fixed compute substrate measured in the same process calibrates out
//!   absolute machine speed, so trajectories recorded on different
//!   hardware stay comparable.
//!
//! [`check`] compares the current stats against the **median** of each
//! stat's history (the median is robust to one noisy entry) and flags
//! any stat that exceeds `baseline * (1 + band)`. The default band of
//! 0.75 tolerates CI jitter while a genuine 2x regression still fails.
//! A stat with no history at the run's thread count fails too: only
//! `bench_gate --record` may give it a baseline.

use std::collections::BTreeMap;
use std::path::Path;

use crowdtune_obs::{summarize, Event};
use serde::{Deserialize, Serialize};

/// Default relative noise band: current > baseline * (1 + band) fails.
pub const DEFAULT_BAND: f64 = 0.75;

/// One benchmarked run in the trajectory history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Human label for the run (commit, CI job, "local").
    pub label: String,
    /// Rayon thread count the benchmarks ran under.
    pub threads: usize,
    /// Dimensionless higher-is-worse stats keyed by name.
    pub stats: BTreeMap<String, f64>,
}

/// Parsed shape of `results/bench_hotpath.json`.
#[derive(Debug, Deserialize)]
struct HotpathJson {
    threads: usize,
    substrates: Vec<HotpathSubstrate>,
    /// Crowd-service load-generator detail, merged in by `crowd_load`.
    #[serde(default)]
    crowd: Option<CrowdJson>,
    /// Overload-scenario detail, merged in by `crowd_load --overload`.
    #[serde(default)]
    overload: Option<OverloadJson>,
}

#[derive(Debug, Deserialize)]
struct HotpathSubstrate {
    name: String,
    median_ns_after: u64,
    speedup: f64,
    /// Optional single-operation latency quantiles (the sparse-tier
    /// substrates emit the per-candidate predict tail). When both are
    /// present the gate tracks `tail.<name>` = p99/p50.
    #[serde(default)]
    p50_ns: Option<f64>,
    #[serde(default)]
    p99_ns: Option<f64>,
}

/// The `crowd` detail block `crowd_load` merges into the hotpath file.
/// Only the fields the gate tracks are parsed; the block carries more
/// (throughputs, cache counters) for humans.
#[derive(Debug, Deserialize)]
struct CrowdJson {
    name: String,
    p50_us: f64,
    p99_us: f64,
    /// Traced/untraced read-p50 ratio, present when `crowd_load` ran
    /// with `--trace`.
    #[serde(default)]
    trace_overhead: Option<f64>,
}

/// The `overload` block `crowd_load --overload` merges into the hotpath
/// file. Only the fields the gate tracks are parsed; the block carries
/// more (verdict counts, fingerprint) for humans.
#[derive(Debug, Deserialize)]
struct OverloadJson {
    name: String,
    admitted: u64,
    shed: u64,
    p99_us: f64,
    p99_bound_us: f64,
}

/// One tracked stat regressing past the noise band.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Stat name (`cost.lcm_fit_n260`, `norm.fit`, ...).
    pub stat: String,
    /// Median of the stat over the trajectory history.
    pub baseline: f64,
    /// Value in the run under test.
    pub current: f64,
}

impl Regression {
    /// `current / baseline` — 2.0 means twice as slow as the baseline.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// What [`check`] found: the stats past the noise band, and the stats
/// the trajectory holds no baseline for. Either kind fails the gate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Verdict {
    /// Stats exceeding `baseline * (1 + band)`.
    pub regressions: Vec<Regression>,
    /// Stats the run measured that no trajectory entry at its thread
    /// count holds, in name order.
    pub unbaselined: Vec<String>,
}

impl Verdict {
    /// True when no stat regressed and every stat had a baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.unbaselined.is_empty()
    }

    /// Readable failure report: the regressions worst first (see
    /// [`render_regressions`]), then every unbaselined stat by name.
    pub fn render(&self, band: f64, threads: usize) -> String {
        let mut out = String::new();
        if !self.regressions.is_empty() {
            out.push_str(&render_regressions(&self.regressions, band));
        }
        if !self.unbaselined.is_empty() {
            out.push_str(&format!(
                "no baseline at threads={threads} for {} stat(s); record one with bench_gate --record:\n",
                self.unbaselined.len()
            ));
            for stat in &self.unbaselined {
                out.push_str(&format!("  {stat}\n"));
            }
        }
        out
    }
}

/// Distills hotpath results and journal events into the gate's stat map,
/// plus the thread count the benchmarks ran under.
///
/// Journal-derived stats are skipped (not zeroed) when the journal has
/// no events for a stage, so they never produce spurious baselines.
pub fn collect_stats(
    hotpath_json: &str,
    journal_events: &[Event],
) -> Result<(usize, BTreeMap<String, f64>), String> {
    let hotpath: HotpathJson =
        serde_json::from_str(hotpath_json).map_err(|e| format!("bad hotpath json: {e}"))?;
    let mut stats = BTreeMap::new();
    let mut matmul_ns = None;
    for sub in &hotpath.substrates {
        if sub.speedup > 0.0 {
            stats.insert(format!("cost.{}", sub.name), 1.0 / sub.speedup);
        }
        // Per-operation latency tail (dimensionless, higher-is-worse):
        // a predict path that grows a lock, an allocation, or a cache
        // pathology fattens p99 long before the median moves.
        if let (Some(p50), Some(p99)) = (sub.p50_ns, sub.p99_ns) {
            if p50 > 0.0 {
                stats.insert(format!("tail.{}", sub.name), p99 / p50);
            }
        }
        if sub.name == "matmul_256" {
            matmul_ns = Some(sub.median_ns_after as f64);
        }
    }
    if let Some(crowd) = &hotpath.crowd {
        // Tail-latency ratio of the crowd read path: dimensionless and
        // higher-is-worse, so a fairness collapse under load (p99
        // ballooning while p50 stays flat) trips the gate even when
        // throughput still looks fine.
        if crowd.p50_us > 0.0 {
            stats.insert(format!("tail.{}", crowd.name), crowd.p99_us / crowd.p50_us);
        }
        // Tracing tax on the read path: the traced/untraced p50 ratio
        // is already dimensionless and higher-is-worse. Against the
        // default band, the gate holds it to 1.75x its trajectory
        // median, so an always-on probe that grows a lock or allocation
        // fails loudly.
        if let Some(overhead) = crowd.trace_overhead {
            if overhead > 0.0 {
                stats.insert(format!("trace.{}", crowd.name), overhead);
            }
        }
    }
    if let Some(ov) = &hotpath.overload {
        // Overload health under the canonical injected storm: both are
        // dimensionless and higher-is-worse. A scheduler change that
        // starts shedding a materially larger share of the storm, or
        // lets the admitted tail creep toward the analytic bound, trips
        // the same band as a latency regression.
        let attempts = ov.admitted + ov.shed;
        if attempts > 0 {
            stats.insert(
                format!("overload.shed_rate.{}", ov.name),
                ov.shed as f64 / attempts as f64,
            );
        }
        if ov.p99_bound_us > 0.0 {
            stats.insert(
                format!("overload.tail.{}", ov.name),
                ov.p99_us / ov.p99_bound_us,
            );
        }
    }
    let report = summarize("gate", journal_events);
    if let Some(matmul_ns) = matmul_ns {
        for stage in ["fit", "acquisition", "iteration"] {
            if let Some(s) = report.stages.get(stage) {
                if s.count > 0 {
                    stats.insert(format!("norm.{stage}"), s.mean_us * 1_000.0 / matmul_ns);
                }
            }
        }
    }
    // Data-quality health: already dimensionless and higher-is-worse.
    // A scorer change that starts flagging a materially larger share of
    // uploads, or a surrogate whose interval coverage walks away from
    // its nominal 90%, trips the same band as a latency regression.
    if report.quality_scored > 0 {
        stats.insert(
            "quality.outlier_rate".to_string(),
            report.quality_flagged as f64 / report.quality_scored as f64,
        );
    }
    if let Some(cov) = report.coverage90 {
        stats.insert("quality.coverage_error".to_string(), (cov - 0.90).abs());
    }
    if stats.is_empty() {
        return Err("no stats could be collected (empty hotpath?)".to_string());
    }
    Ok((hotpath.threads, stats))
}

/// Median of a non-empty sample set.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Checks `current` against the per-stat median of `history`.
///
/// Only entries with the same thread count participate in the
/// baseline, since parallel speedups are thread-dependent. A stat with
/// no such entry is reported as unbaselined rather than passed; stats
/// absent from `current` are ignored — the gate only judges what the
/// run under test actually measured.
pub fn check(
    history: &[TrajectoryEntry],
    threads: usize,
    current: &BTreeMap<String, f64>,
    band: f64,
) -> Verdict {
    let mut verdict = Verdict::default();
    for (stat, &value) in current {
        let past: Vec<f64> = history
            .iter()
            .filter(|e| e.threads == threads)
            .filter_map(|e| e.stats.get(stat).copied())
            .collect();
        if past.is_empty() {
            verdict.unbaselined.push(stat.clone());
            continue;
        }
        let baseline = median(past);
        if baseline > 0.0 && value > baseline * (1.0 + band) {
            verdict.regressions.push(Regression {
                stat: stat.clone(),
                baseline,
                current: value,
            });
        }
    }
    verdict
}

/// Renders a readable diff of the regressions, worst first.
fn render_regressions(regressions: &[Regression], band: f64) -> String {
    let mut sorted = regressions.to_vec();
    sorted.sort_by(|a, b| {
        b.ratio()
            .partial_cmp(&a.ratio())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = String::new();
    out.push_str(&format!(
        "performance regression: {} stat(s) exceed baseline * {:.2}\n",
        sorted.len(),
        1.0 + band
    ));
    out.push_str(&format!(
        "  {:<28} {:>12} {:>12} {:>8}\n",
        "stat", "baseline", "current", "ratio"
    ));
    for r in &sorted {
        out.push_str(&format!(
            "  {:<28} {:>12.4} {:>12.4} {:>7.2}x\n",
            r.stat,
            r.baseline,
            r.current,
            r.ratio()
        ));
    }
    out
}

/// Loads the trajectory file; a missing file is an empty history.
pub fn load_trajectory<P: AsRef<Path>>(path: P) -> Result<Vec<TrajectoryEntry>, String> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let data =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&data).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Saves the trajectory as pretty JSON.
pub fn save_trajectory<P: AsRef<Path>>(path: P, history: &[TrajectoryEntry]) -> Result<(), String> {
    let body = serde_json::to_string_pretty(history).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(path.as_ref(), body)
        .map_err(|e| format!("write {}: {e}", path.as_ref().display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOTPATH: &str = r#"{
      "threads": 1,
      "substrates": [
        {"name": "lcm_fit_n260", "median_ns_before": 400000000, "median_ns_after": 160000000, "speedup": 2.5},
        {"name": "matmul_256", "median_ns_before": 5300000, "median_ns_after": 5000000, "speedup": 1.06}
      ]
    }"#;

    fn journal_with_fit(fit_us: u64) -> Vec<Event> {
        vec![
            Event::Fit {
                model: "gp".into(),
                points: 100,
                restarts: 2,
                nll: Some(1.0),
                duration_us: fit_us,
                fallback: false,
                evaluations: None,
                gradients: None,
            },
            Event::Fit {
                model: "gp".into(),
                points: 100,
                restarts: 2,
                nll: Some(1.0),
                duration_us: fit_us,
                fallback: false,
                evaluations: None,
                gradients: None,
            },
        ]
    }

    fn entry(stats: &[(&str, f64)]) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "t".into(),
            threads: 1,
            stats: stats.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn collect_derives_costs_and_normalized_stage_times() {
        let (threads, stats) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        assert_eq!(threads, 1);
        assert!((stats["cost.lcm_fit_n260"] - 0.4).abs() < 1e-12);
        // 10_000 us mean * 1000 / 5_000_000 ns matmul = 2.0
        assert!((stats["norm.fit"] - 2.0).abs() < 1e-12);
        assert!(!stats.contains_key("norm.acquisition"), "no acq events");
    }

    #[test]
    fn substrate_latency_quantiles_contribute_a_tail_stat() {
        let hotpath = r#"{
          "threads": 4,
          "substrates": [
            {"name": "sparse_scale_n10000_smoke", "median_ns_before": 900000, "median_ns_after": 300000,
             "speedup": 3.0, "p50_ns": 4000, "p99_ns": 14000},
            {"name": "tune_loop_n48_smoke", "median_ns_before": 200, "median_ns_after": 100,
             "speedup": 2.0, "allocs_before": 5000, "allocs_after": 900}
          ]
        }"#;
        let (threads, stats) = collect_stats(hotpath, &[]).unwrap();
        assert_eq!(threads, 4);
        assert!((stats["tail.sparse_scale_n10000_smoke"] - 3.5).abs() < 1e-12);
        assert!((stats["cost.sparse_scale_n10000_smoke"] - 1.0 / 3.0).abs() < 1e-12);
        // Quantile-free substrates (with or without extra fields like
        // allocation counts) contribute no tail stat.
        assert!(!stats.contains_key("tail.tune_loop_n48_smoke"));
    }

    #[test]
    fn crowd_block_contributes_a_tail_ratio_stat() {
        let hotpath = r#"{
          "threads": 8,
          "substrates": [
            {"name": "crowd_query", "median_ns_before": 900000, "median_ns_after": 90000, "speedup": 10.0}
          ],
          "crowd": {"name": "crowd_query", "p50_us": 90.0, "p99_us": 450.0, "read_qps": 1.0e6,
                    "trace_overhead": 1.25}
        }"#;
        let (threads, stats) = collect_stats(hotpath, &[]).unwrap();
        assert_eq!(threads, 8);
        assert!((stats["cost.crowd_query"] - 0.1).abs() < 1e-12);
        assert!((stats["tail.crowd_query"] - 5.0).abs() < 1e-12);
        assert!((stats["trace.crowd_query"] - 1.25).abs() < 1e-12);
        // Without the block, no tail or trace stat appears; without
        // `trace_overhead` in the block, only the trace stat is absent.
        let bare = r#"{"threads": 8, "substrates": [
            {"name": "crowd_query", "median_ns_before": 1, "median_ns_after": 1, "speedup": 1.0}]}"#;
        let (_, stats) = collect_stats(bare, &[]).unwrap();
        assert!(!stats.contains_key("tail.crowd_query"));
        assert!(!stats.contains_key("trace.crowd_query"));
        let untraced = r#"{"threads": 8, "substrates": [
            {"name": "crowd_query", "median_ns_before": 1, "median_ns_after": 1, "speedup": 1.0}],
            "crowd": {"name": "crowd_query", "p50_us": 90.0, "p99_us": 450.0}}"#;
        let (_, stats) = collect_stats(untraced, &[]).unwrap();
        assert!((stats["tail.crowd_query"] - 5.0).abs() < 1e-12);
        assert!(!stats.contains_key("trace.crowd_query"));
    }

    #[test]
    fn overload_block_contributes_shed_rate_and_tail_stats() {
        let hotpath = r#"{
          "threads": 8,
          "substrates": [
            {"name": "crowd_query", "median_ns_before": 1, "median_ns_after": 1, "speedup": 1.0}
          ],
          "overload": {"name": "overload_storm_smoke", "seed": 42, "admitted": 300, "shed": 100,
                       "deadline_writes": 20, "p99_us": 84000.0, "p99_bound_us": 336000.0,
                       "recovered_healthy": true}
        }"#;
        let (threads, stats) = collect_stats(hotpath, &[]).unwrap();
        assert_eq!(threads, 8);
        assert!((stats["overload.shed_rate.overload_storm_smoke"] - 0.25).abs() < 1e-12);
        assert!((stats["overload.tail.overload_storm_smoke"] - 0.25).abs() < 1e-12);
        // Without the block, no overload stat appears.
        let bare = r#"{"threads": 8, "substrates": [
            {"name": "crowd_query", "median_ns_before": 1, "median_ns_after": 1, "speedup": 1.0}]}"#;
        let (_, stats) = collect_stats(bare, &[]).unwrap();
        assert!(!stats.keys().any(|k| k.starts_with("overload.")));
    }

    #[test]
    fn quality_events_contribute_rate_and_coverage_stats() {
        let mut events = journal_with_fit(10_000);
        for flagged in [true, false, false, true] {
            events.push(Event::QualityScore {
                iter: 0,
                doc: 0,
                contributor: "alice".into(),
                residual: Some(1.0),
                score: Some(if flagged { 12.0 } else { 0.5 }),
                flagged,
                duplicate: false,
            });
        }
        events.push(Event::Calibration {
            model: "gp".into(),
            points: 4,
            coverage90: Some(0.75),
            nll_pp: Some(1.0),
            drift: None,
            best: None,
        });
        let (_, stats) = collect_stats(HOTPATH, &events).unwrap();
        assert!((stats["quality.outlier_rate"] - 0.5).abs() < 1e-12);
        assert!((stats["quality.coverage_error"] - 0.15).abs() < 1e-12);
        // Without quality events, neither stat appears.
        let (_, bare) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        assert!(!bare.contains_key("quality.outlier_rate"));
        assert!(!bare.contains_key("quality.coverage_error"));
    }

    #[test]
    fn synthetic_two_x_fit_regression_fails_and_names_the_stat() {
        let history = vec![
            entry(&[("norm.fit", 1.0), ("cost.lcm_fit_n260", 0.4)]),
            entry(&[("norm.fit", 1.1), ("cost.lcm_fit_n260", 0.38)]),
            entry(&[("norm.fit", 0.9), ("cost.lcm_fit_n260", 0.42)]),
        ];
        // 2x the median fit time: outside the 0.75 band.
        let (_, current) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        let regressions = check(&history, 1, &current, DEFAULT_BAND).regressions;
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].stat, "norm.fit");
        assert!((regressions[0].baseline - 1.0).abs() < 1e-12);
        assert!((regressions[0].ratio() - 2.0).abs() < 1e-12);
        let diff = render_regressions(&regressions, DEFAULT_BAND);
        assert!(diff.contains("norm.fit"));
        assert!(diff.contains("2.00x"));
    }

    #[test]
    fn stats_within_the_band_pass() {
        let costs = [("cost.lcm_fit_n260", 0.4), ("cost.matmul_256", 0.95)];
        let history = vec![
            entry(&[("norm.fit", 2.0), costs[0], costs[1]]),
            entry(&[("norm.fit", 1.8), costs[0], costs[1]]),
        ];
        // current norm.fit = 2.0: equal to the median, well inside the band.
        let (_, current) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        let verdict = check(&history, 1, &current, DEFAULT_BAND);
        assert!(verdict.passed(), "{verdict:?}");
        assert_eq!(verdict.render(DEFAULT_BAND, 1), "");
    }

    #[test]
    fn baselines_only_pool_matching_thread_counts() {
        let mut fast = entry(&[("norm.fit", 0.5)]);
        fast.threads = 8;
        let history = vec![fast];
        let (_, current) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        // Only an 8-thread baseline exists: a 1-thread run has no
        // baseline for any stat, and fails on every one of them.
        let at_one = check(&history, 1, &current, DEFAULT_BAND);
        assert!(at_one.regressions.is_empty());
        assert_eq!(
            at_one.unbaselined,
            ["cost.lcm_fit_n260", "cost.matmul_256", "norm.fit"]
        );
        let at_eight = check(&history, 8, &current, DEFAULT_BAND);
        assert_eq!(at_eight.regressions.len(), 1);
        assert_eq!(
            at_eight.unbaselined,
            ["cost.lcm_fit_n260", "cost.matmul_256"]
        );
    }

    #[test]
    fn unbaselined_stat_fails_the_gate_and_is_named() {
        // Every stat is inside the band except one the trajectory has
        // never recorded: the gate fails on that one alone.
        let mut two = entry(&[("norm.fit", 2.0), ("cost.lcm_fit_n260", 0.4)]);
        two.threads = 2;
        let (_, current) = collect_stats(HOTPATH, &journal_with_fit(10_000)).unwrap();
        let verdict = check(&[two.clone()], 2, &current, DEFAULT_BAND);
        assert!(!verdict.passed());
        assert!(verdict.regressions.is_empty());
        assert_eq!(verdict.unbaselined, ["cost.matmul_256"]);
        let report = verdict.render(DEFAULT_BAND, 2);
        assert!(report.contains("no baseline at threads=2"), "{report}");
        assert!(report.contains("cost.matmul_256"), "{report}");
        assert!(!report.contains("norm.fit"), "{report}");
        // Recording the run gives it a baseline; the same run then passes.
        let recorded = TrajectoryEntry {
            label: "recorded".into(),
            threads: 2,
            stats: current.clone(),
        };
        assert!(check(&[two, recorded], 2, &current, DEFAULT_BAND).passed());
    }

    #[test]
    fn trajectory_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("crowdtune_gate_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.json");
        let history = vec![entry(&[("norm.fit", 1.0)])];
        save_trajectory(&path, &history).unwrap();
        assert_eq!(load_trajectory(&path).unwrap(), history);
        std::fs::remove_file(&path).ok();
        assert!(
            load_trajectory(&path).unwrap().is_empty(),
            "missing = empty"
        );
    }
}
