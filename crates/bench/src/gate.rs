//! Performance regression gate over the benchmark trajectory.
//!
//! Each recorded run appends one [`TrajectoryEntry`] to
//! `results/bench_trajectory.json`: a label, the rayon thread count of
//! the hot-path run, and a map of stats. The stats come from two
//! harnesses.
//!
//! crowdbench (`crowdbench/`, declared by `BENCHMARK.json`) runs the
//! paper's crowd-tuning sessions end to end. The gate reads the final
//! JSON line of one timing run (`--trace 0`) and one traced run
//! (`--trace 1`) per workload:
//!
//! - `e2e.<workload>.<metric>`: every end-to-end metric `BENCHMARK.json`
//!   declares, from the timing run. Its `better` field says which
//!   direction is worse.
//! - `layer.<span>.ms_per_call`: milliseconds per call of a span layer
//!   on crowdbench's calibration clock. The traced run gives the
//!   layer's share of session wall time (`busy_pct`) and its calls per
//!   session; the timing run gives the scaled time of one session
//!   (`1 / ops_per_s`). Raw traced milliseconds are never used: they
//!   move with the host's speed.
//!
//! `bench_hotpath --smoke` times the sparse surrogate tier, which no
//! crowdbench workload reaches: `time.<substrate>` is its time in units
//! of a `matmul_256` probe run beside it, which calibrates out the
//! machine's speed.
//!
//! [`check`] compares each stat with the median of its recorded values
//! at the run's thread count. A stat needs [`MIN_ENTRIES`] of them, or
//! it fails by name; only `bench_gate --record` adds them. Its band is
//! [`SPREAD_FACTOR`] times the largest relative deviation of a recorded
//! value from that median, at least [`MIN_BAND`] and at most the
//! metric's `BENCHMARK.json` bound for `e2e.*` stats and [`DEFAULT_CAP`]
//! for the others. A stat whose recorded values are all equal, such as
//! `tuned_objective`, which is a pure function of the seed, gets no band.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Recorded values a stat needs before it has a baseline.
pub const MIN_ENTRIES: usize = 3;

/// A stat's band is this many times the spread of its recorded values.
pub const SPREAD_FACTOR: f64 = 3.0;

/// Narrowest band of a stat whose recorded values vary. A single run is
/// judged, and on a shared host the whole run can be slower for a
/// while: six recordings can spread by 3% and a later run still read
/// 1.12x.
pub const MIN_BAND: f64 = 0.10;

/// Widest band of a stat `BENCHMARK.json` gives no bound: crowdbench's
/// own bound for its timing metrics.
pub const DEFAULT_CAP: f64 = 0.25;

/// The span layers timed per call, each with the workload whose traced
/// run times it. Every crowd session makes one `tuner.tune` call, which
/// counts the traced run's sessions. The db layers are left to
/// `crowd_repo`'s end-to-end metrics, which time every query and upload
/// of its crowd traffic; in these sessions they are under 1% of the wall
/// time.
pub const LAYERS: [(&str, &str); 7] = [
    ("crowd_tla", "core.session.source_tasks"),
    ("crowd_tla", "tla.multitask.propose"),
    ("crowd_tla", "tla.weighted.propose"),
    ("crowd_tla", "tla.stacking.propose"),
    // The NoTLA tune: exact-GP updates, refits and acquisition.
    ("crowd_sensitivity", "tuner.tune"),
    ("crowd_sensitivity", "gp.surrogate_fit"),
    ("crowd_sensitivity", "sensitivity.analyze"),
];

/// One recorded run in the trajectory history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Human label for the run (commit, CI job, "local").
    pub label: String,
    /// Rayon thread count the hot-path benchmarks ran under.
    pub threads: usize,
    /// Stat values keyed by name.
    pub stats: BTreeMap<String, f64>,
}

/// One measured stat and how it is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The measured value.
    pub value: f64,
    /// Larger values are better (`ops_per_s`); otherwise larger is worse.
    pub higher_is_better: bool,
    /// Widest band the stat may get.
    pub cap: f64,
}

impl Stat {
    fn lower_is_better(value: f64) -> Self {
        Stat {
            value,
            higher_is_better: false,
            cap: DEFAULT_CAP,
        }
    }
}

/// The end-to-end metrics and workloads `BENCHMARK.json` declares.
#[derive(Debug, Deserialize)]
pub struct Benchmark {
    /// Workloads crowdbench runs.
    workloads: Vec<Workload>,
    /// Metrics every timing run reports.
    end_to_end: Vec<EndToEnd>,
}

#[derive(Debug, Deserialize)]
struct Workload {
    /// Its `--workload` name.
    name: String,
}

#[derive(Debug, Deserialize)]
struct EndToEnd {
    /// Metric name in crowdbench's final line.
    name: String,
    /// `"higher"` or `"lower"`.
    better: String,
    /// Largest relative worsening the benchmark accepts.
    bound: f64,
}

impl Benchmark {
    /// Parse `BENCHMARK.json`.
    pub fn parse(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad BENCHMARK.json: {e}"))
    }
}

/// The shape of crowdbench's final line (`crowdbench/src/report.rs`).
#[derive(Debug, Deserialize)]
struct CrowdbenchLine {
    correct: bool,
    metrics: BTreeMap<String, CrowdbenchMetric>,
}

#[derive(Debug, Deserialize)]
struct CrowdbenchMetric {
    /// `null` for a non-finite value, which makes the run incorrect.
    value: Option<f64>,
}

/// The metrics of a crowdbench run, read from its final line. `output`
/// may hold the run's whole output; only the last non-empty line is
/// read. A run whose checks failed is an error.
fn parse_crowdbench(output: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = output
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let run: CrowdbenchLine =
        serde_json::from_str(line).map_err(|e| format!("bad final line {line:?}: {e}"))?;
    if !run.correct {
        return Err("the run failed a check (`\"correct\": false`)".to_string());
    }
    Ok(run
        .metrics
        .into_iter()
        .filter_map(|(name, m)| Some((name, m.value?)))
        .collect())
}

fn metric(metrics: &BTreeMap<String, f64>, name: &str) -> Result<f64, String> {
    metrics
        .get(name)
        .copied()
        .ok_or_else(|| format!("no {name} metric"))
}

/// The `e2e.*` and `layer.*` stats. `read(workload, traced)` returns the
/// output of that workload's timing or traced run.
pub fn crowdbench_stats(
    benchmark: &Benchmark,
    read: impl Fn(&str, bool) -> Result<String, String>,
) -> Result<BTreeMap<String, Stat>, String> {
    if let Some((workload, span)) = LAYERS
        .iter()
        .find(|(w, _)| !benchmark.workloads.iter().any(|b| b.name == *w))
    {
        return Err(format!(
            "layer {span} is timed by {workload}, which BENCHMARK.json does not declare"
        ));
    }
    let mut stats = BTreeMap::new();
    for workload in benchmark.workloads.iter().map(|w| w.name.as_str()) {
        let run = |traced: bool| {
            read(workload, traced)
                .and_then(|out| parse_crowdbench(&out))
                .map_err(|e| format!("{workload} --trace {}: {e}", u8::from(traced)))
        };
        let timing = run(false)?;
        for m in &benchmark.end_to_end {
            let higher_is_better = match m.better.as_str() {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{}: unknown `better: {other}`", m.name)),
            };
            let value = metric(&timing, &m.name).map_err(|e| format!("{workload}: {e}"))?;
            let stat = Stat {
                value,
                higher_is_better,
                cap: m.bound,
            };
            stats.insert(format!("e2e.{workload}.{}", m.name), stat);
        }
        let spans: Vec<&str> = LAYERS
            .iter()
            .filter(|(w, _)| *w == workload)
            .map(|(_, span)| *span)
            .collect();
        if spans.is_empty() {
            continue;
        }
        let traced = run(true)?;
        let layer = |span: &str| -> Result<f64, String> {
            let session_ms = 1e3 / metric(&timing, "ops_per_s")?;
            let sessions = metric(&traced, "tuner.tune.count")?;
            let calls = metric(&traced, &format!("{span}.count"))?;
            if calls <= 0.0 {
                return Err(format!("the traced run made no {span} call"));
            }
            let share = metric(&traced, &format!("{span}.busy_pct"))? / 100.0;
            Ok(share * session_ms * sessions / calls)
        };
        for span in spans {
            let value = layer(span).map_err(|e| format!("{workload}: {e}"))?;
            stats.insert(
                format!("layer.{span}.ms_per_call"),
                Stat::lower_is_better(value),
            );
        }
    }
    Ok(stats)
}

/// Parsed shape of `results/bench_hotpath.json`.
#[derive(Debug, Deserialize)]
struct HotpathJson {
    threads: usize,
    substrates: Vec<HotpathSubstrate>,
}

#[derive(Debug, Deserialize)]
struct HotpathSubstrate {
    name: String,
    probe_units: f64,
}

/// The `time.*` stats, and the thread count the hot-path benchmark ran
/// under.
pub fn hotpath_stats(json: &str) -> Result<(usize, BTreeMap<String, Stat>), String> {
    let hotpath: HotpathJson =
        serde_json::from_str(json).map_err(|e| format!("bad hotpath json: {e}"))?;
    let stats = hotpath
        .substrates
        .into_iter()
        .map(|s| {
            let stat = Stat::lower_is_better(s.probe_units);
            (format!("time.{}", s.name), stat)
        })
        .collect();
    Ok((hotpath.threads, stats))
}

/// One stat past its band.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Stat name (`layer.tla.multitask.propose.ms_per_call`, ...).
    pub stat: String,
    /// Median of the stat's recorded values.
    pub baseline: f64,
    /// Value in the run under test.
    pub current: f64,
    /// How many times worse than the baseline: `current / baseline`, or
    /// its inverse for a stat where higher is better.
    pub ratio: f64,
    /// The stat's band: it fails when `ratio > 1 + band`.
    pub band: f64,
}

/// What [`check`] found. Any entry in any list fails the gate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Verdict {
    /// Stats past their band.
    pub regressions: Vec<Regression>,
    /// Stats with fewer than [`MIN_ENTRIES`] recorded values at the
    /// run's thread count, with how many they have, in name order.
    pub unbaselined: Vec<(String, usize)>,
    /// Stats the latest entry at the run's thread count holds and the run
    /// did not measure.
    pub missing: Vec<String>,
}

impl Verdict {
    /// True when no stat regressed, was unbaselined or went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.unbaselined.is_empty() && self.missing.is_empty()
    }

    /// Readable failure report: the regressions worst first, then every
    /// unbaselined and every missing stat by name.
    pub fn render(&self, threads: usize) -> String {
        let mut out = String::new();
        if !self.regressions.is_empty() {
            let mut sorted = self.regressions.clone();
            sorted.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
            out.push_str(&format!(
                "performance regression: {} stat(s) past their band\n  {:<50} {:>12} {:>12} {:>8} {:>6}\n",
                sorted.len(),
                "stat",
                "baseline",
                "current",
                "worse",
                "band"
            ));
            for r in &sorted {
                out.push_str(&format!(
                    "  {:<50} {:>12.4} {:>12.4} {:>7.2}x {:>6.3}\n",
                    r.stat, r.baseline, r.current, r.ratio, r.band
                ));
            }
        }
        if !self.unbaselined.is_empty() {
            out.push_str(&format!(
                "no baseline at threads={threads} for {} stat(s); each needs {MIN_ENTRIES} entries from bench_gate --record:\n",
                self.unbaselined.len()
            ));
            for (stat, have) in &self.unbaselined {
                out.push_str(&format!("  {stat} (has {have})\n"));
            }
        }
        if !self.missing.is_empty() {
            out.push_str(&format!(
                "{} recorded stat(s) not measured by this run:\n",
                self.missing.len()
            ));
            for stat in &self.missing {
                out.push_str(&format!("  {stat}\n"));
            }
        }
        out
    }
}

/// Median of a non-empty sample set.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `num / den` where equal values (zeros included) are a ratio of 1.
fn ratio(num: f64, den: f64) -> f64 {
    if num == den {
        1.0
    } else {
        num / den
    }
}

/// A stat's band: [`SPREAD_FACTOR`] times the largest relative deviation
/// of `past` from `baseline`, clamped to `[MIN_BAND, cap]`, or no band
/// when `past` does not vary.
fn band(past: &[f64], baseline: f64, cap: f64) -> f64 {
    let spread = past
        .iter()
        .map(|&v| (ratio(v, baseline) - 1.0).abs())
        .fold(0.0, f64::max);
    if spread == 0.0 {
        0.0
    } else {
        (SPREAD_FACTOR * spread).clamp(MIN_BAND, cap)
    }
}

/// Checks `stats`, measured at `threads`, against `history`.
///
/// Only entries with the same thread count form a baseline, since
/// parallel substrates time differently at another count.
pub fn check(
    history: &[TrajectoryEntry],
    threads: usize,
    stats: &BTreeMap<String, Stat>,
) -> Verdict {
    let pool: Vec<&TrajectoryEntry> = history.iter().filter(|e| e.threads == threads).collect();
    let mut verdict = Verdict::default();
    for (name, stat) in stats {
        let past: Vec<f64> = pool
            .iter()
            .filter_map(|e| e.stats.get(name).copied())
            .collect();
        if past.len() < MIN_ENTRIES {
            verdict.unbaselined.push((name.clone(), past.len()));
            continue;
        }
        let baseline = median(&past);
        let band = band(&past, baseline, stat.cap);
        let worse = if stat.higher_is_better {
            ratio(baseline, stat.value)
        } else {
            ratio(stat.value, baseline)
        };
        // A NaN is a regression too.
        if worse.is_nan() || worse > 1.0 + band {
            verdict.regressions.push(Regression {
                stat: name.clone(),
                baseline,
                current: stat.value,
                ratio: worse,
                band,
            });
        }
    }
    if let Some(latest) = pool.last() {
        verdict.missing = latest
            .stats
            .keys()
            .filter(|k| !stats.contains_key(*k))
            .cloned()
            .collect();
    }
    verdict
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

    /// The end-to-end part of `BENCHMARK.json`, one metric per direction.
    const BENCHMARK: &str = r#"{
      "command": ["cargo", "run"],
      "workloads": [
        {"name": "crowd_tla", "why": "TLA sessions"},
        {"name": "crowd_sensitivity", "why": "NoTLA sessions"}
      ],
      "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "tuned_objective", "unit": "s", "better": "lower", "bound": 0.15}
      ]
    }"#;

    /// A crowdbench final line in the exact shape `report.rs` prints
    /// (its `json_shape` test), with `metrics` spliced in.
    fn line(metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!(r#""{n}": {{"value": {v:?}, "unit": "ms"}}"#))
            .collect();
        format!(
            r#"{{"correct": true, "attempted": 3, "failed": 0, "metrics": {{{}}}}}"#,
            body.join(", ")
        )
    }

    /// A traced run: four sessions of 100 (uncalibrated) ms, every layer
    /// called twice per session at `share` of the session wall time.
    fn traced(share_pct: f64) -> String {
        let mut metrics = vec![("tuner.tune.count", 4.0), ("trace.wall_ms", 400.0)];
        let names: Vec<(String, String)> = LAYERS
            .iter()
            .map(|(_, s)| (format!("{s}.count"), format!("{s}.busy_pct")))
            .collect();
        for (count, busy) in &names {
            if count != "tuner.tune.count" {
                metrics.push((count.as_str(), 8.0));
            }
            metrics.push((busy.as_str(), share_pct));
        }
        line(&metrics)
    }

    /// Both workloads' runs: `ops_per_s` sessions per second on the
    /// calibration clock, and traced layers at `share_pct`.
    fn runs(ops_per_s: f64, share_pct: f64) -> impl Fn(&str, bool) -> Result<String, String> {
        move |_, is_traced| {
            Ok(if is_traced {
                traced(share_pct)
            } else {
                line(&[
                    ("setup_s", 0.001),
                    ("ops_per_s", ops_per_s),
                    ("tuned_objective", 1.25),
                ])
            })
        }
    }

    fn stats(ops_per_s: f64, share_pct: f64) -> BTreeMap<String, Stat> {
        let benchmark = Benchmark::parse(BENCHMARK).unwrap();
        crowdbench_stats(&benchmark, runs(ops_per_s, share_pct)).unwrap()
    }

    fn entry(threads: usize, stats: &BTreeMap<String, Stat>) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "t".into(),
            threads,
            stats: stats.iter().map(|(k, s)| (k.clone(), s.value)).collect(),
        }
    }

    #[test]
    fn parses_the_final_line_of_crowdbench_output() {
        // The string crowdbench's `json_shape` test pins, after the text
        // lines a run prints first.
        let output = "workload        crowd_tla seed 1\nsetup_s 0.25 s\n\
            {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}\n\n";
        let metrics = parse_crowdbench(output).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics["setup_s"], 0.25);
        assert_eq!(metrics["ops_per_s"], 12.0);
        let failed = output.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_crowdbench(&failed)
            .unwrap_err()
            .contains("failed a check"));
        assert!(parse_crowdbench("").is_err());
        assert!(parse_crowdbench("check FAIL something").is_err());
    }

    #[test]
    fn collects_end_to_end_and_calibrated_layer_stats() {
        let s = stats(10.0, 25.0);
        assert_eq!(s["e2e.crowd_tla.ops_per_s"].value, 10.0);
        assert!(s["e2e.crowd_tla.ops_per_s"].higher_is_better);
        assert_eq!(s["e2e.crowd_sensitivity.tuned_objective"].cap, 0.15);
        assert!(!s["e2e.crowd_sensitivity.tuned_objective"].higher_is_better);
        assert!(
            !s.contains_key("e2e.crowd_tla.setup_s"),
            "only declared metrics"
        );
        // 10 sessions/s is 100 ms per session on the calibration clock;
        // a quarter of it over two calls per session is 12.5 ms a call,
        // whatever the traced run's own wall time says.
        let multitask = s["layer.tla.multitask.propose.ms_per_call"];
        assert!((multitask.value - 12.5).abs() < 1e-12);
        assert_eq!(multitask.cap, DEFAULT_CAP);
        // `tuner.tune` is one call per session.
        assert!((s["layer.tuner.tune.ms_per_call"].value - 25.0).abs() < 1e-12);
        assert_eq!(s.len(), 2 * 2 + LAYERS.len());
    }

    #[test]
    fn missing_runs_and_metrics_are_errors_naming_them() {
        let benchmark = Benchmark::parse(BENCHMARK).unwrap();
        let no_traced = |w: &str, t: bool| {
            if t {
                Err("no such file".to_string())
            } else {
                runs(10.0, 25.0)(w, t)
            }
        };
        let err = crowdbench_stats(&benchmark, no_traced).unwrap_err();
        assert!(err.contains("crowd_tla --trace 1"), "{err}");
        let no_ops = |_: &str, t: bool| Ok(if t { traced(25.0) } else { line(&[]) });
        let err = crowdbench_stats(&benchmark, no_ops).unwrap_err();
        assert!(err.contains("no ops_per_s metric"), "{err}");
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let history: Vec<TrajectoryEntry> = [10.0, 10.5, 9.5]
            .iter()
            .map(|&ops| entry(2, &stats(ops, 25.0)))
            .collect();
        // Band: 3 x 5% spread = 0.15. Faster passes however fast.
        let mut faster = stats(20.0, 12.5);
        assert!(check(&history, 2, &faster).passed());
        // 20% fewer sessions per second: 1.25x worse. The layers read
        // 1.25x slower as well, since the session time is theirs too.
        let slower = stats(8.0, 25.0);
        let verdict = check(&history, 2, &slower);
        let names: Vec<&str> = verdict
            .regressions
            .iter()
            .map(|r| r.stat.as_str())
            .collect();
        assert!(names.contains(&"e2e.crowd_tla.ops_per_s"), "{names:?}");
        let ops = &verdict.regressions[names
            .iter()
            .position(|n| *n == "e2e.crowd_tla.ops_per_s")
            .unwrap()];
        assert!((ops.ratio - 1.25).abs() < 1e-12);
        assert!((ops.band - 0.15).abs() < 1e-12);
        // A lower-is-better stat that falls is an improvement.
        faster
            .get_mut("e2e.crowd_tla.tuned_objective")
            .unwrap()
            .value = 1.0;
        assert!(check(&history, 2, &faster).passed());
    }

    #[test]
    fn band_is_the_spread_times_the_factor_capped_at_the_bound() {
        // Spread 5%: band 15%.
        assert!((band(&[1.0, 1.05, 0.99], 1.0, 0.25) - 0.15).abs() < 1e-12);
        // Spread 2%: the 10% floor.
        assert_eq!(band(&[1.0, 1.02, 0.99], 1.0, 0.25), MIN_BAND);
        // Spread 40%: capped.
        assert_eq!(band(&[1.0, 1.4, 0.9], 1.0, 0.25), 0.25);
        assert_eq!(band(&[1.0, 1.4, 0.9], 1.0, 0.15), 0.15);
        // A deterministic stat gets no band at all.
        assert_eq!(band(&[1.25, 1.25, 1.25], 1.25, 0.15), 0.0);
        assert_eq!(band(&[0.0, 0.0, 0.0], 0.0, 0.25), 0.0);
        // tuned_objective is identical per seed: any worsening fails.
        let history: Vec<TrajectoryEntry> = (0..3).map(|_| entry(2, &stats(10.0, 25.0))).collect();
        let mut worse = stats(10.0, 25.0);
        worse
            .get_mut("e2e.crowd_tla.tuned_objective")
            .unwrap()
            .value = 1.2500001;
        let verdict = check(&history, 2, &worse);
        assert_eq!(verdict.regressions.len(), 1);
        assert_eq!(verdict.regressions[0].stat, "e2e.crowd_tla.tuned_objective");
    }

    /// Four recorded runs whose layer shares spread by 3%: multitask
    /// proposals took 12.5, 13, 12.25 and 12.75 ms a call.
    fn layer_history() -> Vec<TrajectoryEntry> {
        [25.0, 26.0, 24.5, 25.5]
            .iter()
            .map(|&share| entry(2, &stats(10.0, share)))
            .collect()
    }

    #[test]
    fn stats_within_the_band_pass() {
        let history = layer_history();
        let mut current = stats(10.0, 25.25);
        let verdict = check(&history, 2, &current);
        assert!(verdict.passed(), "{verdict:?}");
        assert_eq!(verdict.render(2), "");
        // 8% slower is inside the multitask layer's band: 3x its 3%
        // spread is 8.9%, raised to the 10% floor.
        current
            .get_mut("layer.tla.multitask.propose.ms_per_call")
            .unwrap()
            .value *= 1.08;
        assert!(check(&history, 2, &current).passed());
    }

    #[test]
    fn synthetic_layer_regression_fails_and_names_the_stat() {
        let history = layer_history();
        let mut current = stats(10.0, 25.25);
        // Multitask proposals 1.3x slower, the rest of the run unchanged.
        current
            .get_mut("layer.tla.multitask.propose.ms_per_call")
            .unwrap()
            .value *= 1.3;
        let verdict = check(&history, 2, &current);
        assert_eq!(verdict.regressions.len(), 1);
        let r = &verdict.regressions[0];
        assert_eq!(r.stat, "layer.tla.multitask.propose.ms_per_call");
        // Baseline 12.625 ms (median share 25.25%), band the floor.
        assert!((r.baseline - 12.625).abs() < 1e-12);
        assert_eq!(r.band, MIN_BAND);
        let report = verdict.render(2);
        assert!(
            report.contains("layer.tla.multitask.propose.ms_per_call"),
            "{report}"
        );
        assert!(report.contains("1.30x"), "{report}");
    }

    #[test]
    fn hotpath_times_are_in_probe_units() {
        let json = r#"{"threads": 2, "probe": "matmul_256", "substrates": [
            {"name": "sparse_fit_acq_n2000_smoke", "probe_units": 12.0, "seconds": 0.048, "exact_seconds": 1.8},
            {"name": "sparse_scale_n10000_smoke", "probe_units": 30.0, "seconds": 0.12}]}"#;
        let (threads, s) = hotpath_stats(json).unwrap();
        assert_eq!(threads, 2);
        assert_eq!(s["time.sparse_fit_acq_n2000_smoke"].value, 12.0);
        assert_eq!(s["time.sparse_scale_n10000_smoke"].value, 30.0);
        assert_eq!(s.len(), 2);
        assert!(hotpath_stats(&json.replace("probe_units", "ns")).is_err());
    }

    #[test]
    fn baselines_only_pool_matching_thread_counts() {
        let current = stats(10.0, 25.0);
        let history: Vec<TrajectoryEntry> = (0..3).map(|_| entry(8, &current)).collect();
        // Only 8-thread baselines exist: a 1-thread run has no baseline
        // for any stat, and fails on every one of them.
        let at_one = check(&history, 1, &current);
        assert!(at_one.regressions.is_empty());
        assert_eq!(at_one.unbaselined.len(), current.len());
        assert!(at_one.unbaselined.iter().all(|(_, have)| *have == 0));
        assert!(check(&history, 8, &current).passed());
    }

    #[test]
    fn unbaselined_stat_fails_the_gate_and_is_named() {
        let current = stats(10.0, 25.0);
        let mut old = entry(2, &current);
        old.stats.remove("e2e.crowd_tla.ops_per_s");
        old.stats.insert("time.retired_substrate".into(), 1.0);
        let history = vec![old.clone(), old.clone(), old];
        let verdict = check(&history, 2, &current);
        assert!(!verdict.passed());
        assert!(verdict.regressions.is_empty());
        assert_eq!(
            verdict.unbaselined,
            [("e2e.crowd_tla.ops_per_s".to_string(), 0)]
        );
        assert_eq!(verdict.missing, ["time.retired_substrate"]);
        let report = verdict.render(2);
        assert!(report.contains("no baseline at threads=2"), "{report}");
        assert!(
            report.contains("e2e.crowd_tla.ops_per_s (has 0)"),
            "{report}"
        );
        assert!(report.contains("time.retired_substrate"), "{report}");
        assert!(!report.contains("tuned_objective"), "{report}");
        // Two recorded runs are not yet a baseline; the third is.
        let mut history = vec![entry(2, &current), entry(2, &current)];
        let two = check(&history, 2, &current);
        assert_eq!(two.unbaselined.len(), current.len());
        assert!(two.unbaselined.iter().all(|(_, have)| *have == 2));
        history.push(entry(2, &current));
        assert!(check(&history, 2, &current).passed());
    }

    #[test]
    fn trajectory_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("crowdtune_gate_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.json");
        let history = vec![entry(2, &stats(10.0, 25.0))];
        save_trajectory(&path, &history).unwrap();
        assert_eq!(load_trajectory(&path).unwrap(), history);
        std::fs::remove_file(&path).ok();
        assert!(
            load_trajectory(&path).unwrap().is_empty(),
            "missing = empty"
        );
    }
}
