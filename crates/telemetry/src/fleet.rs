//! Typed fleet queries over the telemetry collection: exact per-stage
//! percentiles grouped by TLA algorithm.
//!
//! Run records carry *raw* per-stage durations, so percentiles here are
//! exact order statistics (with linear interpolation between ranks), not
//! log₂-bucket approximations like the live process histograms.

use std::collections::BTreeMap;

use crowdtune_db::{FleetQuery, RunRecord, TelemetryCollection};
use serde::{Deserialize, Serialize};

/// Exact duration statistics for one stage within one group of runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StagePercentiles {
    /// Runs contributing at least one sample.
    pub runs: u64,
    /// Total duration samples pooled across those runs.
    pub samples: u64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median duration in microseconds.
    pub p50_us: u64,
    /// 95th-percentile duration in microseconds.
    pub p95_us: u64,
    /// Largest duration in microseconds.
    pub max_us: u64,
}

/// Exact quantile of a **sorted** sample set, linearly interpolating
/// between adjacent order statistics. Returns 0 on an empty slice.
pub fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    let est = sorted[lo] as f64 + frac * (sorted[hi] as f64 - sorted[lo] as f64);
    est.round() as u64
}

/// Pools the named stage's durations across `records`, grouped by tuner
/// (TLA algorithm), and summarizes each group. Groups whose runs never
/// journaled the stage are omitted.
fn stage_percentiles_by_tuner(
    records: &[RunRecord],
    stage: &str,
) -> BTreeMap<String, StagePercentiles> {
    let mut pooled: BTreeMap<String, (u64, Vec<u64>)> = BTreeMap::new();
    for rec in records {
        if let Some(samples) = rec.stage_us.get(stage) {
            if samples.is_empty() {
                continue;
            }
            let entry = pooled.entry(rec.tuner.clone()).or_default();
            entry.0 += 1;
            entry.1.extend_from_slice(samples);
        }
    }
    pooled
        .into_iter()
        .map(|(tuner, (runs, mut samples))| {
            samples.sort_unstable();
            let sum: u64 = samples.iter().sum();
            let stats = StagePercentiles {
                runs,
                samples: samples.len() as u64,
                mean_us: sum as f64 / samples.len() as f64,
                p50_us: percentile_us(&samples, 0.50),
                p95_us: percentile_us(&samples, 0.95),
                max_us: *samples.last().expect("non-empty"),
            };
            (tuner, stats)
        })
        .collect()
}

/// Access-controlled fleet query + per-stage summary in one call: every
/// record `user` may read that matches `query`, with the named stage
/// summarized per algorithm.
pub fn fleet_stage_percentiles(
    collection: &TelemetryCollection,
    user: Option<&str>,
    query: &FleetQuery,
    stage: &str,
) -> BTreeMap<String, StagePercentiles> {
    stage_percentiles_by_tuner(&collection.query(user, query), stage)
}

/// Renders a per-algorithm stage summary as an aligned human table.
pub fn render_stage_table(stage: &str, groups: &BTreeMap<String, StagePercentiles>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "stage `{stage}` by algorithm\n  {:<24} {:>5} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "algorithm", "runs", "samples", "mean_us", "p50_us", "p95_us", "max_us"
    ));
    for (tuner, s) in groups {
        out.push_str(&format!(
            "  {:<24} {:>5} {:>8} {:>10.1} {:>10} {:>10} {:>10}\n",
            tuner, s.runs, s.samples, s.mean_us, s.p50_us, s.p95_us, s.max_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_db::Access;

    fn record(tuner: &str, fit_us: Vec<u64>) -> RunRecord {
        RunRecord {
            id: 0,
            run: format!("{tuner}-r"),
            app: "demo".into(),
            machine: "local".into(),
            tuner: tuner.into(),
            dim: 2,
            budget: 8,
            seed: 1,
            iterations: 8,
            failures: 0,
            best: Some(1.0),
            event_counts: BTreeMap::new(),
            stage_us: [("fit".to_string(), fit_us)].into_iter().collect(),
            profile: BTreeMap::new(),
            owner: "alice".into(),
            access: Access::Public,
        }
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.5), 7);
        assert_eq!(percentile_us(&[10, 20], 0.5), 15);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.0), 1);
        assert_eq!(percentile_us(&sorted, 1.0), 100);
        assert_eq!(percentile_us(&sorted, 0.50), 51); // rank 49.5 → 50.5 → 51 rounded
        assert_eq!(percentile_us(&sorted, 0.95), 95); // rank 94.05
    }

    #[test]
    fn grouping_pools_samples_per_algorithm() {
        let records = vec![
            record("NoTLA", vec![100, 300]),
            record("NoTLA", vec![200]),
            record("LCM-BO", vec![1000, 2000, 3000]),
            record("LCM-BO", vec![]),
        ];
        let groups = stage_percentiles_by_tuner(&records, "fit");
        assert_eq!(groups.len(), 2);
        let notla = &groups["NoTLA"];
        assert_eq!(notla.runs, 2);
        assert_eq!(notla.samples, 3);
        assert_eq!(notla.p50_us, 200);
        assert_eq!(notla.max_us, 300);
        let lcm = &groups["LCM-BO"];
        assert_eq!(lcm.runs, 1, "empty sample lists contribute no run");
        assert_eq!(lcm.p50_us, 2000);
        assert!(groups_missing_stage_are_empty(&records));
        let table = render_stage_table("fit", &groups);
        assert!(table.contains("NoTLA"));
        assert!(table.contains("p95_us"));
    }

    fn groups_missing_stage_are_empty(records: &[RunRecord]) -> bool {
        stage_percentiles_by_tuner(records, "no_such_stage").is_empty()
    }
}
