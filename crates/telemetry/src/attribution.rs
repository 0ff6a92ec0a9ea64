//! Tail-latency attribution over request-trace journals.
//!
//! Answers the operational question the crowd service's trace layer
//! exists for: **which stage dominates p99 for op X on shard Y?** The
//! pass assembles per-trace operations from raw [`TraceRecord`]s (each
//! trace has one end-to-end `op` stage plus its child stages), takes the
//! exact order-statistic q-quantile of end-to-end latencies per
//! `(op, shard)` group (like [`crate::fleet::percentile_us`]), and then
//! attributes time *within the tail set* — the traces at or above the
//! quantile — to stages, naming the stage with the largest share.
//!
//! It also checks the accounting itself: [`reconcile`] verifies that per
//! trace, child-stage durations do not exceed the end-to-end op duration
//! beyond a slack, and reports what fraction of op wall time the stages
//! explain — `crowd_load --trace` asserts over this so the trace layer
//! cannot silently drift from reality.

use std::collections::BTreeMap;

use crowdtune_obs::trace::{OpKind, TraceRecord, TraceStage};
use serde::{Deserialize, Serialize};

use crate::fleet::percentile_us;

/// One assembled operation: its end-to-end record plus child stages.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Trace id.
    pub trace: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Shard the op ran against (`u16::MAX` when not shard-scoped).
    pub shard: u16,
    /// End-to-end duration (the `op` stage), nanoseconds.
    pub total_ns: u64,
    /// Child stage durations, nanoseconds.
    pub stages: Vec<(TraceStage, u64)>,
}

/// Partial op while assembling: the `op` header if seen, plus stages.
type PartialOp = (Option<(OpKind, u16, u64)>, Vec<(TraceStage, u64)>);

/// Assemble per-trace operations from a raw record stream. Traces
/// without an `op` stage (e.g. clipped by ring overflow) are dropped.
fn assemble_ops(records: &[TraceRecord]) -> Vec<OpTrace> {
    let mut by_trace: BTreeMap<u64, PartialOp> = BTreeMap::new();
    for r in records {
        let entry = by_trace.entry(r.trace).or_default();
        if r.stage == TraceStage::Op {
            entry.0 = Some((r.op, r.shard, r.dur_ns));
        } else {
            entry.1.push((r.stage, r.dur_ns));
        }
    }
    by_trace
        .into_iter()
        .filter_map(|(trace, (op, stages))| {
            op.map(|(op, shard, total_ns)| OpTrace {
                trace,
                op,
                shard,
                total_ns,
                stages,
            })
        })
        .collect()
}

/// Attribution of one `(op, shard)` group's tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailAttribution {
    /// Op kind name.
    pub op: String,
    /// Shard index, or `null` for the all-shards aggregate row.
    pub shard: Option<u16>,
    /// Operations in the group.
    pub count: u64,
    /// Exact q-quantile of end-to-end latency, microseconds.
    pub tail_us: u64,
    /// Operations at or above the quantile (the tail set).
    pub tail_count: u64,
    /// Per-stage share of tail-set op time, descending: `(stage,
    /// share, total_us)`.
    pub stage_shares: Vec<(String, f64, u64)>,
    /// The stage with the largest tail share, `""` when the tail set
    /// recorded no child stages.
    pub dominant_stage: String,
    /// Fraction of tail-set op wall time the child stages explain.
    pub coverage: f64,
}

fn attribute_group(op: OpKind, shard: Option<u16>, group: &[&OpTrace], q: f64) -> TailAttribution {
    let mut totals_us: Vec<u64> = group.iter().map(|t| t.total_ns / 1000).collect();
    totals_us.sort_unstable();
    let tail_us = percentile_us(&totals_us, q);
    let tail: Vec<&&OpTrace> = group
        .iter()
        .filter(|t| t.total_ns / 1000 >= tail_us)
        .collect();
    let mut stage_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut op_ns = 0u64;
    for t in &tail {
        op_ns += t.total_ns;
        for (stage, dur) in &t.stages {
            *stage_ns.entry(stage.as_str()).or_default() += *dur;
        }
    }
    let explained: u64 = stage_ns.values().sum();
    let mut stage_shares: Vec<(String, f64, u64)> = stage_ns
        .iter()
        .map(|(stage, ns)| {
            (
                stage.to_string(),
                if explained == 0 {
                    0.0
                } else {
                    *ns as f64 / explained as f64
                },
                *ns / 1000,
            )
        })
        .collect();
    stage_shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    TailAttribution {
        op: op.as_str().to_string(),
        shard,
        count: group.len() as u64,
        tail_us,
        tail_count: tail.len() as u64,
        dominant_stage: stage_shares
            .first()
            .map(|(s, _, _)| s.clone())
            .unwrap_or_default(),
        stage_shares,
        coverage: if op_ns == 0 {
            0.0
        } else {
            explained as f64 / op_ns as f64
        },
    }
}

/// Tail attribution at quantile `q` over a raw trace journal: one row
/// per `(op, shard)` plus one all-shards aggregate row per op kind
/// (`shard: null`), ordered by op then shard.
pub fn tail_attribution(records: &[TraceRecord], q: f64) -> Vec<TailAttribution> {
    let ops = assemble_ops(records);
    let mut by_group: BTreeMap<(&'static str, Option<u16>), Vec<&OpTrace>> = BTreeMap::new();
    for t in &ops {
        by_group
            .entry((t.op.as_str(), Some(t.shard)))
            .or_default()
            .push(t);
        by_group.entry((t.op.as_str(), None)).or_default().push(t);
    }
    by_group
        .into_iter()
        .map(|((_, shard), group)| attribute_group(group[0].op, shard, &group, q))
        .collect()
}

/// Per-trace accounting check plus aggregate stage coverage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reconciliation {
    /// Operations checked.
    pub ops: u64,
    /// Operations whose child stages exceeded the end-to-end duration
    /// beyond the allowed slack.
    pub overruns: u64,
    /// Aggregate fraction of op wall time explained by child stages.
    pub coverage: f64,
}

/// Verify that stage durations reconcile with end-to-end op latency:
/// per trace, `sum(child stages) <= total * (1 + rel_slack) +
/// abs_slack_ns` (stages in this service never overlap within one
/// trace). Returns the overrun count and the aggregate coverage.
pub fn reconcile(records: &[TraceRecord], rel_slack: f64, abs_slack_ns: u64) -> Reconciliation {
    let ops = assemble_ops(records);
    let mut overruns = 0u64;
    let mut total = 0u64;
    let mut explained = 0u64;
    for t in &ops {
        let children: u64 = t.stages.iter().map(|(_, d)| *d).sum();
        total += t.total_ns;
        explained += children.min(t.total_ns);
        let bound = t.total_ns as f64 * (1.0 + rel_slack) + abs_slack_ns as f64;
        if children as f64 > bound {
            overruns += 1;
        }
    }
    Reconciliation {
        ops: ops.len() as u64,
        overruns,
        coverage: if total == 0 {
            0.0
        } else {
            explained as f64 / total as f64
        },
    }
}

/// Render attribution rows as an aligned text table.
pub fn render_attribution(rows: &[TailAttribution], q: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "tail attribution at p{:.4} ({} rows)\n",
        q * 100.0,
        rows.len()
    ));
    for row in rows {
        let shard = row
            .shard
            .map(|s| {
                if s == u16::MAX {
                    "-".to_string()
                } else {
                    s.to_string()
                }
            })
            .unwrap_or_else(|| "all".to_string());
        out.push_str(&format!(
            "  {:<8} shard {:>4}: n={:<6} tail {:>8} us (n_tail={}) dominant={} coverage={:.2}\n",
            row.op, shard, row.count, row.tail_us, row.tail_count, row.dominant_stage, row.coverage
        ));
        for (stage, share, us) in &row.stage_shares {
            out.push_str(&format!(
                "      {:<18} {:>6.1}%  {:>8} us\n",
                stage,
                share * 100.0,
                us
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        trace: u64,
        op: OpKind,
        stage: TraceStage,
        shard: u16,
        start_us: u64,
        dur_us: u64,
    ) -> TraceRecord {
        TraceRecord {
            trace,
            client: 1,
            op,
            stage,
            shard,
            start_ns: start_us * 1000,
            dur_ns: dur_us * 1000,
            link: 0,
        }
    }

    /// 9 fast uploads dominated by apply, 1 slow one dominated by fsync:
    /// the p90 tail must name wal_fsync.
    fn mixed_uploads() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for i in 0..9u64 {
            records.push(rec(i + 1, OpKind::Upload, TraceStage::Op, 0, i * 100, 50));
            records.push(rec(
                i + 1,
                OpKind::Upload,
                TraceStage::MemApply,
                0,
                i * 100,
                40,
            ));
            records.push(rec(
                i + 1,
                OpKind::Upload,
                TraceStage::WalFsync,
                0,
                i * 100 + 40,
                5,
            ));
        }
        records.push(rec(10, OpKind::Upload, TraceStage::Op, 0, 2000, 900));
        records.push(rec(10, OpKind::Upload, TraceStage::MemApply, 0, 2000, 40));
        records.push(rec(10, OpKind::Upload, TraceStage::WalFsync, 0, 2040, 850));
        records
    }

    #[test]
    fn tail_names_the_dominant_stage() {
        let rows = tail_attribution(&mixed_uploads(), 0.9);
        // One shard-0 row, one aggregate row.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.op, "upload");
            assert_eq!(row.count, 10);
            assert_eq!(row.dominant_stage, "wal_fsync", "slow trace is fsync-bound");
            // p90 interpolates between the 9th (50 µs) and 10th (900 µs)
            // order statistics, landing above every fast trace.
            assert!(row.tail_us > 50 && row.tail_us < 900);
            assert_eq!(row.tail_count, 1, "only the slow trace is in the tail");
            assert!(row.coverage > 0.9);
        }
        assert_eq!(rows[0].shard, None, "aggregate row first (BTreeMap order)");
        assert_eq!(rows[1].shard, Some(0));
        assert!(!render_attribution(&rows, 0.9).is_empty());
    }

    #[test]
    fn full_distribution_dominant_differs_from_tail() {
        // At q=0 every trace is in the "tail", and apply time (9×40 µs)
        // outweighs fsync (9×5 + 850 µs)... apply = 400, fsync = 895.
        // Use a sharper contrast: q=0 over only the fast traces.
        let fast: Vec<TraceRecord> = mixed_uploads()
            .into_iter()
            .filter(|r| r.trace != 10)
            .collect();
        let rows = tail_attribution(&fast, 0.0);
        assert_eq!(rows[0].dominant_stage, "mem_apply");
    }

    #[test]
    fn reconcile_flags_overruns() {
        let mut records = mixed_uploads();
        let ok = reconcile(&records, 0.05, 1000);
        assert_eq!(ok.ops, 10);
        assert_eq!(ok.overruns, 0);
        assert!(ok.coverage > 0.8 && ok.coverage <= 1.0);
        // A stage longer than its op is an accounting bug.
        records.push(rec(11, OpKind::Query, TraceStage::Op, 1, 5000, 10));
        records.push(rec(11, OpKind::Query, TraceStage::Scan, 1, 5000, 500));
        let bad = reconcile(&records, 0.05, 1000);
        assert_eq!(bad.overruns, 1);
    }

    #[test]
    fn traces_without_op_stage_are_dropped() {
        let records = vec![rec(1, OpKind::Query, TraceStage::Scan, 0, 0, 10)];
        assert!(assemble_ops(&records).is_empty());
        assert!(tail_attribution(&records, 0.99).is_empty());
    }
}
