//! The per-layer metrics of a traced run. Every workload reports the same
//! list; a layer a workload bypasses reads zero there, which is the
//! "should not move" evidence for a change to that layer.
//!
//! Layer times are reported as shares of the traced wall time (the summed
//! duration of the root spans, `trace.wall_ms`), so the self shares and
//! `trace.unattributed_pct` add up to 100. The printed table gives the
//! same times in milliseconds.

use crate::crowd::SessionOutcome;
use crate::report::Report;
use crate::trace::{self, Span};

/// Layers timed by a span around each call into them, reported as
/// `<layer>.count`, `<layer>.busy_pct` and `<layer>.self_pct`.
const SPAN_LAYERS: [&str; 10] = [
    "core.session.source_tasks",
    "tuner.tune",
    "tla.multitask.propose",
    "tla.weighted.propose",
    "tla.stacking.propose",
    "gp.surrogate_fit",
    "sensitivity.analyze",
    "db.query",
    "db.upload",
    "apps.eval",
];

/// Layer numbers that come from counters rather than spans.
#[derive(Debug, Default)]
pub struct LayerExtras {
    /// Suggest gaps of the traced sessions, in milliseconds.
    pub suggest_gaps_ms: Vec<f64>,
    /// Crowd records the sessions built models from.
    pub session_records: u64,
    /// Surrogate evaluations made by sensitivity analyses.
    pub model_evals: u64,
    /// Query-cache hits and misses of the sharded service.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Records returned by traced db queries.
    pub records_returned: u64,
    /// Traced minus untraced wall time, in percent of untraced.
    pub overhead_pct: f64,
}

impl LayerExtras {
    /// Extras summed over traced sessions.
    pub fn from_sessions(outcomes: &[SessionOutcome], overhead_pct: f64) -> Self {
        LayerExtras {
            suggest_gaps_ms: outcomes.iter().flat_map(|o| o.gaps_ms.clone()).collect(),
            session_records: outcomes.iter().map(|o| o.records).sum(),
            model_evals: outcomes.iter().map(|o| o.model_evals).sum(),
            records_returned: outcomes.iter().map(|o| o.returned).sum(),
            overhead_pct,
            ..Default::default()
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Print the layer table and record every per-layer metric.
pub fn report(spans: &[Span], extras: &LayerExtras, report: &mut Report) {
    let layers = trace::by_layer(spans);
    println!(
        "{:<27} {:>8} {:>12} {:>12} {:>7}",
        "layer", "count", "busy ms", "self ms", "failed"
    );
    let mut names: Vec<&str> = layers.keys().copied().collect();
    names.sort_by_key(|n| std::cmp::Reverse(layers[n].self_ns));
    for name in names {
        let l = layers[name];
        println!(
            "{name:<27} {:>8} {:>12.3} {:>12.3} {:>7}",
            l.count,
            ms(l.busy_ns),
            ms(l.self_ns),
            l.failed
        );
    }
    let roots = trace::reconcile(spans);
    let wall_ms = ms(roots.iter().map(|r| r.wall_ns).sum());
    let pct = |time_ms: f64| 100.0 * time_ms / wall_ms;
    for layer in SPAN_LAYERS {
        let l = layers.get(layer).copied().unwrap_or_default();
        report.metric(format!("{layer}.count"), l.count as f64, "count");
        report.metric(format!("{layer}.busy_pct"), pct(ms(l.busy_ns)), "%");
        report.metric(format!("{layer}.self_pct"), pct(ms(l.self_ns)), "%");
    }
    let ensemble = layers
        .get("tla.ensemble.propose")
        .copied()
        .unwrap_or_default();
    report.metric("tla.ensemble.count", ensemble.count as f64, "count");
    report.metric("tla.ensemble.self_pct", pct(ms(ensemble.self_ns)), "%");
    report.metric(
        "core.session.records",
        extras.session_records as f64,
        "count",
    );
    report.metric(
        "sensitivity.model_evals",
        extras.model_evals as f64,
        "count",
    );
    report.metric(
        "tuner.suggest.count",
        extras.suggest_gaps_ms.len() as f64,
        "count",
    );
    report.metric(
        "tuner.suggest.busy_pct",
        // Folded from +0.0: `sum` over no floats gives -0.0.
        pct(extras.suggest_gaps_ms.iter().fold(0.0, |a, b| a + b)),
        "%",
    );
    for (layer, name) in [
        ("db.query", "db.query.failed"),
        ("db.upload", "db.upload.failed"),
        ("apps.eval", "apps.eval.failed"),
    ] {
        let failed = layers.get(layer).map_or(0, |l| l.failed);
        report.metric(name, failed as f64, "count");
    }
    let lookups = extras.cache_hits + extras.cache_misses;
    report.metric(
        "db.cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            extras.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    report.metric(
        "db.query.records_returned",
        extras.records_returned as f64,
        "count",
    );
    report.metric(
        "trace.unattributed_pct",
        pct(ms(roots.iter().map(|r| r.root_self_ns).sum())),
        "%",
    );
    report.metric("trace.wall_ms", wall_ms, "ms");
    report.metric("trace.overhead_pct", extras.overhead_pct, "%");
    report.metric("trace.spans", spans.len() as f64, "count");
}
