//! Process-global counters and histograms behind sharded atomics.
//!
//! Metrics are off by default. Every recording entry point starts with a
//! single `Relaxed` load of one [`AtomicBool`]; when that reads `false` the
//! call returns immediately, so instrumenting a hot loop costs one predicted
//! branch. When enabled, updates go to one of [`SHARDS`] cache-line-padded
//! atomic cells chosen per thread, so concurrent recorders (rayon restart
//! workers, parallel bench seeds) do not bounce a shared cache line.
//! Reading a metric sums its shards; totals are exact, not sampled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Number of independent atomic cells per metric. Eight covers the thread
/// counts this workspace runs at without making snapshots expensive.
const SHARDS: usize = 8;

/// Number of log₂ buckets per histogram: values up to `2^43 - 1` (≈ 2.4 h in
/// nanoseconds) land in a distinct bucket, larger ones saturate the last.
const BUCKETS: usize = 44;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread is pinned to one shard, assigned round-robin at first use.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// Returns whether metric recording is currently enabled (one relaxed load).
#[inline]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording.
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One atomic counter cell, padded to a cache line so shards never share one.
#[repr(align(64))]
struct PaddedCell(AtomicU64);

impl PaddedCell {
    fn new() -> Self {
        PaddedCell(AtomicU64::new(0))
    }
}

/// A monotonically increasing counter sharded across [`SHARDS`] atomic cells.
pub struct Counter {
    shards: [PaddedCell; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| PaddedCell::new()),
        }
    }

    /// Adds `n` to the counter. No-op (single relaxed load) while metrics
    /// are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    #[cfg(test)]
    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// One histogram shard: count/sum/max plus log₂ value buckets.
#[repr(align(64))]
struct HistShard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound of a log₂ bucket (inclusive).
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        (1u64 << idx) - 1
    }
}

/// Lower bound of a log₂ bucket (inclusive). Bucket `idx` holds values in
/// `[2^(idx-1), 2^idx - 1]`; bucket 0 holds only 0.
fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

/// A log₂-bucketed histogram (typically of durations in nanoseconds),
/// sharded across [`SHARDS`] cells like [`Counter`].
pub struct Histogram {
    shards: [HistShard; SHARDS],
    /// Spans record into this histogram: its values are nanoseconds.
    span: bool,
}

impl Histogram {
    fn new(span: bool) -> Self {
        Histogram {
            shards: std::array::from_fn(|_| HistShard::new()),
            span,
        }
    }

    /// Records one observation. No-op (single relaxed load) while metrics
    /// are disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let s = &self.shards[shard_index()];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Summarizes the histogram across all shards.
    pub fn summary(&self) -> HistogramSummary {
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut buckets = [0u64; BUCKETS];
        for s in &self.shards {
            count += s.count.load(Ordering::Relaxed);
            sum += s.sum.load(Ordering::Relaxed);
            max = max.max(s.max.load(Ordering::Relaxed));
            for (acc, b) in buckets.iter_mut().zip(&s.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        // Quantiles interpolate *within* the containing log₂ bucket: the
        // requested rank's fractional position among the bucket's own
        // observations picks a point on [lower, upper], rather than always
        // reporting the bucket's upper bound (which overstated p50 by up to
        // 2× whenever the median bucket held few samples).
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = (q * count as f64).max(f64::MIN_POSITIVE);
            let mut seen = 0u64;
            for (idx, b) in buckets.iter().enumerate() {
                if *b == 0 {
                    continue;
                }
                let before = seen;
                seen += b;
                if seen as f64 >= target {
                    let lower = bucket_lower(idx) as f64;
                    let upper = bucket_upper(idx) as f64;
                    let frac = ((target - before as f64) / *b as f64).clamp(0.0, 1.0);
                    let est = lower + frac * (upper - lower);
                    return (est.round() as u64).min(max);
                }
            }
            max
        };
        HistogramSummary {
            span: self.span,
            count,
            sum,
            max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    #[cfg(test)]
    fn reset(&self) {
        for s in &self.shards {
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Point-in-time summary of one [`Histogram`]. Quantiles are interpolated
/// within the log₂ bucket containing the requested rank (and clamped to the
/// exact max), so a single-sample bucket reports its interpolated midpoint
/// rather than the bucket's upper bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// True when spans record into the histogram, so its values are
    /// nanoseconds; other histograms carry their unit in their name, or
    /// have none.
    #[serde(skip)]
    pub span: bool,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation (exact).
    pub max: u64,
    /// Arithmetic mean (exact, from `sum / count`).
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    histograms: RwLock<BTreeMap<&'static str, &'static Histogram>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
    })
}

/// Returns (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    let reg = registry();
    if let Some(c) = reg.counters.read().get(name) {
        return c;
    }
    let mut w = reg.counters.write();
    w.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Returns (registering on first use) the histogram named `name`.
fn histogram(name: &'static str) -> &'static Histogram {
    register_histogram(name, false)
}

/// The histogram named `name`, registered on first use as a span
/// histogram when `span` is set. Whether a histogram is a span's is
/// fixed when it is registered.
fn register_histogram(name: &'static str, span: bool) -> &'static Histogram {
    let reg = registry();
    if let Some(h) = reg.histograms.read().get(name) {
        return h;
    }
    let mut w = reg.histograms.write();
    w.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(span))))
}

/// Adds `n` to the counter named `name`. While metrics are disabled this is
/// a single relaxed load — the registry is not even consulted.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !metrics_enabled() {
        return;
    }
    counter(name).add(n);
}

/// Records `v` into the histogram named `name`. Single relaxed load while
/// metrics are disabled.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if !metrics_enabled() {
        return;
    }
    histogram(name).record(v);
}

/// Records a span's duration `ns` into the span histogram `name`.
#[inline]
pub(crate) fn observe_span(name: &'static str, ns: u64) {
    if !metrics_enabled() {
        return;
    }
    register_histogram(name, true).record(ns);
}

/// Point-in-time export of every registered counter and histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter totals keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries keyed by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .read()
        .iter()
        .map(|(k, c)| (k.to_string(), c.value()))
        .collect();
    let histograms = reg
        .histograms
        .read()
        .iter()
        .map(|(k, h)| (k.to_string(), h.summary()))
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that flip the process-global enable flag:
    /// the test harness runs them on parallel threads, and one test
    /// disabling metrics mid-way through another's counting loses counts.
    fn toggle_guard() -> MutexGuard<'static, ()> {
        static TOGGLE: Mutex<()> = Mutex::new(());
        // A panicking test poisons the lock; the guarded data is `()`,
        // so the next test can proceed.
        TOGGLE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_counters_do_not_count() {
        let _guard = toggle_guard();
        set_metrics_enabled(false);
        let c = counter("test.disabled");
        c.reset();
        c.add(5);
        count("test.disabled", 7);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn enabled_counters_sum_across_shards() {
        let _guard = toggle_guard();
        set_metrics_enabled(true);
        let c = counter("test.enabled");
        c.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        set_metrics_enabled(false);
    }

    #[test]
    fn histogram_summary_tracks_count_sum_max() {
        let _guard = toggle_guard();
        set_metrics_enabled(true);
        let h = histogram("test.hist");
        h.reset();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert!(s.p50 >= 3 && s.p50 <= 1000);
        set_metrics_enabled(false);
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        let _guard = toggle_guard();
        set_metrics_enabled(true);

        // A single sample must not be reported as its bucket's upper bound:
        // 12 lands in bucket [8, 15], whose upper bound (15) was the old
        // p50. Interpolation lands mid-bucket and the max clamp makes the
        // single-sample case exact.
        let h = histogram("test.hist.single");
        h.reset();
        h.record(12);
        let s = h.summary();
        assert_eq!(s.p50, 12, "single sample: p50 must be exact, not 15");
        assert_eq!(s.p99, 12);

        // Two samples at the bucket's extremes: the median interpolates
        // inside [8, 15] instead of snapping to 15.
        let h = histogram("test.hist.pair");
        h.reset();
        h.record(8);
        h.record(15);
        let s = h.summary();
        assert!(
            s.p50 >= 8 && s.p50 < 15,
            "p50 = {} should interpolate within the bucket",
            s.p50
        );

        // Quantiles stay monotone and clamped to the exact max.
        let h = histogram("test.hist.spread");
        h.reset();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.max);

        set_metrics_enabled(false);
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev);
            prev = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }
}
