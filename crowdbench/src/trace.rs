//! Span tracing for the traced run.
//!
//! Spans are opened in the benchmark's own code around each call into a
//! layer, never inside the program under test. Each thread that traces
//! keeps its spans in memory; [`finish`] hands them back for analysis and
//! for writing out at the end of the run. A thread that never called
//! [`start`] records nothing, so the timing runs pay no tracing cost.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `"db.query"`.
    pub name: &'static str,
    /// The crowd session or db request the span belongs to.
    pub session: u64,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the process's trace epoch.
    pub end_ns: u64,
    /// Whether the wrapped call reported a failure.
    pub failed: bool,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct ThreadTrace {
    stack: Vec<u64>,
    spans: Vec<Span>,
    session: u64,
}

thread_local! {
    static TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Start recording spans on this thread.
pub fn start() {
    TRACE.with(|t| {
        *t.borrow_mut() = Some(ThreadTrace {
            stack: Vec::new(),
            spans: Vec::new(),
            session: 0,
        })
    });
}

/// Stop recording on this thread and return its spans in close order.
pub fn finish() -> Vec<Span> {
    TRACE.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tag the spans opened from now on with a session or request id.
pub fn set_session(session: u64) {
    TRACE.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.session = session;
        }
    });
}

/// An open span; it closes when dropped.
pub struct SpanGuard {
    open: Option<(u64, u64, &'static str, u64)>,
    failed: bool,
}

impl SpanGuard {
    /// Mark the wrapped call as failed.
    pub fn fail(&mut self) {
        self.failed = true;
    }
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> SpanGuard {
    let open = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        Some((id, parent, name, now_ns()))
    });
    SpanGuard {
        open,
        failed: false,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        let failed = self.failed;
        TRACE.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.stack.retain(|&s| s != id);
                let session = t.session;
                t.spans.push(Span {
                    id,
                    parent,
                    name,
                    session,
                    start_ns,
                    end_ns,
                    failed,
                });
            }
        });
    }
}

/// Self time of every span, aligned with `spans`: its duration minus
/// the part of its interval that its direct children cover. Children
/// may overlap one another (work on several threads) or run past their
/// parent's end; covered time is the union of child intervals clipped
/// to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub busy_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Spans marked failed.
    pub failed: u64,
}

/// Totals per span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.busy_ns += s.duration_ns();
        e.self_ns += own;
        e.failed += u64::from(s.failed);
    }
    out
}

/// A root span's wall time and the part of it no child span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconciled {
    /// Wall time of the root span.
    pub wall_ns: u64,
    /// The root's own self time: wall time no layer span covers.
    pub root_self_ns: u64,
}

/// Wall and unattributed time of every root span, in start order.
pub fn reconcile(spans: &[Span]) -> Vec<Reconciled> {
    let mut roots: Vec<(u64, Reconciled)> = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent == 0)
        .map(|(s, o)| {
            let r = Reconciled {
                wall_ns: s.duration_ns(),
                root_self_ns: o,
            };
            (s.start_ns, r)
        })
        .collect();
    roots.sort_by_key(|&(start, _)| start);
    roots.into_iter().map(|(_, r)| r).collect()
}

/// Write spans as JSON lines, one object per span with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","session":{},"start_ns":{},"end_ns":{},"self_ns":{},"failed":{}}}"#,
            s.id, s.parent, s.name, s.session, s.start_ns, s.end_ns, own, s.failed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            session: 0,
            start_ns,
            end_ns,
            failed: false,
        }
    }

    #[test]
    fn self_time_of_nested_children() {
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 2, 20, 30)];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
        let r = Reconciled {
            wall_ns: 100,
            root_self_ns: 60,
        };
        assert_eq!(reconcile(&spans), vec![r]);
    }

    #[test]
    fn self_time_of_overlapping_children() {
        // Two children overlap on [30, 40]; a third runs past the parent.
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 40),
            sp(3, 1, 30, 60),
            sp(4, 1, 90, 120),
        ];
        // Covered: [10, 60] and [90, 100] = 60.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
        // A child contained in its sibling covers nothing extra.
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 90), sp(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorded_spans_nest_and_aggregate() {
        start();
        set_session(7);
        {
            let _root = span("x");
            let mut inner = span("inner");
            inner.fail();
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        let (inner, root) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, root.id);
        assert_eq!(root.parent, 0);
        assert!(inner.failed && !root.failed);
        assert!(spans.iter().all(|s| s.session == 7));
        let layers = by_layer(&spans);
        assert_eq!(layers["inner"].failed, 1);
        assert_eq!(
            layers["x"].self_ns + layers["inner"].self_ns,
            root.duration_ns()
        );
        // Nothing is recorded once the thread stopped tracing.
        drop(span("x"));
        assert!(finish().is_empty());
    }
}
