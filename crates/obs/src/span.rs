//! Lightweight wall-clock spans with parent nesting.
//!
//! A span is an RAII guard: [`span`] pushes the name onto a thread-local
//! stack and starts an [`Instant`]; dropping the guard pops the stack and
//! records the elapsed nanoseconds into the histogram of the same name
//! (when metrics are enabled) and into the active per-run scope on this
//! thread (when one is open — see [`crate::scope`]). Spans never allocate
//! and never touch the journal, so they are safe around hot sections.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span`]; records timing when dropped.
#[must_use = "a span measures nothing unless it is held until the region ends"]
pub struct SpanGuard {
    name: &'static str,
    parent: Option<&'static str>,
    start: Instant,
}

/// Opens a span named `name`, nested under the current thread's innermost
/// open span (if any).
pub fn span(name: &'static str) -> SpanGuard {
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(name);
        parent
    });
    SpanGuard {
        name,
        parent,
        start: Instant::now(),
    }
}

/// Name of the current thread's innermost open span, if any.
#[cfg(test)]
fn current_span() -> Option<&'static str> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

impl SpanGuard {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Name of the span this one was opened under, if any.
    pub fn parent(&self) -> Option<&'static str> {
        self.parent
    }

    /// Nanoseconds elapsed since the span was opened.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.elapsed_ns();
        let folded = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally close LIFO; remove the last matching entry so
            // an out-of-order drop cannot corrupt unrelated frames.
            if let Some(pos) = s.iter().rposition(|n| *n == self.name) {
                // Join the stack up to this frame into a folded path for
                // the per-run profile — only when a scope is open, so
                // profiling costs nothing outside a run.
                let folded = if crate::scope::scope_active() {
                    Some(s[..=pos].join(";"))
                } else {
                    None
                };
                s.remove(pos);
                folded
            } else {
                None
            }
        });
        if let Some(path) = folded {
            crate::scope::scope_time_stack(path, ns);
        }
        crate::scope::scope_time(self.name, ns);
        crate::metrics::observe_span(self.name, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        assert_eq!(current_span(), None);
        let outer = span("outer");
        assert_eq!(outer.parent(), None);
        assert_eq!(current_span(), Some("outer"));
        {
            let inner = span("inner");
            assert_eq!(inner.parent(), Some("outer"));
            assert_eq!(current_span(), Some("inner"));
        }
        assert_eq!(current_span(), Some("outer"));
        drop(outer);
        assert_eq!(current_span(), None);
    }

    #[test]
    fn nested_spans_fold_into_scope_stacks() {
        crate::scope::scope_begin();
        {
            let _root = span("root_f");
            {
                let _mid = span("mid_f");
                let _leaf = span("leaf_f");
            }
        }
        let stats = crate::scope::scope_end().expect("scope was open");
        assert!(stats.stack_ns.contains_key("root_f"));
        assert!(stats.stack_ns.contains_key("root_f;mid_f"));
        assert!(stats.stack_ns.contains_key("root_f;mid_f;leaf_f"));
    }

    #[test]
    fn span_feeds_active_scope() {
        crate::scope::scope_begin();
        {
            let _g = span("scoped_work");
        }
        let stats = crate::scope::scope_end().expect("scope was open");
        assert_eq!(stats.count_of("scoped_work"), 1);
    }
}
