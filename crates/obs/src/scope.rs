//! Per-run, per-thread accumulation of span times and named counts.
//!
//! A *scope* is opened by the tuning loop on its own thread before a run and
//! closed after it; every span closed and every [`scope_count`] issued on
//! that thread in between is accumulated into the returned [`ScopeStats`].
//! This is how `TuneResult::stats` is populated without consulting the
//! process-global metrics (which would mix concurrent runs together — the
//! bench runner executes seeds in parallel, one per rayon worker thread).
//!
//! Scopes are thread-local and non-nesting: opening a new scope replaces an
//! unclosed one. Work a strategy fans out to rayon workers is still captured
//! as long as the *enclosing* span closes on the run's own thread (which is
//! how `Gp::fit`/`Lcm::fit` wrap their parallel multistarts).

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Span times and named counts accumulated while a scope was open.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Total nanoseconds per span name.
    pub time_ns: BTreeMap<&'static str, u64>,
    /// Number of occurrences per name (span closes and explicit counts).
    pub counts: BTreeMap<&'static str, u64>,
    /// Total nanoseconds per folded span stack (`outer;inner;leaf`) — the
    /// collapsed-stack profile of the run, flamegraph-compatible. Only spans
    /// closed on the scope's thread contribute (same rule as `time_ns`).
    pub stack_ns: BTreeMap<String, u64>,
}

impl ScopeStats {
    /// Total nanoseconds recorded under `name` (0 if absent).
    pub fn time_ns_of(&self, name: &str) -> u64 {
        self.time_ns.get(name).copied().unwrap_or(0)
    }

    /// Occurrences recorded under `name` (0 if absent).
    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ScopeStats>> = const { RefCell::new(None) };
}

/// Opens a fresh scope on the current thread, replacing any unclosed one.
pub fn scope_begin() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(ScopeStats::default()));
}

/// Closes the current thread's scope and returns what it accumulated, or
/// `None` if no scope was open.
pub fn scope_end() -> Option<ScopeStats> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Whether a scope is open on the current thread. Span guards consult this
/// before allocating a folded stack path, so threads outside a run (rayon
/// workers, bench drivers) pay nothing for the profiler.
pub fn scope_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Credits `ns` nanoseconds (and one occurrence) of `name` to the active
/// scope. Called by [`crate::span::SpanGuard`] on drop.
pub(crate) fn scope_time(name: &'static str, ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            *s.time_ns.entry(name).or_insert(0) += ns;
            *s.counts.entry(name).or_insert(0) += 1;
        }
    });
}

/// Credits `ns` nanoseconds to the folded stack `path` in the active scope.
/// Called by [`crate::span::SpanGuard`] on drop when a scope is open.
pub(crate) fn scope_time_stack(path: String, ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            *s.stack_ns.entry(path).or_insert(0) += ns;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_accumulates_counts_and_times() {
        scope_begin();
        scope_time("stage", 100);
        scope_time("stage", 50);
        let stats = scope_end().expect("scope open");
        assert_eq!(stats.time_ns_of("stage"), 150);
        assert_eq!(stats.count_of("stage"), 2);
        assert!(scope_end().is_none());
    }

    #[test]
    fn counts_without_scope_are_dropped() {
        assert!(scope_end().is_none());
        scope_time("orphan", 1);
        scope_begin();
        let stats = scope_end().unwrap();
        assert_eq!(stats.count_of("orphan"), 0);
        assert_eq!(stats.time_ns_of("orphan"), 0);
    }
}
