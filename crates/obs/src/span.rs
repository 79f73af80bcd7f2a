//! Hierarchical spans: the timing tree of one compilation.
//!
//! A [`Span`] is a named, timed node with string-keyed arguments and child
//! spans. The PHOENIX pipeline records one root `pipeline` span per
//! compilation, a child per executed pass, and deeper children for units of
//! work inside a pass (stage-2 groups, their candidate scans, router
//! attempts) — the tree the paper's stage-attribution questions ("where did
//! the CNOTs go?") are answered from.
//!
//! Timings are wall-clock and therefore run-to-run noise; everything else
//! (names, nesting, arguments) is deterministic for a given program, and —
//! because stage-2 workers write spans into index-aligned slots —
//! independent of the thread count. [`Span::skeleton`] strips the timings
//! so tests can assert exactly that.

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{self, MetricsRegistry, RawCounts};
use crate::report::{Event, ObsReport};

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Display name (pass name, `group 3`, `route:searched`, ...).
    pub name: String,
    /// Category, used as the Perfetto `cat` field (`pipeline`, `pass`,
    /// `group`, `route`, ...).
    pub cat: String,
    /// Start, in microseconds since the collector's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Deterministic key/value annotations (gate counts, deltas, labels —
    /// never timings).
    pub args: Vec<(String, String)>,
    /// Child spans, in deterministic order.
    pub children: Vec<Span>,
}

impl Span {
    /// A zero-length span at the epoch.
    pub fn new(name: impl Into<String>, cat: impl Into<String>) -> Self {
        Span {
            name: name.into(),
            cat: cat.into(),
            start_us: 0,
            dur_us: 0,
            args: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Appends an argument (builder style).
    pub fn arg(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.args.push((key.into(), value.to_string()));
        self
    }

    /// Total number of nodes in this subtree (self included).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Whether the subtree is a single node. Present for `len` symmetry.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The deterministic part of the subtree: a copy with every
    /// `start_us`/`dur_us` zeroed. Two compilations of the same program
    /// must produce equal skeletons regardless of `stage2_threads`.
    pub fn skeleton(&self) -> Span {
        Span {
            name: self.name.clone(),
            cat: self.cat.clone(),
            start_us: 0,
            dur_us: 0,
            args: self.args.clone(),
            children: self.children.iter().map(Span::skeleton).collect(),
        }
    }

    /// Depth-first search for the first span with `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Per-compilation observability state: a timing epoch, a lock-free
/// [`MetricsRegistry`], and the accumulating span roots.
///
/// A compile that keeps its trace pushes one span per pass; one that
/// keeps only its obs report pushes none and records metrics alone, so
/// its report's root has no children.
///
/// The collector is `Sync`: metrics are atomics, and the span list is
/// behind a coarse mutex touched once per pass (never inside worker
/// loops — passes accumulate child spans locally and the pass manager
/// pushes the assembled pass span).
#[derive(Debug)]
pub struct ObsCollector {
    epoch: Instant,
    metrics: MetricsRegistry,
    global_at_start: RawCounts,
    roots: Mutex<Vec<Span>>,
}

impl Default for ObsCollector {
    fn default() -> Self {
        ObsCollector::new()
    }
}

impl ObsCollector {
    /// A fresh collector; the epoch is now. Also snapshots the global
    /// registry so the final report can show the global delta attributable
    /// to this compilation (approximate under concurrent compilations).
    pub fn new() -> Self {
        ObsCollector {
            epoch: Instant::now(),
            metrics: MetricsRegistry::new(),
            global_at_start: metrics::global().raw(),
            roots: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds elapsed since the collector's epoch.
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// Microseconds from the collector's epoch to `t` (0 before it), so a
    /// span can reuse a clock reading its caller already took.
    pub fn us_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// The per-compilation metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Appends a top-level span (one per executed pass, in order).
    pub fn push_root(&self, span: Span) {
        self.roots
            .lock()
            .expect("span list mutex poisoned")
            .push(span);
    }

    /// Assembles the final report: the recorded spans wrapped in a
    /// `pipeline` root, the per-compilation metrics snapshot, and the
    /// global-registry delta since the collector was created.
    pub fn finish(&self, events: Vec<Event>) -> ObsReport {
        let children = std::mem::take(&mut *self.roots.lock().expect("span list mutex poisoned"));
        let start = children.first().map_or(0, |s| s.start_us);
        let end = children
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0);
        let root = Span {
            name: "pipeline".to_string(),
            cat: "pipeline".to_string(),
            start_us: start,
            dur_us: end.saturating_sub(start),
            args: Vec::new(),
            children,
        };
        ObsReport {
            root,
            metrics: self.metrics.snapshot(),
            global_metrics: metrics::global().delta_since_raw(&self.global_at_start),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricId;

    #[test]
    fn span_builder_and_len() {
        let mut s = Span::new("pass", "pass").arg("gates", 12);
        s.children.push(Span::new("group 0", "group"));
        s.children.push(Span::new("group 1", "group"));
        assert_eq!(s.len(), 3);
        assert_eq!(s.args, vec![("gates".to_string(), "12".to_string())]);
        assert!(s.find("group 1").is_some());
        assert!(s.find("group 7").is_none());
    }

    #[test]
    fn skeleton_strips_timings_only() {
        let mut s = Span::new("pass", "pass").arg("cnot", 3);
        s.start_us = 100;
        s.dur_us = 50;
        let mut child = Span::new("group 0", "group");
        child.start_us = 120;
        child.dur_us = 10;
        s.children.push(child);
        let k = s.skeleton();
        assert_eq!(k.start_us, 0);
        assert_eq!(k.dur_us, 0);
        assert_eq!(k.children[0].start_us, 0);
        assert_eq!(k.name, "pass");
        assert_eq!(k.args, s.args);
    }

    #[test]
    fn collector_wraps_roots_into_pipeline_span() {
        let c = ObsCollector::new();
        c.metrics().incr(MetricId::PassesRun);
        let mut a = Span::new("group", "pass");
        a.start_us = 10;
        a.dur_us = 5;
        let mut b = Span::new("concat", "pass");
        b.start_us = 20;
        b.dur_us = 7;
        c.push_root(a);
        c.push_root(b);
        let report = c.finish(Vec::new());
        assert_eq!(report.root.name, "pipeline");
        assert_eq!(report.root.children.len(), 2);
        assert_eq!(report.root.start_us, 10);
        assert_eq!(report.root.dur_us, 17);
        assert_eq!(report.metrics.counter("passes_run"), Some(1));
    }

    #[test]
    fn empty_collector_finishes_cleanly() {
        let report = ObsCollector::new().finish(Vec::new());
        assert_eq!(report.root.len(), 1);
        assert_eq!(report.root.dur_us, 0);
    }
}
