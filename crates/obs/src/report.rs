//! The compile report: the machine-readable [`ObsReport`] bundle and its
//! human-readable rendering.
//!
//! [`render`] produces the text report the `--obs` flag prints: per-pass
//! timing with gate/depth deltas, the slowest stage-2 groups, an event
//! rollup by kind, and the non-zero metrics. [`ObsReport`] itself serializes to JSON for `results/`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::span::Span;

/// What a compilation [`Event`] reports. Serialized as its
/// [`name`](EventKind::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A unit of work panicked or failed and was replaced by its
    /// unoptimized fallback (a stage-2 group's conventional synthesis).
    Degraded,
    /// Routing abandoned an attempt and retried with a different strategy.
    Retried,
    /// The pass budget (or a fired cancel token) elapsed before an anytime
    /// deepening round started; the last completed round is kept.
    Truncated,
    /// A pass-boundary observer validated the working circuit (one per
    /// accepted boundary, so a trace shows exactly which transformations
    /// were checked).
    Verified,
    /// The anytime optimizer hit its deadline (or a fired cancel token) in
    /// the middle of a deepening round and kept the previous round's
    /// result. Distinct from [`EventKind::Truncated`], which marks a round
    /// that never started.
    RoundAbandoned,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 5] = [
        EventKind::Degraded,
        EventKind::Retried,
        EventKind::Truncated,
        EventKind::Verified,
        EventKind::RoundAbandoned,
    ];

    /// The stable name used in traces, reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Degraded => "degraded",
            EventKind::Retried => "retried",
            EventKind::Truncated => "truncated",
            EventKind::Verified => "verified",
            EventKind::RoundAbandoned => "round-abandoned",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-written: the vendored derive handles structs only.
impl Serialize for EventKind {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.name().to_string())
    }
}

impl Deserialize for EventKind {
    fn from_content(content: &serde::Content) -> Result<Self, String> {
        let name = content
            .as_str()
            .ok_or_else(|| "event kind must be a string".to_string())?;
        EventKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown event kind `{name}`"))
    }
}

/// A robustness or verification event raised during compilation: a
/// degradation to a fallback path, a routing retry, a budget-driven
/// truncation or abandoned round, or an accepted verification boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Name of the pass that raised the event.
    pub pass: String,
    /// What happened.
    pub kind: EventKind,
    /// Human-readable elaboration.
    pub detail: String,
}

/// Everything one instrumented compilation observed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsReport {
    /// The span tree, rooted at `pipeline`.
    pub root: Span,
    /// Per-compilation metrics (deterministic for a given program).
    pub metrics: MetricsSnapshot,
    /// Delta of the process-global registry over this compilation
    /// (simulator/router totals; approximate under concurrent
    /// compilations).
    pub global_metrics: MetricsSnapshot,
    /// Robustness and verification events raised during compilation.
    pub events: Vec<Event>,
}

impl ObsReport {
    /// Renders the human-readable compile report.
    pub fn render(&self) -> String {
        render(self)
    }
}

/// Right-pads or truncates a cell to `w` characters.
fn pad(s: &str, w: usize) -> String {
    if s.len() >= w {
        s.to_string()
    } else {
        format!("{s}{}", " ".repeat(w - s.len()))
    }
}

fn arg<'a>(span: &'a Span, key: &str) -> Option<&'a str> {
    span.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn arg_i64(span: &Span, key: &str) -> Option<i64> {
    arg(span, key).and_then(|v| v.parse().ok())
}

/// Signed delta between a span's `<key>_before` / `<key>_after` args.
fn delta(span: &Span, key: &str) -> Option<i64> {
    Some(arg_i64(span, &format!("{key}_after"))? - arg_i64(span, &format!("{key}_before"))?)
}

fn fmt_delta(d: Option<i64>) -> String {
    match d {
        Some(0) | None => "·".to_string(),
        Some(d) if d > 0 => format!("+{d}"),
        Some(d) => d.to_string(),
    }
}

/// Renders the human-readable compile report for one compilation.
pub fn render(report: &ObsReport) -> String {
    let mut out = String::new();
    let total_ms = report.root.dur_us as f64 / 1e3;
    out.push_str(&format!(
        "compile report — {} spans, {:.3} ms total\n",
        report.root.len(),
        total_ms
    ));

    // Per-pass table: timing plus gate/depth deltas from the span args.
    out.push_str("\npasses (time, share, Δcnot, Δ2q-depth, children):\n");
    for pass in &report.root.children {
        let ms = pass.dur_us as f64 / 1e3;
        let share = if report.root.dur_us > 0 {
            100.0 * pass.dur_us as f64 / report.root.dur_us as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {} {:>9.3} ms {:>5.1}%  cnot {:>5}  depth2q {:>5}  {:>4} spans\n",
            pad(&pass.name, 18),
            ms,
            share,
            fmt_delta(delta(pass, "cnot")),
            fmt_delta(delta(pass, "depth_2q")),
            pass.len() - 1,
        ));
    }

    // Slowest stage-2 groups, if any were recorded.
    let mut groups: Vec<&Span> = Vec::new();
    for pass in &report.root.children {
        groups.extend(pass.children.iter().filter(|c| c.cat == "group"));
    }
    if !groups.is_empty() {
        groups.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.name.cmp(&b.name)));
        out.push_str(&format!(
            "\nstage-2 groups ({} total; slowest first):\n",
            groups.len()
        ));
        for g in groups.iter().take(8) {
            out.push_str(&format!(
                "  {} {:>9.3} ms  terms {:>4}  cnot {:>4}  saved {:>4}\n",
                pad(&g.name, 10),
                g.dur_us as f64 / 1e3,
                arg(g, "terms").unwrap_or("?"),
                arg(g, "cnot").unwrap_or("?"),
                arg(g, "cnots_saved").unwrap_or("?"),
            ));
        }
        if groups.len() > 8 {
            out.push_str(&format!("  … and {} more\n", groups.len() - 8));
        }
    }

    // Event rollup: kind → count, then the individual events.
    if !report.events.is_empty() {
        let mut kinds: Vec<(&str, usize)> = Vec::new();
        for e in &report.events {
            match kinds.iter_mut().find(|(k, _)| *k == e.kind.name()) {
                Some((_, n)) => *n += 1,
                None => kinds.push((e.kind.name(), 1)),
            }
        }
        kinds.sort();
        let rollup: Vec<String> = kinds.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
        out.push_str(&format!("\nevents: {}\n", rollup.join(", ")));
        for e in report.events.iter().take(12) {
            out.push_str(&format!("  [{}] {}: {}\n", e.kind, e.pass, e.detail));
        }
        if report.events.len() > 12 {
            out.push_str(&format!("  … and {} more\n", report.events.len() - 12));
        }
    }

    // Anytime deepening summary (budgeted compiles only).
    let counter = |name: &str| {
        report
            .metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let rounds = counter("anytime_rounds");
    if rounds > 0 {
        let improvements = counter("anytime_improvements");
        out.push_str(&format!(
            "\nanytime: {rounds} deepening rounds, {improvements} improved the best-so-far \
             ({:.2} improvements/round)\n",
            improvements as f64 / rounds as f64
        ));
        for pass in &report.root.children {
            for r in pass.children.iter().filter(|c| c.cat == "anytime") {
                out.push_str(&format!(
                    "  {} {:>9.3} ms  breadth {:>5}  2q {:>4}  depth2q {:>4}  improved {}\n",
                    pad(&r.name, 10),
                    r.dur_us as f64 / 1e3,
                    arg(r, "breadth").unwrap_or("?"),
                    arg(r, "two_qubit").unwrap_or("?"),
                    arg(r, "depth_2q").unwrap_or("?"),
                    arg(r, "improved").unwrap_or("?"),
                ));
            }
        }
    }

    // Non-zero metrics.
    let counters: Vec<String> = report
        .metrics
        .counters
        .iter()
        .filter(|c| c.value > 0)
        .map(|c| format!("  {} = {}", pad(&c.name, 22), c.value))
        .collect();
    if !counters.is_empty() {
        out.push_str("\nmetrics:\n");
        out.push_str(&counters.join("\n"));
        out.push('\n');
    }
    for h in &report.metrics.histograms {
        if h.count > 0 {
            out.push_str(&format!(
                "  {} n={} sum={} mean={:.1}\n",
                pad(&h.name, 22),
                h.count,
                h.sum,
                h.sum as f64 / h.count as f64
            ));
        }
    }
    let globals: Vec<String> = report
        .global_metrics
        .counters
        .iter()
        .filter(|c| c.value > 0)
        .map(|c| format!("  {} = {}", pad(&c.name, 22), c.value))
        .collect();
    if !globals.is_empty() {
        out.push_str("\nglobal metrics (process-wide delta):\n");
        out.push_str(&globals.join("\n"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_report() -> ObsReport {
        let mut pass = Span::new("simplify-synth", "pass")
            .arg("cnot_before", 0)
            .arg("cnot_after", 0)
            .arg("depth_2q_before", 0)
            .arg("depth_2q_after", 0);
        pass.start_us = 0;
        pass.dur_us = 2000;
        let mut g = Span::new("group 0", "group")
            .arg("terms", 4)
            .arg("cnot", 6)
            .arg("cnots_saved", 10);
        g.start_us = 100;
        g.dur_us = 1500;
        pass.children.push(g);
        let mut concat = Span::new("concat", "pass")
            .arg("cnot_before", 0)
            .arg("cnot_after", 6)
            .arg("depth_2q_before", 0)
            .arg("depth_2q_after", 4);
        concat.start_us = 2000;
        concat.dur_us = 500;
        let mut root = Span::new("pipeline", "pipeline");
        root.dur_us = 2500;
        root.children = vec![pass, concat];
        ObsReport {
            root,
            metrics: MetricsRegistry::new().snapshot(),
            global_metrics: MetricsRegistry::new().snapshot(),
            events: vec![Event {
                pass: "layout-route".into(),
                kind: EventKind::Retried,
                detail: "searched layout abandoned".into(),
            }],
        }
    }

    #[test]
    fn render_contains_passes_groups_and_events() {
        let text = render(&sample_report());
        assert!(text.contains("simplify-synth"), "{text}");
        assert!(text.contains("group 0"), "{text}");
        assert!(text.contains("retried ×1"), "{text}");
        assert!(text.contains("cnot    +6"), "{text}");
    }

    /// Snapshot of the full rendered report for a fixed input — any
    /// formatting change must be made deliberately, by updating this
    /// expected text.
    #[test]
    fn render_snapshot() {
        let expected = "\
compile report — 4 spans, 2.500 ms total

passes (time, share, Δcnot, Δ2q-depth, children):
  simplify-synth         2.000 ms  80.0%  cnot     ·  depth2q     ·     1 spans
  concat                 0.500 ms  20.0%  cnot    +6  depth2q    +4     0 spans

stage-2 groups (1 total; slowest first):
  group 0        1.500 ms  terms    4  cnot    6  saved   10

events: retried ×1
  [retried] layout-route: searched layout abandoned
  group_cnots            n=1 sum=6 mean=6.0
  group_cnots_saved      n=1 sum=10 mean=10.0
  group_terms            n=1 sum=4 mean=4.0
";
        let mut report = sample_report();
        let m = MetricsRegistry::new();
        m.observe(crate::metrics::HistogramId::GroupTerms, 4);
        m.observe(crate::metrics::HistogramId::GroupCnots, 6);
        m.observe(crate::metrics::HistogramId::GroupCnotsSaved, 10);
        report.metrics = m.snapshot();
        assert_eq!(render(&report), expected);
    }

    #[test]
    fn anytime_summary_appears_only_for_budgeted_compiles() {
        let plain = render(&sample_report());
        assert!(!plain.contains("anytime:"), "{plain}");

        let mut report = sample_report();
        let mut round = Span::new("round 1", "anytime")
            .arg("breadth", 4)
            .arg("lookahead", 4)
            .arg("two_qubit", 6)
            .arg("depth_2q", 4)
            .arg("gates", 12)
            .arg("improved", "yes");
        round.dur_us = 300;
        report.root.children[0].children.push(round);
        let m = MetricsRegistry::new();
        m.incr(crate::metrics::MetricId::AnytimeRounds);
        m.incr(crate::metrics::MetricId::AnytimeImprovements);
        report.metrics = m.snapshot();
        let text = render(&report);
        assert!(
            text.contains("anytime: 1 deepening rounds, 1 improved the best-so-far"),
            "{text}"
        );
        assert!(text.contains("round 1"), "{text}");
        assert!(text.contains("improved yes"), "{text}");
    }

    /// The five names are a wire format (`PassTrace` and `ObsReport` JSON):
    /// each kind round-trips through its name, and no other string parses.
    #[test]
    fn event_kinds_serialize_as_their_names() {
        let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "degraded",
                "retried",
                "truncated",
                "verified",
                "round-abandoned"
            ]
        );
        for kind in EventKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{kind}\""));
            assert_eq!(serde_json::from_str::<EventKind>(&json).unwrap(), kind);
        }
        assert!(serde_json::from_str::<EventKind>("\"Degraded\"").is_err());
        assert!(serde_json::from_str::<EventKind>("3").is_err());
    }

    #[test]
    fn delta_formatting() {
        assert_eq!(fmt_delta(Some(3)), "+3");
        assert_eq!(fmt_delta(Some(-2)), "-2");
        assert_eq!(fmt_delta(Some(0)), "·");
        assert_eq!(fmt_delta(None), "·");
    }
}
