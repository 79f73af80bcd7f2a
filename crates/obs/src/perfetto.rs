//! Chrome/Perfetto trace-event export.
//!
//! Serializes a span tree (or a batch of labelled trees) into the JSON
//! trace-event format both `chrome://tracing` and <https://ui.perfetto.dev>
//! load directly: an object with a `traceEvents` array of complete (`"X"`)
//! duration events plus instant (`"i"`) events for robustness events and
//! metadata (`"M"`) events naming each track.
//!
//! The exported [`TraceEventFile`] round-trips through the vendored
//! `serde_json` (see the unit tests), which is what the CI smoke step
//! asserts for `table1 --quick --obs`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::report::ObsReport;
use crate::span::Span;

/// One Chrome trace event. Fields follow the trace-event format spec;
/// `ph` is the phase (`X` complete, `i` instant, `M` metadata).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event / span name.
    pub name: String,
    /// Category (span `cat`, or `event` for instants).
    pub cat: String,
    /// Phase: `X`, `i`, or `M`.
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: u64,
    /// Duration in microseconds (0 for non-`X` phases).
    pub dur: u64,
    /// Process id (always 1 — one process per export).
    pub pid: u64,
    /// Thread id; each labelled compilation gets its own track.
    pub tid: u64,
    /// String arguments (span args, event details, track names).
    pub args: BTreeMap<String, String>,
}

/// A loadable trace file: `{"traceEvents": [...]}`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEventFile {
    /// The events, in emission order.
    pub trace_events: Vec<TraceEvent>,
}

// Hand-written (de)serialization: the JSON key is `traceEvents` (camelCase,
// required by the trace-event format) and the vendored serde stub has no
// rename attribute.
impl Serialize for TraceEventFile {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![(
            "traceEvents".to_string(),
            self.trace_events.to_content(),
        )])
    }
}

impl Deserialize for TraceEventFile {
    fn from_content(content: &serde::Content) -> Result<Self, String> {
        let events = content
            .get("traceEvents")
            .ok_or_else(|| "missing `traceEvents` key".to_string())?;
        Ok(TraceEventFile {
            trace_events: Vec::<TraceEvent>::from_content(events)?,
        })
    }
}

fn flatten(span: &Span, tid: u64, out: &mut Vec<TraceEvent>) {
    out.push(TraceEvent {
        name: span.name.clone(),
        cat: span.cat.clone(),
        ph: "X".to_string(),
        ts: span.start_us,
        dur: span.dur_us,
        pid: 1,
        tid,
        args: span.args.iter().cloned().collect(),
    });
    for child in &span.children {
        flatten(child, tid, out);
    }
}

/// Exports one report on track `tid`, labelled `label`.
fn export_one(label: &str, report: &ObsReport, tid: u64, out: &mut Vec<TraceEvent>) {
    let mut meta_args = BTreeMap::new();
    meta_args.insert("name".to_string(), label.to_string());
    out.push(TraceEvent {
        name: "thread_name".to_string(),
        cat: "__metadata".to_string(),
        ph: "M".to_string(),
        ts: 0,
        dur: 0,
        pid: 1,
        tid,
        args: meta_args,
    });
    flatten(&report.root, tid, out);
    for event in &report.events {
        let mut args = BTreeMap::new();
        args.insert("pass".to_string(), event.pass.clone());
        args.insert("detail".to_string(), event.detail.clone());
        out.push(TraceEvent {
            name: format!("{}:{}", event.kind, event.pass),
            cat: "event".to_string(),
            ph: "i".to_string(),
            // Instant events carry no own timestamp in the span model;
            // anchor them at the root span's start.
            ts: report.root.start_us,
            dur: 0,
            pid: 1,
            tid,
            args,
        });
    }
}

/// Builds a trace file from one report.
pub fn to_trace_file(label: &str, report: &ObsReport) -> TraceEventFile {
    to_trace_file_batch(std::slice::from_ref(&(label.to_string(), report.clone())))
}

/// Builds a trace file with one track per labelled report — the shape the
/// bench binaries write, one track per benchmark.
pub fn to_trace_file_batch(reports: &[(String, ObsReport)]) -> TraceEventFile {
    let mut events = Vec::new();
    for (i, (label, report)) in reports.iter().enumerate() {
        export_one(label, report, i as u64 + 1, &mut events);
    }
    TraceEventFile {
        trace_events: events,
    }
}

/// Serializes a trace file to pretty JSON.
///
/// # Errors
///
/// Propagates serializer errors (infallible with the vendored stub).
pub fn to_json(file: &TraceEventFile) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(file)
}

/// Parses trace-event JSON back (used by round-trip tests and smoke
/// checks).
///
/// # Errors
///
/// Returns a parse error when the text is not a well-formed trace file.
pub fn from_json(text: &str) -> Result<TraceEventFile, serde_json::Error> {
    let value: serde_json::Value = serde_json::from_str(text)?;
    serde_json::from_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::report::{Event, EventKind};

    fn report() -> ObsReport {
        let mut root = Span::new("pipeline", "pipeline");
        root.dur_us = 100;
        let mut pass = Span::new("group", "pass").arg("cnot_after", 3);
        pass.start_us = 5;
        pass.dur_us = 40;
        pass.children.push(Span::new("group 0", "group"));
        root.children.push(pass);
        ObsReport {
            root,
            metrics: MetricsRegistry::new().snapshot(),
            global_metrics: MetricsRegistry::new().snapshot(),
            events: vec![Event {
                pass: "layout-route".into(),
                kind: EventKind::Retried,
                detail: "x".into(),
            }],
        }
    }

    #[test]
    fn export_flattens_the_tree_with_metadata_and_instants() {
        let file = to_trace_file("uccsd_h2", &report());
        // 1 metadata + 3 spans + 1 instant.
        assert_eq!(file.trace_events.len(), 5);
        assert_eq!(file.trace_events[0].ph, "M");
        assert_eq!(file.trace_events[0].args["name"], "uccsd_h2");
        assert!(file
            .trace_events
            .iter()
            .any(|e| e.ph == "X" && e.name == "group 0"));
        assert!(file
            .trace_events
            .iter()
            .any(|e| e.ph == "i" && e.name == "retried:layout-route"));
    }

    #[test]
    fn batch_export_separates_tracks() {
        let r = report();
        let file =
            to_trace_file_batch(&[("a".to_string(), r.clone()), ("b".to_string(), r.clone())]);
        let tids: std::collections::BTreeSet<u64> =
            file.trace_events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn json_round_trips() {
        let file = to_trace_file("rt", &report());
        let text = to_json(&file).unwrap();
        let back = from_json(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("{\"traceEvents\": 7}").is_err());
        assert!(from_json("not json").is_err());
    }
}
