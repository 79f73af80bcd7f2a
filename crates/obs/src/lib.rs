//! Structured observability for the PHOENIX compiler.
//!
//! The paper's evaluation is about *where* gate count and depth are won or
//! lost across the three pipeline stages; this crate is the substrate that
//! answers such questions about the implementation itself. Three layers:
//!
//! 1. **[`metrics`]** — a lock-free [`MetricsRegistry`]: a fixed catalog of
//!    atomic counters ([`MetricId`]: `groups_compiled`,
//!    `cnots_saved_stage2`, `sabre_swaps`, `router_retries`, ...), gauges
//!    and fixed-bucket histograms. Recording is a relaxed atomic op;
//!    a process-[`global`](metrics::global) registry serves the
//!    process-wide counters of instrumentation points with no compilation
//!    context, such as simulator kernels, and always records.
//! 2. **[`span`]** — hierarchical [`Span`] trees (pipeline → pass →
//!    stage-2 group → candidate scan / router attempt) collected per
//!    compilation by an [`ObsCollector`]. Structure and arguments are
//!    deterministic and thread-count-independent; only timings vary.
//! 3. **Exporters** — [`perfetto`] writes Chrome/Perfetto trace-event JSON
//!    loadable in `ui.perfetto.dev`; [`report`] bundles spans + metrics +
//!    events into an [`ObsReport`] with a human-readable rendering.
//!
//! The compiler front end is `phoenix_core`'s `CompileRequest::obs(true)`,
//! which records the metrics and events; the span tree is built only for a
//! compile that also keeps its trace (`trace(true)`). Every experiment
//! binary asks for both with `--obs`.
//!
//! # Examples
//!
//! ```
//! use phoenix_obs::{ObsCollector, Span};
//! use phoenix_obs::metrics::MetricId;
//!
//! let collector = ObsCollector::new();
//! collector.metrics().add(MetricId::GroupsCompiled, 3);
//! let mut pass = Span::new("simplify-synth", "pass");
//! pass.dur_us = 1200;
//! collector.push_root(pass);
//! let report = collector.finish(Vec::new());
//! assert_eq!(report.metrics.counter("groups_compiled"), Some(3));
//! assert_eq!(report.root.name, "pipeline");
//! let trace = phoenix_obs::perfetto::to_trace_file("demo", &report);
//! assert!(!trace.trace_events.is_empty());
//! ```

pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod span;

pub use metrics::{GaugeId, HistogramId, MetricId, MetricsRegistry, MetricsSnapshot};
pub use perfetto::{TraceEvent, TraceEventFile};
pub use report::{Event, EventKind, ObsReport};
pub use span::{ObsCollector, Span};
