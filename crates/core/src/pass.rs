//! The pass-manager layer: compilation as a traced sequence of passes.
//!
//! Every stage of the PHOENIX pipeline — IR grouping, group-wise BSF
//! simplification + synthesis, Tetris-like ordering, concatenation, and the
//! circuit-level back ends (peephole, SU(4) rebase, KAK resynthesis, layout
//! search, SABRE routing, SWAP lowering) — is expressed as a [`Pass`] over a
//! shared [`CompileContext`]. A [`PassManager`] executes a sequence and
//! records a serializable [`PassTrace`] with per-pass wall-clock time and
//! before/after circuit statistics, so any pipeline assembled from passes is
//! observable for free.
//!
//! [`CompileRequest`](crate::CompileRequest) runs the canonical sequence
//! assembled from [`passes`](crate::passes), and takes those statistics
//! only when it keeps its trace; custom pipelines compose the same
//! building blocks:
//!
//! ```
//! use phoenix_core::pass::{CompileContext, PassManager};
//! use phoenix_core::passes::{ConcatPass, GroupPass, OrderPass, SimplifySynthPass};
//! use phoenix_pauli::PauliString;
//!
//! let terms: Vec<(PauliString, f64)> =
//!     vec![("ZYY".parse().unwrap(), 0.1), ("XZY".parse().unwrap(), 0.2)];
//! let mut ctx = CompileContext::new(3, &terms);
//! let manager = PassManager::new()
//!     .with(GroupPass)
//!     .with(SimplifySynthPass::default())
//!     .with(OrderPass::default())
//!     .with(ConcatPass);
//! let trace = manager.run(&mut ctx).unwrap();
//! assert_eq!(trace.passes.len(), 4);
//! assert!(!ctx.circuit.is_empty());
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phoenix_circuit::{Circuit, Gate};
use phoenix_obs::metrics::MetricId;
pub use phoenix_obs::report::{Event as TraceEvent, EventKind};
use phoenix_obs::{ObsCollector, Span};
use phoenix_pauli::PauliString;
use phoenix_topology::CouplingGraph;
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::group::IrGroup;

/// The mutable state a pass sequence threads through compilation.
///
/// Early (IR-level) passes populate `groups` / `subcircuits` /
/// `group_terms` / `order`; [`ConcatPass`](crate::passes::ConcatPass)
/// collapses them into `circuit` + `term_order`; circuit-level passes then
/// rewrite `circuit` in place. Hardware passes additionally use `device`,
/// `logical` and `num_swaps`.
#[derive(Debug, Clone)]
pub struct CompileContext {
    /// Number of qubits of the program.
    pub num_qubits: usize,
    /// The input Pauli exponentiation terms, in program order.
    pub terms: Vec<(PauliString, f64)>,
    /// IR groups (set by grouping).
    pub groups: Vec<IrGroup>,
    /// Per-group synthesized subcircuits (set by stage 2).
    pub subcircuits: Vec<Circuit>,
    /// Per-group term sequences as implemented (set by stage 2).
    pub group_terms: Vec<Vec<(PauliString, f64)>>,
    /// Group permutation chosen by ordering.
    pub order: Vec<usize>,
    /// The working circuit (set by concatenation, rewritten by circuit
    /// passes).
    pub circuit: Circuit,
    /// The input terms in emitted order (a permutation of `terms`).
    pub term_order: Vec<(PauliString, f64)>,
    /// Number of IR groups the program decomposed into.
    pub num_groups: usize,
    /// Target device, when compiling hardware-aware.
    pub device: Option<CouplingGraph>,
    /// Snapshot of the logical circuit taken just before routing.
    pub logical: Option<Circuit>,
    /// SWAPs inserted by routing.
    pub num_swaps: usize,
    /// Logical→physical placement the routed circuit starts from
    /// (set by routing; `initial_layout[l]` is the physical qubit logical
    /// qubit `l` enters at).
    pub initial_layout: Option<Vec<usize>>,
    /// Logical→physical placement after the last routed gate.
    pub final_layout: Option<Vec<usize>>,
    /// Robustness events raised by passes (degradations, retries,
    /// truncations); drained into the [`PassTrace`] after each pass.
    pub events: Vec<TraceEvent>,
    /// Wall-clock deadline for optimization effort, set from the pass
    /// budget. Only the anytime pass reads it, to stop deepening; every
    /// pass that starts runs in full.
    pub deadline: Option<Instant>,
    /// Observability collector, when this compilation is instrumented
    /// (`CompileRequest::obs(true)`): passes record their metrics in it,
    /// and their spans only when [`CompileContext::span_collector`] says
    /// so. `None` costs one pointer check per pass and per stage-2 group.
    pub obs: Option<Arc<ObsCollector>>,
    /// Child spans produced by the currently running pass (stage-2 groups,
    /// router attempts, ...), or `None` when the manager builds no span for
    /// that pass. The manager drains them into that pass's span after it
    /// finishes.
    pub spans: Option<Vec<Span>>,
    /// Shared parametric compilation cache. When set, stage 2 looks up each
    /// distinct group shape's artifact here before compiling it and inserts
    /// the artifacts it compiles, so later compiles of any group of the same
    /// shape, in any program, only bind; and `layout-route` looks up the
    /// routed template of its angle-erased input, so a structure is routed
    /// once and later compiles only copy their angles into it. Budgeted
    /// and verified requests never mount it, and anytime deepening rounds
    /// never use it. `None` compiles every shape and routes every circuit
    /// for this compile alone, with bit-for-bit the same output.
    pub cache: Option<Arc<phoenix_cache::CompileCache>>,
    /// Cooperative cancellation token. The manager checks it before every
    /// pass, and stage 2, the ordering loop and the anytime pass poll it
    /// inside their loops; a fired token ends the compile at the next poll
    /// with a typed cancellation error, whether or not a pass budget is
    /// set. `None` costs one pointer check per poll.
    pub cancel: Option<CancelToken>,
    /// Deepening rounds completed by the anytime optimizer (`None` when the
    /// legacy non-anytime path ran). Round 0 is the always-computed naive
    /// baseline, so `Some(0)` means "interrupted before any improvement".
    pub depth_reached: Option<usize>,
}

impl CompileContext {
    /// A fresh context for logical compilation of `terms` on `num_qubits`.
    pub fn new(num_qubits: usize, terms: &[(PauliString, f64)]) -> Self {
        CompileContext {
            num_qubits,
            terms: terms.to_vec(),
            groups: Vec::new(),
            subcircuits: Vec::new(),
            group_terms: Vec::new(),
            order: Vec::new(),
            circuit: Circuit::new(num_qubits),
            term_order: Vec::new(),
            num_groups: 0,
            device: None,
            logical: None,
            num_swaps: 0,
            initial_layout: None,
            final_layout: None,
            events: Vec::new(),
            deadline: None,
            obs: None,
            spans: None,
            cache: None,
            cancel: None,
            depth_reached: None,
        }
    }

    /// Whether the attached token (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Records a robustness event against `pass`.
    pub fn record_event(&mut self, pass: &str, kind: EventKind, detail: impl Into<String>) {
        self.events.push(TraceEvent {
            pass: pass.to_string(),
            kind,
            detail: detail.into(),
        });
    }

    /// The collector to time the running pass's child spans against: set
    /// only while the manager builds that pass's span, which it does for an
    /// instrumented compile that keeps its trace. Every span site asks this
    /// one question; `None` builds no span.
    pub fn span_collector(&self) -> Option<&Arc<ObsCollector>> {
        self.obs.as_ref().filter(|_| self.spans.is_some())
    }

    /// Records a child span against the currently running pass. A no-op
    /// when the manager builds no span for the pass.
    pub fn push_span(&mut self, span: Span) {
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }

    /// Same as [`CompileContext::new`] with a routing target attached.
    pub fn for_device(
        num_qubits: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> Self {
        let mut ctx = CompileContext::new(num_qubits, terms);
        ctx.device = Some(device.clone());
        ctx
    }

    /// A context that starts from an already-compiled circuit (used to run
    /// back-end pass sequences on baseline compiler outputs).
    pub fn from_circuit(circuit: Circuit) -> Self {
        let mut ctx = CompileContext::new(circuit.num_qubits(), &[]);
        ctx.circuit = circuit;
        ctx
    }
}

/// Error raised by a [`Pass`] whose preconditions are not met.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Name of the failing pass.
    pub pass: String,
    /// Human-readable diagnosis.
    pub message: String,
}

/// Message marking a [`PassError`] as a cooperative cancellation rather
/// than a genuine pass failure (see [`PassError::cancelled`]).
const CANCELLED: &str = "cancelled: abandoned by client request";

impl PassError {
    /// Builds an error for `pass`.
    pub fn new(pass: &str, message: impl Into<String>) -> Self {
        PassError {
            pass: pass.to_string(),
            message: message.into(),
        }
    }

    /// The error raised when a [`CancelToken`] fired: by the manager
    /// between passes (`pass` is the pass that was *about to run*), or by
    /// a pass that polled it mid-loop. Recognized by
    /// [`PassError::is_cancellation`] so the API boundary can convert it
    /// into [`PhoenixError::Cancelled`](crate::PhoenixError::Cancelled)
    /// instead of a generic pass failure.
    pub fn cancelled(pass: &str) -> Self {
        PassError::new(pass, CANCELLED)
    }

    /// Whether this error records a cooperative cancellation.
    pub fn is_cancellation(&self) -> bool {
        self.message == CANCELLED
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` failed: {}", self.pass, self.message)
    }
}

impl std::error::Error for PassError {}

/// One stage of a compilation pipeline.
pub trait Pass {
    /// Stable display name (used in traces).
    fn name(&self) -> &str;

    /// Executes the stage, mutating the context.
    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError>;
}

/// Event kind: see [`EventKind::Degraded`].
pub const EVENT_DEGRADED: EventKind = EventKind::Degraded;
/// Event kind: see [`EventKind::Retried`].
pub const EVENT_RETRIED: EventKind = EventKind::Retried;
/// Event kind: see [`EventKind::Truncated`].
pub const EVENT_TRUNCATED: EventKind = EventKind::Truncated;
/// Event kind: see [`EventKind::Verified`].
pub const EVENT_VERIFIED: EventKind = EventKind::Verified;
/// Event kind: see [`EventKind::RoundAbandoned`].
pub const EVENT_ROUND_ABANDONED: EventKind = EventKind::RoundAbandoned;

/// A hook invoked after every executed pass: the attachment point for
/// translation validation.
///
/// An observer sees the full [`CompileContext`] at each pass boundary and
/// may reject it with a [`PassError`], failing compilation the same way a
/// broken pass would. Observers must not mutate compilation state. The
/// manager records an [`EVENT_VERIFIED`] event for each boundary an
/// observer accepts, and invokes observers in attachment order; the first
/// rejection aborts the pipeline.
///
/// The canonical implementation is
/// [`BoundaryVerifier`](crate::verify::BoundaryVerifier), which re-simulates
/// the working circuit against the exact Trotter reference after every
/// semantic transformation (`PhoenixOptions::verify`).
pub trait PassObserver: Send + Sync {
    /// Stable display name (used in `verified` trace events).
    fn name(&self) -> &str;

    /// Validates the context after `pass` ran. Returning an error aborts
    /// the pipeline.
    fn after_pass(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError>;
}

/// Size/shape statistics of the working circuit at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// Total gate count.
    pub gates: usize,
    /// CNOT count.
    pub cnot: usize,
    /// Two-qubit gate count of any flavour.
    pub two_qubit: usize,
    /// Circuit depth.
    pub depth: usize,
    /// Two-qubit depth.
    pub depth_2q: usize,
}

impl CircuitStats {
    /// Measures `circuit` in one pass over its gates, with one per-qubit
    /// frontier of (depth, 2Q depth): the numbers [`Circuit::counts`],
    /// [`Circuit::depth`] and [`Circuit::depth_2q`] take three passes for.
    pub fn of(circuit: &Circuit) -> Self {
        #[cfg(test)]
        STATS_TAKEN.with(|n| n.set(n.get() + 1));
        let mut frontier = vec![(0usize, 0usize); circuit.num_qubits()];
        let (mut cnot, mut two_qubit) = (0, 0);
        for g in circuit.gates() {
            match g.qubits() {
                (a, None) => frontier[a].0 += 1,
                (a, Some(b)) => {
                    cnot += usize::from(matches!(g, Gate::Cnot(..)));
                    two_qubit += 1;
                    let layer = (
                        frontier[a].0.max(frontier[b].0) + 1,
                        frontier[a].1.max(frontier[b].1) + 1,
                    );
                    frontier[a] = layer;
                    frontier[b] = layer;
                }
            }
        }
        CircuitStats {
            gates: circuit.len(),
            cnot,
            two_qubit,
            depth: frontier.iter().map(|f| f.0).max().unwrap_or(0),
            depth_2q: frontier.iter().map(|f| f.1).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// [`CircuitStats::of`] calls made on this thread. Thread-local because
    /// unit tests run concurrently, and a pass manager measures its
    /// boundaries on the thread that runs it.
    pub(crate) static STATS_TAKEN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Trace entry for a single executed pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassRecord {
    /// The pass name.
    pub name: String,
    /// Wall-clock time of this pass, in milliseconds.
    pub millis: f64,
    /// Wall-clock time since the pipeline started, in milliseconds.
    pub cumulative_millis: f64,
    /// Working-circuit statistics before the pass ran.
    pub before: CircuitStats,
    /// Working-circuit statistics after the pass ran.
    pub after: CircuitStats,
}

impl PassRecord {
    /// The record as an untimed obs pass span whose ten args are the five
    /// statistics before and after the pass.
    fn span(&self) -> Span {
        let (b, a) = (self.before, self.after);
        Span::new(self.name.as_str(), "pass")
            .arg("gates_before", b.gates)
            .arg("gates_after", a.gates)
            .arg("cnot_before", b.cnot)
            .arg("cnot_after", a.cnot)
            .arg("two_qubit_before", b.two_qubit)
            .arg("two_qubit_after", a.two_qubit)
            .arg("depth_before", b.depth)
            .arg("depth_after", a.depth)
            .arg("depth_2q_before", b.depth_2q)
            .arg("depth_2q_after", a.depth_2q)
    }
}

/// The full observability record of one [`PassManager::run`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PassTrace {
    /// One record per executed pass, in execution order.
    pub passes: Vec<PassRecord>,
    /// Robustness and verification events, in the order they were raised.
    pub events: Vec<TraceEvent>,
}

impl PassTrace {
    /// Total pipeline wall-clock, in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.passes.last().map_or(0.0, |p| p.cumulative_millis)
    }

    /// The executed pass names, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name.as_str()).collect()
    }

    /// The events of a given kind.
    pub fn events_of_kind(&self, kind: EventKind) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Whether any unit of work fell back to its unoptimized path.
    pub fn is_degraded(&self) -> bool {
        self.events.iter().any(|e| e.kind == EVENT_DEGRADED)
    }
}

/// Executes a pass sequence over a [`CompileContext`], recording a
/// [`PassTrace`]. It is the one recorder of pass boundaries: with
/// [`CompileContext::obs`] set, it counts the boundaries, and the pass
/// spans come from the same measurements as the trace.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    budget: Option<Duration>,
    observers: Vec<Arc<dyn PassObserver>>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("budget", &self.budget)
            .field(
                "observers",
                &self.observers.iter().map(|o| o.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// A manager over a prebuilt sequence.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager {
            passes,
            budget: None,
            observers: Vec::new(),
        }
    }

    /// Sets a wall-clock budget for optimization effort. Once it elapses,
    /// the anytime pass stops deepening (`truncated` or `round-abandoned`
    /// events); no other pass reads it, and every pass that starts runs in
    /// full, so the output is always a valid compilation — just less
    /// optimized.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a [`PassObserver`] invoked after every executed pass
    /// (builder style). Each call appends, and at every pass boundary the
    /// manager invokes the observers in attachment order, aborting on the
    /// first rejection.
    pub fn with_observer(mut self, observer: Arc<dyn PassObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Appends one pass (builder style).
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a boxed pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Concatenates another manager's sequence after this one's. The other
    /// manager's observers are appended after this one's (its budget, if
    /// any, is dropped — the front manager's budget governs the whole
    /// sequence).
    pub fn append(mut self, other: PassManager) -> Self {
        self.passes.extend(other.passes);
        self.observers.extend(other.observers);
        self
    }

    /// The names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the sequence, stopping at the first failing pass.
    ///
    /// Each pass runs under a panic guard: a panicking pass is contained
    /// and surfaced as a [`PassError`] rather than unwinding through the
    /// caller. A budget ([`PassManager::with_budget`]) only sets the
    /// context's deadline; every pass runs in full.
    ///
    /// Each executed pass is measured once: one clock reading at each end
    /// (observers included) and one [`CircuitStats`] per boundary, so a
    /// pass's `after` is the next pass's `before`. When the context is
    /// instrumented, `passes_run` and every counter an event kind feeds
    /// are counted here, and the pass span is built from the same
    /// [`PassRecord`].
    pub fn run(&self, ctx: &mut CompileContext) -> Result<PassTrace, PassError> {
        self.run_from(ctx, Recording::now(true))
    }

    /// [`PassManager::run`] as one of the managers a compile runs in turn:
    /// on the compile's clock, and measuring its boundaries only when
    /// `rec.measure` says the compile keeps its trace. Unmeasured, the
    /// returned trace holds the events and no pass record, and no span is
    /// built; an instrumented context still gets its counters.
    pub(crate) fn run_from(
        &self,
        ctx: &mut CompileContext,
        rec: Recording,
    ) -> Result<PassTrace, PassError> {
        let mut trace = PassTrace::default();
        if let Some(budget) = self.budget {
            ctx.deadline = Some(rec.t0 + budget);
        }
        // The last pass's `after`, which is the next pass's `before`.
        let mut stats = None;
        for pass in &self.passes {
            // Cooperative cancellation: checked before every pass, so a
            // fired token stops the pipeline at the next boundary without
            // ever interrupting a pass mid-rewrite.
            if ctx.is_cancelled() {
                return Err(PassError::cancelled(pass.name()));
            }
            let before = rec
                .measure
                .then(|| stats.unwrap_or_else(|| CircuitStats::of(&ctx.circuit)));
            ctx.spans = (rec.measure && ctx.obs.is_some()).then(Vec::new);
            let start = Instant::now();
            run_contained(pass.name(), || pass.run(ctx))?;
            for observer in &self.observers {
                observer.after_pass(pass.name(), ctx)?;
                ctx.record_event(
                    pass.name(),
                    EVENT_VERIFIED,
                    format!("boundary accepted by observer `{}`", observer.name()),
                );
            }
            let end = Instant::now();
            let children = ctx.spans.take();
            if let Some(before) = before {
                let after = CircuitStats::of(&ctx.circuit);
                stats = Some(after);
                let record = PassRecord {
                    name: pass.name().to_string(),
                    millis: (end - start).as_secs_f64() * 1e3,
                    cumulative_millis: (end - rec.t0).as_secs_f64() * 1e3,
                    before,
                    after,
                };
                if let (Some(obs), Some(children)) = (&ctx.obs, children) {
                    let mut span = record.span();
                    span.start_us = obs.us_at(start);
                    span.dur_us = (end - start).as_micros() as u64;
                    span.children = children;
                    obs.push_root(span);
                }
                trace.passes.push(record);
            }
            drain_events(ctx, &mut trace);
        }
        Ok(trace)
    }
}

/// How the managers one compile runs in turn record their boundaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recording {
    /// When the compile started: every record's `cumulative_millis` and the
    /// budget's deadline count from it, so the managers share one clock.
    pub(crate) t0: Instant,
    /// Whether each boundary's [`CircuitStats`] are taken and each pass's
    /// [`PassRecord`] kept. A compile sets it only when it keeps its trace;
    /// an obs collector then also gets the pass spans, which carry the same
    /// statistics. Unset, an obs collector gets the counters alone.
    pub(crate) measure: bool,
}

impl Recording {
    /// A recording on a clock that starts now.
    pub(crate) fn now(measure: bool) -> Self {
        Recording {
            t0: Instant::now(),
            measure,
        }
    }
}

/// Moves the boundary's events into `trace`, counting the executed pass
/// and each event kind that feeds a counter when the context is
/// instrumented.
fn drain_events(ctx: &mut CompileContext, trace: &mut PassTrace) {
    if let Some(obs) = &ctx.obs {
        obs.metrics().incr(MetricId::PassesRun);
        for event in &ctx.events {
            let id = match event.kind {
                EventKind::Degraded => MetricId::Stage2Degraded,
                EventKind::Retried => MetricId::RouterRetries,
                EventKind::Truncated => MetricId::Stage2Truncated,
                EventKind::Verified => MetricId::BoundariesVerified,
                EventKind::RoundAbandoned => continue,
            };
            obs.metrics().incr(id);
        }
    }
    trace.events.append(&mut ctx.events);
}

/// Runs one pass with panics contained: an unwinding pass becomes a
/// [`PassError`] carrying the panic payload, so a bug deep inside a stage
/// surfaces as a typed compile error at the API boundary instead of
/// aborting the caller.
fn run_contained(name: &str, run: impl FnOnce() -> Result<(), PassError>) -> Result<(), PassError> {
    match panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(payload) => Err(PassError::new(
            name,
            format!("panicked: {}", panic_message(payload.as_ref())),
        )),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct AddTerms(usize);

    impl Pass for AddTerms {
        fn name(&self) -> &str {
            "add-terms"
        }

        fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
            ctx.num_groups += self.0;
            Ok(())
        }
    }

    struct AlwaysFails;

    impl Pass for AlwaysFails {
        fn name(&self) -> &str {
            "always-fails"
        }

        fn run(&self, _ctx: &mut CompileContext) -> Result<(), PassError> {
            Err(PassError::new("always-fails", "by design"))
        }
    }

    #[test]
    fn manager_runs_passes_in_order_and_traces_them() {
        let mut ctx = CompileContext::new(2, &[]);
        let pm = PassManager::new().with(AddTerms(2)).with(AddTerms(3));
        let trace = pm.run(&mut ctx).unwrap();
        assert_eq!(ctx.num_groups, 5);
        assert_eq!(trace.pass_names(), ["add-terms", "add-terms"]);
        assert!(trace.total_millis() >= 0.0);
    }

    #[test]
    fn manager_stops_at_first_error() {
        let mut ctx = CompileContext::new(2, &[]);
        let pm = PassManager::new()
            .with(AddTerms(1))
            .with(AlwaysFails)
            .with(AddTerms(1));
        let err = pm.run(&mut ctx).unwrap_err();
        assert_eq!(err.pass, "always-fails");
        // Only the first pass ran.
        assert_eq!(ctx.num_groups, 1);
    }

    struct AlwaysPanics;

    impl Pass for AlwaysPanics {
        fn name(&self) -> &str {
            "always-panics"
        }

        fn run(&self, _ctx: &mut CompileContext) -> Result<(), PassError> {
            panic!("simulated in-pass bug");
        }
    }

    #[test]
    fn panicking_pass_is_contained_as_a_pass_error() {
        let mut ctx = CompileContext::new(2, &[]);
        let pm = PassManager::new().with(AddTerms(1)).with(AlwaysPanics);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let err = pm.run(&mut ctx).unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(err.pass, "always-panics");
        assert!(err.message.contains("simulated in-pass bug"));
    }

    /// Fires the attached cancel token while "running".
    struct CancelsItself;

    impl Pass for CancelsItself {
        fn name(&self) -> &str {
            "cancels-itself"
        }

        fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
            if let Some(t) = &ctx.cancel {
                t.cancel();
            }
            ctx.num_groups += 1;
            Ok(())
        }
    }

    #[test]
    fn pre_fired_token_stops_the_pipeline_before_the_first_pass() {
        let mut ctx = CompileContext::new(2, &[]);
        let token = CancelToken::new();
        token.cancel();
        ctx.cancel = Some(token);
        let pm = PassManager::new().with(AddTerms(1));
        let err = pm.run(&mut ctx).unwrap_err();
        assert_eq!(err.pass, "add-terms");
        assert!(err.is_cancellation());
        assert_eq!(ctx.num_groups, 0);
    }

    #[test]
    fn token_fired_mid_pipeline_stops_at_the_next_boundary() {
        let mut ctx = CompileContext::new(2, &[]);
        // A live token, fired *by* the middle pass.
        ctx.cancel = Some(CancelToken::new());
        let pm = PassManager::new()
            .with(AddTerms(1))
            .with(CancelsItself)
            .with(AddTerms(1));
        let err = pm.run(&mut ctx).unwrap_err();
        // The cancelling pass itself completed; the *next* pass never ran.
        assert_eq!(ctx.num_groups, 2);
        assert_eq!(err.pass, "add-terms");
        assert!(err.is_cancellation());
    }

    /// Fires the attached token, then runs the anytime pass under it: a
    /// cancel that lands while a budgeted compile deepens.
    struct CancelsThenDeepens;

    impl Pass for CancelsThenDeepens {
        fn name(&self) -> &str {
            "cancels-then-deepens"
        }

        fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
            if let Some(t) = &ctx.cancel {
                t.cancel();
            }
            crate::anytime::AnytimePass::default().run(ctx)
        }
    }

    /// Counts its runs.
    struct CountsRuns(Arc<AtomicUsize>);

    impl Pass for CountsRuns {
        fn name(&self) -> &str {
            "counts-runs"
        }

        fn run(&self, _ctx: &mut CompileContext) -> Result<(), PassError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn a_cancel_while_deepening_ends_the_compile() {
        let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
            .iter()
            .map(|l| (l.parse().unwrap(), 0.1))
            .collect();
        for budget in [None, Some(Duration::from_secs(600))] {
            let mut ctx = CompileContext::new(3, &terms);
            ctx.cancel = Some(CancelToken::new());
            let runs = Arc::new(AtomicUsize::new(0));
            let mut pm = PassManager::new()
                .with(crate::passes::GroupPass)
                .with(CancelsThenDeepens)
                .with(CountsRuns(Arc::clone(&runs)));
            if let Some(budget) = budget {
                pm = pm.with_budget(budget);
            }
            let err = pm.run(&mut ctx).unwrap_err();
            assert!(err.is_cancellation(), "budget {budget:?}: {err}");
            assert_eq!(err.pass, "anytime-deepen", "budget {budget:?}");
            assert_eq!(runs.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn ordinary_pass_errors_are_not_cancellations() {
        assert!(!PassError::new("concat", "boom").is_cancellation());
        assert!(PassError::cancelled("concat").is_cancellation());
    }

    struct RaisesEvents;

    impl Pass for RaisesEvents {
        fn name(&self) -> &str {
            "raises-events"
        }

        fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
            ctx.record_event("raises-events", EVENT_DEGRADED, "a");
            ctx.record_event("raises-events", EVENT_RETRIED, "b");
            ctx.record_event("raises-events", EVENT_RETRIED, "c");
            Ok(())
        }
    }

    struct Verifier;

    impl PassObserver for Verifier {
        fn name(&self) -> &str {
            "test-verifier"
        }

        fn after_pass(&self, _pass: &str, _ctx: &CompileContext) -> Result<(), PassError> {
            Ok(())
        }
    }

    fn instrumented() -> (CompileContext, Arc<ObsCollector>) {
        let mut ctx = CompileContext::new(2, &[]);
        let obs = Arc::new(ObsCollector::new());
        ctx.obs = Some(obs.clone());
        (ctx, obs)
    }

    #[test]
    fn manager_counts_passes_and_event_kinds() {
        let (mut ctx, obs) = instrumented();
        PassManager::new().with(RaisesEvents).run(&mut ctx).unwrap();
        let m = obs.metrics();
        assert_eq!(m.counter(MetricId::PassesRun), 1);
        assert_eq!(m.counter(MetricId::Stage2Degraded), 1);
        assert_eq!(m.counter(MetricId::RouterRetries), 2);
        // Without an observer no boundary is claimed as verified.
        assert_eq!(m.counter(MetricId::BoundariesVerified), 0);
    }

    #[test]
    fn manager_counts_the_boundaries_observers_verify() {
        let (mut ctx, obs) = instrumented();
        let trace = PassManager::new()
            .with(RaisesEvents)
            .with_observer(Arc::new(Verifier))
            .run(&mut ctx)
            .unwrap();
        assert_eq!(obs.metrics().counter(MetricId::BoundariesVerified), 1);
        assert_eq!(trace.events_of_kind(EVENT_VERIFIED).len(), 1);
    }

    #[test]
    fn uninstrumented_manager_still_traces_events() {
        let mut ctx = CompileContext::new(2, &[]);
        let trace = PassManager::new()
            .with(RaisesEvents)
            .with_observer(Arc::new(Verifier))
            .run(&mut ctx)
            .unwrap();
        assert_eq!(trace.events.len(), 4);
        assert!(ctx.events.is_empty());
    }

    #[test]
    fn cumulative_timings_are_monotone() {
        let mut ctx = CompileContext::new(2, &[]);
        let pm = PassManager::new()
            .with(AddTerms(1))
            .with(AddTerms(1))
            .with(AddTerms(1));
        let trace = pm.run(&mut ctx).unwrap();
        for w in trace.passes.windows(2) {
            assert!(w[0].cumulative_millis <= w[1].cumulative_millis);
        }
    }
}
