//! The concrete passes of the PHOENIX pipeline.
//!
//! Each stage of the paper's flow is one [`Pass`] over a
//! [`CompileContext`]:
//!
//! | Pass | Stage |
//! |---|---|
//! | [`GroupPass`] | IR grouping by qubit support (§IV-A) |
//! | [`SimplifySynthPass`] | group-wise BSF simplification + synthesis (Algorithm 1) |
//! | [`OrderPass`] | Tetris-like IR group ordering (§IV-C) |
//! | [`ConcatPass`] | assembly of the ordered subcircuits |
//! | [`TransformPass`] | any circuit-level rewrite (peephole, SU(4) rebase, KAK, SWAP lowering) |
//! | [`SnapshotLogicalPass`] | records the pre-routing logical circuit |
//! | [`LayoutRoutePass`] | layout search + SABRE routing on the target device |
//!
//! [`SimplifySynthPass`] fans the independent per-group work out over scoped
//! threads; results are written back by group index, so the output is
//! bit-identical for any thread count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use phoenix_cache::{encode_slot, CompileCache, GroupArtifact};
use phoenix_circuit::transform::{
    CircuitTransform, CnotLower, KakResynthesis, Peephole, Su4Rebase,
};
use phoenix_circuit::Circuit;
use phoenix_obs::metrics::{GaugeId, HistogramId, MetricId};
use phoenix_obs::{ObsCollector, Span};
use phoenix_pauli::{CanonicalIr, PauliString};
use phoenix_router::{route_with_attempt_log, RouterOptions};

use crate::cancel::CancelToken;
use crate::evaluator::CostEvaluator;
use crate::group::{group_by_support, IrGroup};
use crate::order::{order_groups_interruptible, OrderOptions};
use crate::pass::{
    CompileContext, Pass, PassError, EVENT_DEGRADED, EVENT_RETRIED, EVENT_TRUNCATED,
};
use crate::simplify::{simplify_terms_deepening, SimplifyOptions};
use crate::synth::synthesize_group;

/// The conventional CNOT cost of synthesizing `terms` without Algorithm 1:
/// `2(w-1)` CNOTs per weight-`w` exponentiation. The baseline that
/// `cnots_saved_stage2` is measured against; the group circuit's own cost
/// is its 2Q-gate count (Clifford2Q generators and ≤2Q rotations each
/// lower to at most a CNOT-equivalent).
fn naive_cnot_estimate(terms: &[(PauliString, f64)]) -> u64 {
    terms
        .iter()
        .map(|(p, _)| 2 * (p.weight().max(1) as u64 - 1))
        .sum()
}

/// Stage 1: partition the terms into IR groups by qubit support.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupPass;

impl Pass for GroupPass {
    fn name(&self) -> &str {
        "group"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        ctx.groups = group_by_support(ctx.num_qubits, &ctx.terms);
        ctx.num_groups = ctx.groups.len();
        Ok(())
    }
}

/// Stage 2: per-group BSF simplification + synthesis.
///
/// Groups are independent, so the pass distributes them over
/// `threads` scoped OS threads (`0` = one per available core). Each worker
/// writes into its own index-aligned slice of the result vector, making the
/// output identical for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifySynthPass {
    /// Run Algorithm 1; when `false` each group is synthesized with
    /// conventional CNOT chains (the ablation arm).
    pub simplify: bool,
    /// Worker threads (`0` = auto, `1` = sequential).
    pub threads: usize,
    /// Per-group candidate-scan worker threads (`0` = auto, `1` =
    /// sequential), composing multiplicatively with `threads`. The output
    /// is identical for every value.
    pub scan_threads: usize,
    /// Test hook: force the group at this index to panic mid-optimization,
    /// exercising the degradation path deterministically. Leave `None`
    /// outside fault-injection tests.
    pub fault_inject_group: Option<usize>,
}

impl Default for SimplifySynthPass {
    fn default() -> Self {
        SimplifySynthPass {
            simplify: true,
            threads: 1,
            scan_threads: 1,
            fault_inject_group: None,
        }
    }
}

/// Outcome class of one group's compilation (reported as a trace event
/// when not `None`).
type GroupOutcome = Option<&'static str>;

/// One group's compiled output: circuit + implemented term sequence.
type CompiledGroup = (Circuit, Vec<(PauliString, f64)>);

/// One group's compiled output (circuit + implemented term sequence), its
/// outcome class, and its span (`Some` only when instrumented).
type GroupResult = (CompiledGroup, GroupOutcome, Option<Span>);

/// Outcome of one optimized group-compilation attempt.
enum Optimized {
    /// Compiled successfully (with any instrumentation child spans).
    Done(CompiledGroup, Vec<Span>),
    /// The cancel token fired or the deadline elapsed mid-optimization;
    /// the greedy loop was abandoned inside an epoch.
    Interrupted,
    /// Algorithm 1 or synthesis panicked (contained).
    Panicked,
}

impl SimplifySynthPass {
    /// Compiles one group with the failure modes contained: a panic inside
    /// Algorithm 1 or synthesis (reported as [`EVENT_DEGRADED`]) and an
    /// elapsed optimization deadline (reported as [`EVENT_TRUNCATED`])
    /// both fall back to the group's unsimplified conventional synthesis,
    /// which is always available and semantically equivalent.
    ///
    /// When `obs` is set, also returns the group's span (cat `group`, with
    /// `candidate-scan`/`synthesize` children on the optimized path). Only
    /// the timings depend on the run; names and args are deterministic.
    /// Runs Algorithm 1 + synthesis on `terms` with the panic contained.
    /// The cancel token and deadline are polled once per greedy epoch, so
    /// even one pathological group (hundreds of wide terms take thousands
    /// of epochs) cannot stall a cancellation for more than one epoch.
    #[allow(clippy::too_many_arguments)]
    fn optimized(
        &self,
        eval: &mut CostEvaluator,
        n: usize,
        terms: &[(PauliString, f64)],
        opts: &SimplifyOptions,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        obs: Option<&ObsCollector>,
        fault: bool,
    ) -> Optimized {
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            if fault {
                panic!("fault injection: forced panic");
            }
            let scan_start = obs.map(|o| o.now_us());
            let mut interrupted = || {
                cancel.is_some_and(|c| c.is_cancelled())
                    || deadline.is_some_and(|d| Instant::now() >= d)
            };
            // Full breadth and no principal variation: the plain greedy loop.
            let (s, _) =
                simplify_terms_deepening(eval, n, terms, opts, usize::MAX, &[], &mut interrupted)?;
            let synth_start = obs.map(|o| o.now_us());
            let circuit = synthesize_group(&s);
            let children = obs.map_or_else(Vec::new, |o| {
                let mut scan = Span::new("candidate-scan", "stage2");
                scan.start_us = scan_start.unwrap_or(0);
                scan.dur_us = synth_start.unwrap_or(0).saturating_sub(scan.start_us);
                let mut synth = Span::new("synthesize", "stage2");
                synth.start_us = synth_start.unwrap_or(0);
                synth.dur_us = o.now_us().saturating_sub(synth.start_us);
                vec![scan, synth]
            });
            Some(((circuit, s.term_sequence()), children))
        }));
        match attempt {
            Ok(Some((result, children))) => Optimized::Done(result, children),
            Ok(None) => Optimized::Interrupted,
            Err(_) => Optimized::Panicked,
        }
    }

    /// The cache-aware optimized path: look the group up by its canonical
    /// IR; on a hit bind the real coefficients into the cached skeleton, on
    /// a miss compile the group *slot-encoded*, cache the decoded artifact,
    /// and bind. Both directions perform the exact float operations of the
    /// uncached path (sign folding is negation, which is exact), so the
    /// output is bit-for-bit identical. Propagates [`Optimized::Panicked`]
    /// and [`Optimized::Interrupted`] exactly like
    /// [`SimplifySynthPass::optimized`] — an interrupted slot-encoded
    /// compile never inserts a partial artifact into the shared cache. The
    /// returned flag is `true` on a cache hit.
    #[allow(clippy::too_many_arguments)]
    fn compile_group_via_cache(
        &self,
        eval: &mut CostEvaluator,
        n: usize,
        group: &IrGroup,
        opts: &SimplifyOptions,
        cancel: Option<&CancelToken>,
        obs: Option<&ObsCollector>,
        cache: &CompileCache,
    ) -> (Optimized, bool) {
        let key = CanonicalIr::from_terms(n, group.terms());
        let coeffs: Vec<f64> = group.terms().iter().map(|(_, c)| *c).collect();
        let recompile = |eval: &mut CostEvaluator| {
            self.optimized(eval, n, group.terms(), opts, None, cancel, obs, false)
        };
        if let Some(art) = cache.get_group(&key) {
            let matches = art.num_qubits() == n
                && art.terms().len() == group.terms().len()
                && art
                    .terms()
                    .iter()
                    .zip(group.terms())
                    .all(|(a, (b, _))| a == b);
            if matches {
                if let Ok(bound) = art.bind(&coeffs) {
                    if let Some(o) = obs {
                        o.metrics().incr(MetricId::CacheGroupHits);
                    }
                    return (Optimized::Done(bound, Vec::new()), true);
                }
            }
            // Digest collision or artifact mismatch: recompile below with
            // the real coefficients and leave the incumbent entry alone.
            return (recompile(eval), false);
        }
        if let Some(o) = obs {
            o.metrics().incr(MetricId::CacheGroupMisses);
        }
        let slot_terms: Vec<(PauliString, f64)> = group
            .terms()
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (p.clone(), encode_slot(i)))
            .collect();
        let ((skeleton, slot_order), children) =
            match self.optimized(eval, n, &slot_terms, opts, None, cancel, obs, false) {
                Optimized::Done(result, children) => (result, children),
                other => return (other, false),
            };
        let strings: Vec<PauliString> = group.terms().iter().map(|(p, _)| p.clone()).collect();
        let art = match GroupArtifact::from_slot_encoded(n, strings, skeleton, &slot_order) {
            Ok(art) => cache.insert_group(key, Arc::new(art)),
            // The skeleton is not rebindable (defensive: slot encoding
            // makes this unreachable) — compile uncached instead.
            Err(_) => return (recompile(eval), false),
        };
        match art.bind(&coeffs) {
            Ok(bound) => (Optimized::Done(bound, children), false),
            Err(_) => (recompile(eval), false),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_group(
        &self,
        eval: &mut CostEvaluator,
        n: usize,
        index: usize,
        group: &IrGroup,
        opts: &SimplifyOptions,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        obs: Option<&ObsCollector>,
        cache: Option<&CompileCache>,
    ) -> GroupResult {
        let start_us = obs.map(|o| o.now_us());
        let naive = || {
            (
                phoenix_circuit::synthesis::naive_circuit(n, group.terms()),
                group.terms().to_vec(),
            )
        };
        let fault = self.fault_inject_group;
        // Caching composes only with the clean optimized path: fault
        // injection and pass budgets must never leak artifacts into (or be
        // masked by) the shared cache.
        let usable_cache = cache.filter(|_| fault.is_none() && deadline.is_none());
        // A mid-loop interruption degrades to naive synthesis exactly like
        // the pre-group checks above it: past-deadline is reported as
        // truncation, while a fired cancel token stays silent (the result
        // is discarded at the next pass boundary anyway).
        let interrupt_outcome = |deadline: Option<Instant>| -> GroupOutcome {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                Some(EVENT_TRUNCATED)
            } else {
                None
            }
        };
        let (result, outcome, children, cached) = if !self.simplify {
            (naive(), None, Vec::new(), None)
        } else if cancel.is_some_and(|c| c.is_cancelled()) {
            // The compilation is being abandoned: emit the cheapest valid
            // form and let the manager abort at the next pass boundary
            // (the result is discarded, so no fallback event is recorded).
            (naive(), None, Vec::new(), None)
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            (naive(), Some(EVENT_TRUNCATED), Vec::new(), None)
        } else if let Some(cache) = usable_cache {
            match self.compile_group_via_cache(eval, n, group, opts, cancel, obs, cache) {
                (Optimized::Done(result, children), hit) => (result, None, children, Some(hit)),
                (Optimized::Interrupted, _) => {
                    (naive(), interrupt_outcome(deadline), Vec::new(), None)
                }
                (Optimized::Panicked, _) => (naive(), Some(EVENT_DEGRADED), Vec::new(), None),
            }
        } else {
            match self.optimized(
                eval,
                n,
                group.terms(),
                opts,
                deadline,
                cancel,
                obs,
                fault == Some(index),
            ) {
                Optimized::Done(result, children) => (result, None, children, None),
                Optimized::Interrupted => (naive(), interrupt_outcome(deadline), Vec::new(), None),
                Optimized::Panicked => (naive(), Some(EVENT_DEGRADED), Vec::new(), None),
            }
        };
        let span = obs.map(|o| {
            let cnot = result.0.counts().two_qubit() as u64;
            let naive_cnot = naive_cnot_estimate(group.terms());
            let mut s = Span::new(format!("group {index}"), "group")
                .arg("terms", group.terms().len())
                .arg("cnot", cnot)
                .arg("naive_cnot", naive_cnot)
                .arg("cnots_saved", naive_cnot.saturating_sub(cnot));
            if let Some(kind) = outcome {
                s = s.arg("outcome", kind);
            }
            if let Some(hit) = cached {
                s = s.arg("cache", if hit { "hit" } else { "miss" });
            }
            s.start_us = start_us.unwrap_or(0);
            s.dur_us = o.now_us().saturating_sub(s.start_us);
            s.children = children;
            s
        });
        (result, outcome, span)
    }
}

impl Pass for SimplifySynthPass {
    fn name(&self) -> &str {
        if self.simplify {
            "simplify-synth"
        } else {
            "naive-synth"
        }
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        let n = ctx.num_qubits;
        let obs_arc = ctx.obs.clone();
        let obs = obs_arc.as_deref();
        let cache_arc = ctx.cache.clone();
        let cache = cache_arc.as_deref();
        let groups = &ctx.groups;
        let deadline = ctx.deadline;
        let cancel_token = ctx.cancel.clone();
        let cancel = cancel_token.as_ref();
        let opts = SimplifyOptions {
            scan_threads: self.scan_threads,
            ..SimplifyOptions::default()
        };
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .min(groups.len().max(1));
        if let Some(o) = obs {
            o.metrics()
                .set_gauge(GaugeId::Stage2Threads, threads as i64);
        }
        // Each worker carries one evaluator across its groups.
        let results: Vec<GroupResult> = if threads <= 1 {
            let mut eval = CostEvaluator::new();
            groups
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    self.compile_group(&mut eval, n, i, g, &opts, deadline, cancel, obs, cache)
                })
                .collect()
        } else {
            let mut slots: Vec<Option<GroupResult>> = vec![None; groups.len()];
            let chunk = groups.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (c, (gs, out)) in groups
                    .chunks(chunk)
                    .zip(slots.chunks_mut(chunk))
                    .enumerate()
                {
                    scope.spawn(move || {
                        let mut eval = CostEvaluator::new();
                        for (j, (g, slot)) in gs.iter().zip(out.iter_mut()).enumerate() {
                            let i = c * chunk + j;
                            *slot = Some(self.compile_group(
                                &mut eval, n, i, g, &opts, deadline, cancel, obs, cache,
                            ));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("every chunk was processed"))
                .collect()
        };
        // Events, spans and metrics are recorded in group-index order on
        // the coordinating thread, keeping every observability artifact
        // deterministic for any thread count (workers wrote their results
        // into index-aligned slots above).
        let mut subcircuits = Vec::with_capacity(results.len());
        let mut group_terms = Vec::with_capacity(results.len());
        for (i, ((circuit, terms), outcome, span)) in results.into_iter().enumerate() {
            if let Some(kind) = outcome {
                let why = match kind {
                    EVENT_TRUNCATED => "pass budget elapsed",
                    _ => "optimization panicked",
                };
                ctx.record_event(
                    self.name(),
                    kind,
                    format!("group {i} fell back to conventional synthesis ({why})"),
                );
            }
            if let Some(o) = obs {
                let m = o.metrics();
                let cnot = circuit.counts().two_qubit() as u64;
                let naive_cnot = naive_cnot_estimate(&terms);
                let saved = naive_cnot.saturating_sub(cnot);
                m.incr(MetricId::GroupsCompiled);
                m.add(MetricId::TermsCompiled, terms.len() as u64);
                m.add(MetricId::CnotsSavedStage2, saved);
                m.observe(HistogramId::GroupTerms, terms.len() as u64);
                m.observe(HistogramId::GroupCnots, cnot);
                m.observe(HistogramId::GroupCnotsSaved, saved);
            }
            if let Some(span) = span {
                ctx.push_span(span);
            }
            subcircuits.push(circuit);
            group_terms.push(terms);
        }
        ctx.subcircuits = subcircuits;
        ctx.group_terms = group_terms;
        Ok(())
    }
}

/// Stage 3: Tetris-like group ordering (or first-appearance order when
/// disabled, the ablation arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderPass {
    /// Lookahead window of the greedy assembly.
    pub lookahead: usize,
    /// Apply the Eq. (7) routing-similarity factor.
    pub routing_aware: bool,
    /// When `false`, keep first-appearance order.
    pub enabled: bool,
}

impl Default for OrderPass {
    fn default() -> Self {
        OrderPass {
            lookahead: 20,
            routing_aware: false,
            enabled: true,
        }
    }
}

impl Pass for OrderPass {
    fn name(&self) -> &str {
        if self.enabled {
            "tetris-order"
        } else {
            "program-order"
        }
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        if self.enabled && ctx.past_deadline() {
            // Ordering is pure optimization: past the budget deadline keep
            // first-appearance order, which is always valid.
            ctx.record_event(
                self.name(),
                EVENT_TRUNCATED,
                "pass budget elapsed; keeping first-appearance group order",
            );
            ctx.order = (0..ctx.subcircuits.len()).collect();
            return Ok(());
        }
        ctx.order = if self.enabled {
            // The token is polled inside the greedy loop (not just at pass
            // boundaries): a request abandoned mid-ordering stops paying
            // for lookahead scoring immediately. The first-appearance
            // fallback is always valid; the manager aborts at the next
            // boundary, so — like stage 2's cheap naive fallback — no
            // event is recorded for a result that is discarded anyway.
            let cancel = ctx.cancel.clone();
            order_groups_interruptible(
                &ctx.subcircuits,
                &OrderOptions {
                    lookahead: self.lookahead,
                    routing_aware: self.routing_aware,
                },
                &mut || cancel.as_ref().is_some_and(|t| t.is_cancelled()),
            )
            .unwrap_or_else(|| (0..ctx.subcircuits.len()).collect())
        } else {
            (0..ctx.subcircuits.len()).collect()
        };
        if let Some(obs) = &ctx.obs {
            let m = obs.metrics();
            m.set_gauge(GaugeId::OrderLookahead, self.lookahead as i64);
            if self.enabled {
                m.add(MetricId::OrderedGroups, ctx.order.len() as u64);
            }
        }
        Ok(())
    }
}

/// Assembles the ordered subcircuits into the working circuit and records
/// the emitted term order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcatPass;

impl Pass for ConcatPass {
    fn name(&self) -> &str {
        "concat"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        if ctx.order.len() != ctx.subcircuits.len() {
            return Err(PassError::new(
                self.name(),
                format!(
                    "order permutes {} groups but stage 2 produced {}",
                    ctx.order.len(),
                    ctx.subcircuits.len()
                ),
            ));
        }
        let mut circuit = Circuit::new(ctx.num_qubits);
        let mut term_order = Vec::with_capacity(ctx.terms.len());
        for &i in &ctx.order {
            circuit.append(&ctx.subcircuits[i]);
            term_order.extend(ctx.group_terms[i].iter().cloned());
        }
        ctx.circuit = circuit;
        ctx.term_order = term_order;
        Ok(())
    }
}

/// Adapter running any [`CircuitTransform`] on the working circuit.
pub struct TransformPass {
    transform: Box<dyn CircuitTransform>,
    optional: bool,
}

impl std::fmt::Debug for TransformPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TransformPass")
            .field(&self.transform.name())
            .finish()
    }
}

impl TransformPass {
    /// Wraps a circuit transform as a required pass.
    pub fn new(transform: impl CircuitTransform + 'static) -> Self {
        TransformPass {
            transform: Box::new(transform),
            optional: false,
        }
    }

    /// Marks the pass as skippable under an elapsed pass budget (builder
    /// style). Only safe for transforms that purely reduce gate count —
    /// a representation-changing transform (rebase, lowering) must stay
    /// required.
    pub fn skippable(mut self) -> Self {
        self.optional = true;
        self
    }

    /// The peephole-optimization pass (skippable under budget pressure).
    pub fn peephole() -> Self {
        TransformPass::new(Peephole).skippable()
    }

    /// The SU(4)-rebase pass (required: later stages expect the SU(4)
    /// gate set).
    pub fn su4_rebase() -> Self {
        TransformPass::new(Su4Rebase)
    }

    /// The KAK-resynthesis pass (skippable under budget pressure).
    pub fn kak_resynthesis() -> Self {
        TransformPass::new(KakResynthesis).skippable()
    }

    /// The SWAP-/structural-lowering pass into `{1Q, CNOT}` (required:
    /// output must not contain symbolic SWAPs).
    pub fn swap_lower() -> Self {
        TransformPass::new(CnotLower)
    }
}

impl Pass for TransformPass {
    fn name(&self) -> &str {
        self.transform.name()
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        ctx.circuit = self.transform.apply(&ctx.circuit);
        Ok(())
    }

    fn optional(&self) -> bool {
        self.optional
    }
}

/// Records the working circuit as the pre-routing logical circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLogicalPass;

impl Pass for SnapshotLogicalPass {
    fn name(&self) -> &str {
        "snapshot-logical"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        ctx.logical = Some(ctx.circuit.clone());
        Ok(())
    }
}

/// Layout search + SABRE routing on the context's device. The working
/// circuit becomes the physical-indexed routed circuit (SWAPs still
/// symbolic — follow with [`TransformPass::swap_lower`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutRoutePass {
    /// SABRE tuning knobs.
    pub router: RouterOptions,
    /// Random-restart trials of the layout search.
    pub layout_trials: usize,
}

impl Default for LayoutRoutePass {
    fn default() -> Self {
        LayoutRoutePass {
            router: RouterOptions::default(),
            layout_trials: 3,
        }
    }
}

impl Pass for LayoutRoutePass {
    fn name(&self) -> &str {
        "layout-route"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        let device = ctx
            .device
            .as_ref()
            .ok_or_else(|| PassError::new(self.name(), "no target device in context"))?;
        let device_qubits = device.num_qubits();
        let (routed, attempts) =
            route_with_attempt_log(&ctx.circuit, device, &self.router, self.layout_trials)
                .map_err(|e| PassError::new(self.name(), format!("routing failed: {e}")))?;
        let name = self.name().to_string();
        for a in &attempts {
            if let Some(error) = &a.error {
                ctx.record_event(
                    &name,
                    EVENT_RETRIED,
                    format!("{} layout abandoned ({}); retried", a.strategy, error),
                );
            }
        }
        if let Some(obs) = ctx.obs.clone() {
            let m = obs.metrics();
            m.add(MetricId::RouterAttempts, attempts.len() as u64);
            m.add(MetricId::SabreSwaps, routed.num_swaps as u64);
            m.set_gauge(GaugeId::DeviceQubits, device_qubits as i64);
            // Attempts ran back to back ending roughly now; reconstruct
            // their start offsets from the per-attempt durations.
            let total: u64 = attempts.iter().map(|a| a.micros).sum();
            let mut start = obs.now_us().saturating_sub(total);
            for a in &attempts {
                let mut span = Span::new(format!("route:{}", a.strategy), "route");
                span = match (&a.swaps, &a.error) {
                    (Some(swaps), _) => span.arg("swaps", swaps),
                    (None, Some(error)) => span.arg("error", error),
                    (None, None) => span,
                };
                span.start_us = start;
                span.dur_us = a.micros;
                start = start.saturating_add(a.micros);
                ctx.push_span(span);
            }
        }
        let l2p = |layout: &phoenix_router::Layout| -> Vec<usize> {
            (0..ctx.num_qubits)
                .map(|l| layout.phys(l).expect("routed layout maps every logical"))
                .collect()
        };
        ctx.initial_layout = Some(l2p(&routed.initial_layout));
        ctx.final_layout = Some(l2p(&routed.final_layout));
        ctx.circuit = routed.circuit;
        ctx.num_swaps = routed.num_swaps;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pass::PassManager;
    use phoenix_topology::CouplingGraph;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn stage2_is_identical_for_any_thread_count() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "ZZI", "IZZ", "XIX"]);
        let run = |threads: usize| {
            let mut ctx = CompileContext::new(3, &t);
            GroupPass.run(&mut ctx).unwrap();
            SimplifySynthPass {
                threads,
                ..SimplifySynthPass::default()
            }
            .run(&mut ctx)
            .unwrap();
            (ctx.subcircuits, ctx.group_terms)
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn fault_injected_group_degrades_to_naive_synthesis() {
        let t = terms(&["ZYY", "ZZY", "IZZ", "XIX"]);
        let mut ctx = CompileContext::new(3, &t);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // contained panics stay quiet
        let pm = PassManager::new().with(GroupPass).with(SimplifySynthPass {
            fault_inject_group: Some(0),
            ..SimplifySynthPass::default()
        });
        let trace = pm.run(&mut ctx).unwrap();
        std::panic::set_hook(prev);
        assert!(trace.is_degraded());
        let degraded = trace.events_of_kind(crate::pass::EVENT_DEGRADED);
        assert_eq!(degraded.len(), 1);
        assert!(degraded[0].detail.contains("group 0"));
        // The failed group carries its conventional synthesis; the others
        // are untouched.
        let naive = phoenix_circuit::synthesis::naive_circuit(3, ctx.groups[0].terms());
        assert_eq!(ctx.subcircuits[0], naive);
        assert_eq!(ctx.group_terms[0], ctx.groups[0].terms().to_vec());
        assert_eq!(ctx.subcircuits.len(), ctx.groups.len());
    }

    #[test]
    fn fault_injection_is_contained_for_any_thread_count() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "ZZI", "IZZ", "XIX"]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |threads: usize| {
            let mut ctx = CompileContext::new(3, &t);
            let pm = PassManager::new().with(GroupPass).with(SimplifySynthPass {
                threads,
                fault_inject_group: Some(1),
                ..SimplifySynthPass::default()
            });
            let trace = pm.run(&mut ctx).unwrap();
            (ctx.subcircuits, ctx.group_terms, trace.events)
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads = {threads}");
        }
        std::panic::set_hook(prev);
        assert!(sequential
            .2
            .iter()
            .any(|e| e.kind == crate::pass::EVENT_DEGRADED));
    }

    #[test]
    fn zero_budget_truncates_stage2_and_ordering_but_compiles() {
        let t = terms(&["ZYY", "ZZY", "IZZ", "XIX"]);
        let mut ctx = CompileContext::new(3, &t);
        let pm = PassManager::new()
            .with(GroupPass)
            .with(SimplifySynthPass::default())
            .with(OrderPass::default())
            .with(ConcatPass)
            .with(TransformPass::peephole())
            .with_budget(std::time::Duration::ZERO);
        let trace = pm.run(&mut ctx).unwrap();
        assert!(!ctx.circuit.is_empty());
        // Stage 2 and ordering truncated; peephole skipped outright.
        assert!(!trace
            .events_of_kind(crate::pass::EVENT_TRUNCATED)
            .is_empty());
        assert_eq!(trace.events_of_kind(crate::pass::EVENT_SKIPPED).len(), 1);
        // Emitted terms are still a permutation of the input.
        assert_eq!(ctx.term_order.len(), t.len());
    }

    #[test]
    fn concat_rejects_mismatched_order() {
        let t = terms(&["ZZI", "IXX"]);
        let mut ctx = CompileContext::new(3, &t);
        GroupPass.run(&mut ctx).unwrap();
        SimplifySynthPass::default().run(&mut ctx).unwrap();
        ctx.order = vec![0];
        assert!(ConcatPass.run(&mut ctx).is_err());
    }

    #[test]
    fn layout_route_requires_a_device() {
        let mut ctx = CompileContext::new(2, &terms(&["ZZ"]));
        let err = LayoutRoutePass::default().run(&mut ctx).unwrap_err();
        assert_eq!(err.pass, "layout-route");
    }

    #[test]
    fn full_hardware_sequence_respects_coupling() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let mut ctx = CompileContext::for_device(4, &t, &dev);
        let pm = PassManager::new()
            .with(GroupPass)
            .with(SimplifySynthPass::default())
            .with(OrderPass {
                routing_aware: true,
                ..OrderPass::default()
            })
            .with(ConcatPass)
            .with(TransformPass::peephole())
            .with(SnapshotLogicalPass)
            .with(LayoutRoutePass::default())
            .with(TransformPass::swap_lower())
            .with(TransformPass::peephole());
        let trace = pm.run(&mut ctx).unwrap();
        assert_eq!(trace.passes.len(), 9);
        for g in ctx.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        assert!(ctx.logical.is_some());
    }
}
