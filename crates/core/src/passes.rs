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
//! | [`TransformPass`] | the four circuit-level rewrites (peephole, SU(4) rebase, KAK, CNOT lowering) |
//! | [`SnapshotLogicalPass`] | records the pre-routing logical circuit |
//! | [`LayoutRoutePass`] | layout search + SABRE routing on the target device |
//!
//! [`SimplifySynthPass`] compiles each distinct group shape once, fanning
//! the shape compiles out over the crate's worker pool, and binds every
//! group from its shape's artifact on the calling thread; results are
//! written back by group index, so the output is bit-identical for any
//! thread count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use phoenix_cache::{encode_slot, CompileCache, GroupArtifact, RouteArtifact, RouteKey};
use phoenix_circuit::{kak, peephole, rebase, Circuit};
use phoenix_obs::metrics::{GaugeId, HistogramId, MetricId, MetricsRegistry};
use phoenix_obs::{ObsCollector, Span};
use phoenix_pauli::{Clifford2Q, GroupShape, PauliString, WordHashMap};
use phoenix_router::{
    route_with_attempt_log, RouteAttempt, RouteError, RoutedCircuit, RouterOptions,
};
use phoenix_topology::CouplingGraph;

use crate::cancel::CancelToken;
use crate::evaluator::CostEvaluator;
use crate::group::{group_by_support, IrGroup};
use crate::order::{order_groups_interruptible, OrderOptions};
use crate::par;
use crate::pass::{CompileContext, EventKind, Pass, PassError, EVENT_DEGRADED, EVENT_RETRIED};
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

/// Stage 2: per-group BSF simplification + synthesis, compiled once per
/// group shape.
///
/// Groups whose rows coincide once each support is relabelled onto ranks
/// `0…s−1` share a [`GroupShape`], and Algorithm 1 makes the same choices
/// on all of them up to that relabelling (DESIGN.md §2.2.2). The pass
/// therefore obtains one slot-encoded [`GroupArtifact`] per distinct shape
/// — from the context's shared [`CompileCache`] when one is mounted and
/// allowed, otherwise compiled for this compile alone — and binds every
/// group from its shape's artifact, which is bit-for-bit the group's own
/// compile. Shape leaders compile over at most `threads` participants
/// (`0` = one per available core): the calling thread plus workers of the
/// crate's persistent pool. The binds, well under a microsecond each, run
/// on the calling thread. Every result lands in an index-aligned slot, so
/// the output is identical for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifySynthPass {
    /// Run Algorithm 1; when `false` each group is synthesized with
    /// conventional CNOT chains (the ablation arm).
    pub simplify: bool,
    /// Cap on the threads compiling shapes: the caller plus up to
    /// `threads − 1` pool workers (`0` = one per core, `1` = inline).
    pub threads: usize,
    /// Cap on the threads of each candidate scan (`0` = one per core,
    /// `1` = inline), drawn from the same pool as `threads`. The output is
    /// identical for every value.
    pub scan_threads: usize,
    /// Test hook: force the group at this index to panic mid-optimization,
    /// exercising the degradation path deterministically. The group
    /// compiles as a shape of its own, so exactly that group degrades.
    /// Leave `None` outside fault-injection tests.
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
type GroupOutcome = Option<EventKind>;

/// Pauli strings with their coefficients.
type Terms = Vec<(PauliString, f64)>;

/// One group's compiled output: circuit + implemented term sequence.
type CompiledGroup = (Circuit, Terms);

/// One group's compiled output (circuit + implemented term sequence), its
/// outcome class, and its span (`Some` only when instrumented).
type GroupResult = (CompiledGroup, GroupOutcome, Option<Span>);

/// A leader's compile spans and its `(start, duration)` in collector
/// microseconds (`None` when no span is built).
type ShapeCompile = (Vec<Span>, Option<(u64, u64)>);

/// A shape's artifact, or the outcome every group of the shape records
/// when it falls back to conventional synthesis.
type ShapeArtifact = Result<Arc<GroupArtifact>, GroupOutcome>;

/// A shape's compile: its artifact (or the outcome its groups record when
/// they fall back), the Clifford sequence it chose, and its spans.
type CompiledShape = (
    Result<GroupArtifact, GroupOutcome>,
    Vec<Clifford2Q>,
    Vec<Span>,
);

/// One compile's group shapes, built once for all its stage-2 rounds:
/// per group its key and shape, per shape its first group (the leader)
/// and its rank-space rows, slot-encoded on the shape's first compile.
pub(crate) struct ShapeIndex {
    keys: Arc<[GroupShape]>,
    leaders: Vec<usize>,
    shape_of: Vec<usize>,
    rows: Arc<[OnceLock<Terms>]>,
}

/// One stage-2 round: per group its output, outcome and span; per shape
/// the Clifford sequence its compile chose in rank space, the shape's
/// principal variation in the next round.
pub(crate) struct Stage2Round {
    groups: Vec<GroupResult>,
    pub(crate) pvs: Arc<[Vec<Clifford2Q>]>,
}

impl Stage2Round {
    /// Splits the round into subcircuits and emitted terms, recording
    /// against `pass`, in group-index order, a [`EVENT_DEGRADED`] event per
    /// fallen-back group and the round's group spans.
    pub(crate) fn record(
        self,
        ctx: &mut CompileContext,
        pass: &str,
    ) -> (Vec<Circuit>, Vec<Vec<(PauliString, f64)>>) {
        let mut subcircuits = Vec::with_capacity(self.groups.len());
        let mut group_terms = Vec::with_capacity(self.groups.len());
        for (i, ((circuit, terms), outcome, span)) in self.groups.into_iter().enumerate() {
            if let Some(kind) = outcome {
                ctx.record_event(
                    pass,
                    kind,
                    format!(
                        "group {i} fell back to conventional synthesis (optimization panicked)"
                    ),
                );
            }
            if let Some(span) = span {
                ctx.push_span(span);
            }
            subcircuits.push(circuit);
            group_terms.push(terms);
        }
        (subcircuits, group_terms)
    }
}

impl SimplifySynthPass {
    /// Keys `groups` by shape in first-appearance order (none when
    /// simplification is off). The fault-injected group leads a shape of
    /// its own, never shared, so exactly that group degrades.
    pub(crate) fn shapes(&self, groups: &[IrGroup]) -> ShapeIndex {
        let keys: Arc<[GroupShape]> = if self.simplify {
            groups
                .iter()
                .map(|g| GroupShape::from_terms(g.support_mask(), g.terms()))
                .collect()
        } else {
            Arc::from([])
        };
        let mut index: WordHashMap<&GroupShape, usize> =
            WordHashMap::with_capacity_and_hasher(keys.len(), Default::default());
        let mut leaders: Vec<usize> = Vec::new();
        let mut shape_of: Vec<usize> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let shape = if self.fault_inject_group == Some(i) {
                leaders.push(i);
                leaders.len() - 1
            } else {
                *index.entry(key).or_insert_with(|| {
                    leaders.push(i);
                    leaders.len() - 1
                })
            };
            shape_of.push(shape);
        }
        let rows = leaders.iter().map(|_| OnceLock::new()).collect();
        ShapeIndex {
            keys,
            leaders,
            shape_of,
            rows,
        }
    }

    /// Compiles one shape's rows through Algorithm 1, scanning `breadth`
    /// support-pair ranks from the principal variation `pv`, and synthesis.
    /// Returns the artifact and the chosen Clifford sequence, or `None`
    /// when `interrupted` fired; it is polled once per greedy epoch, so
    /// even one pathological shape (hundreds of wide rows take thousands
    /// of epochs) cannot hold an interruption for more than one epoch. A
    /// panic ([`EVENT_DEGRADED`]) leaves the shape without an artifact, and
    /// its groups fall back to their unsimplified conventional synthesis,
    /// which is always available and semantically equivalent.
    ///
    /// When `spans` is set, also returns the `candidate-scan`/`synthesize`
    /// child spans of the leader's group span.
    #[allow(clippy::too_many_arguments)]
    fn compile_shape(
        eval: &mut CostEvaluator,
        rows: &[(PauliString, f64)],
        width: usize,
        opts: &SimplifyOptions,
        breadth: usize,
        pv: &[Clifford2Q],
        interrupted: &dyn Fn() -> bool,
        spans: Option<&ObsCollector>,
        fault: bool,
    ) -> Option<CompiledShape> {
        if interrupted() {
            return None;
        }
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            if fault {
                panic!("fault injection: forced panic");
            }
            let scan_start = spans.map(|o| o.now_us());
            let (s, pv) =
                simplify_terms_deepening(eval, width, rows, opts, breadth, pv, &mut || {
                    interrupted()
                })?;
            let synth_start = spans.map(|o| o.now_us());
            let artifact = GroupArtifact::from_slot_encoded(
                rows.len(),
                synthesize_group(&s),
                s.emitted_coeffs(),
            )
            .expect("a slot-encoded skeleton decodes");
            let children = spans.map_or_else(Vec::new, |o| {
                let mut scan = Span::new("candidate-scan", "stage2");
                scan.start_us = scan_start.unwrap_or(0);
                scan.dur_us = synth_start.unwrap_or(0).saturating_sub(scan.start_us);
                let mut synth = Span::new("synthesize", "stage2");
                synth.start_us = synth_start.unwrap_or(0);
                synth.dur_us = o.now_us().saturating_sub(synth.start_us);
                vec![scan, synth]
            });
            Some((artifact, pv, children))
        }));
        match attempt {
            Ok(round) => round.map(|(artifact, pv, children)| (Ok(artifact), pv, children)),
            Err(_) => Some((Err(Some(EVENT_DEGRADED)), Vec::new(), Vec::new())),
        }
    }

    /// Binds one group from its shape's artifact, or synthesizes it
    /// conventionally when the shape has none, and builds its span (cat
    /// `group`) when `spans` is set. `role` is the group's place in its shape
    /// (`leader` or `bound`; `None` on the naive path), `cache` whether the
    /// shape's shared-cache lookup hit, and `compile` the leader's compile
    /// spans and timing; a leader's span covers its compile and its bind.
    /// Only the timings depend on the run; names and args are
    /// deterministic.
    #[allow(clippy::too_many_arguments)]
    fn finish_group(
        n: usize,
        index: usize,
        group: &IrGroup,
        artifact: &ShapeArtifact,
        role: Option<&'static str>,
        cache: Option<bool>,
        compile: ShapeCompile,
        spans: Option<&ObsCollector>,
    ) -> GroupResult {
        let bind_start = spans.map(|o| o.now_us());
        let (result, outcome) = match artifact {
            Ok(art) => (art.bind(n, &group.support(), group.terms()), None),
            Err(outcome) => (
                (
                    phoenix_circuit::synthesis::naive_circuit(n, group.terms()),
                    group.terms().to_vec(),
                ),
                *outcome,
            ),
        };
        let span = spans.map(|o| {
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
            if let Some(hit) = cache {
                s = s.arg("cache", if hit { "hit" } else { "miss" });
            }
            if let Some(role) = role {
                s = s.arg("shape", role);
            }
            let bind_start = bind_start.unwrap_or(0);
            let (children, timing) = compile;
            let (start_us, compile_us) = timing.unwrap_or((bind_start, 0));
            s.start_us = start_us;
            s.dur_us = compile_us + o.now_us().saturating_sub(bind_start);
            s.children = children;
            s
        });
        (result, outcome, span)
    }

    /// Compiles one stage-2 round: one artifact per shape, each greedy
    /// epoch scanning `breadth` support-pair ranks from the shape's
    /// principal variation in `pvs` (`usize::MAX` and none: the plain
    /// greedy loop), then one bind per group. With `cache`, shapes are
    /// looked up and inserted on the calling thread in first-appearance
    /// order, never under fault injection; the missing ones compile over
    /// at most `threads` pool participants, and every group binds on the
    /// calling thread. `metrics` counts the cache lookups and `spans` adds
    /// group spans. Returns `None`, never a partial round, when
    /// `interrupted` fired.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compile_round(
        &self,
        n: usize,
        groups: &[IrGroup],
        shapes: &ShapeIndex,
        breadth: usize,
        pvs: &Arc<[Vec<Clifford2Q>]>,
        interrupted: impl Fn() -> bool + Send + Sync + 'static,
        cache: Option<&CompileCache>,
        metrics: Option<&MetricsRegistry>,
        spans: Option<&Arc<ObsCollector>>,
    ) -> Option<Stage2Round> {
        if !self.simplify {
            // Conventional synthesis costs about as much as a bind: inline.
            let spans = spans.map(Arc::as_ref);
            let groups = groups
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    Self::finish_group(n, i, g, &Err(None), None, None, Default::default(), spans)
                })
                .collect();
            return Some(Stage2Round {
                groups,
                pvs: Arc::from([]),
            });
        }
        let ShapeIndex {
            keys,
            leaders,
            shape_of,
            rows,
        } = shapes;
        let fault = self.fault_inject_group;
        let shared = cache.filter(|_| fault.is_none());
        let mut artifacts: Vec<Option<ShapeArtifact>> = Vec::with_capacity(leaders.len());
        let mut lookups: Vec<Option<bool>> = Vec::with_capacity(leaders.len());
        for &leader in leaders {
            let hit = shared.and_then(|c| c.get_group(&keys[leader]));
            if let (Some(m), Some(_)) = (metrics, shared) {
                m.incr(if hit.is_some() {
                    MetricId::CacheGroupHits
                } else {
                    MetricId::CacheGroupMisses
                });
            }
            lookups.push(shared.map(|_| hit.is_some()));
            artifacts.push(hit.map(Ok));
        }

        // Compile the missing shapes. The job runs on pool threads, so it
        // owns what it reads: the shared keys, rows and principal
        // variations, the shapes it compiles and clones of the options,
        // poll and collector.
        let todo: Vec<usize> = (0..leaders.len())
            .filter(|&s| artifacts[s].is_none())
            .collect();
        let compiled = {
            let keys = Arc::clone(keys);
            let rows = Arc::clone(rows);
            let pvs = Arc::clone(pvs);
            let todo: Vec<(usize, usize)> = todo.iter().map(|&s| (s, leaders[s])).collect();
            let opts = SimplifyOptions {
                scan_threads: self.scan_threads,
                ..SimplifyOptions::default()
            };
            let spans = spans.cloned();
            par::map(
                todo.len(),
                self.threads,
                CostEvaluator::new,
                move |eval, t| {
                    let (shape, leader) = todo[t];
                    let key = &keys[leader];
                    let rows = rows[shape].get_or_init(|| {
                        let slots = (0..).map(encode_slot);
                        key.strings().into_iter().zip(slots).collect()
                    });
                    let pv = pvs.get(shape).map_or(&[][..], Vec::as_slice);
                    let start_us = spans.as_ref().map(|o| o.now_us());
                    let (artifact, pv, children) = Self::compile_shape(
                        eval,
                        rows,
                        key.width(),
                        &opts,
                        breadth,
                        pv,
                        &interrupted,
                        spans.as_deref(),
                        fault == Some(leader),
                    )?;
                    let timing = spans
                        .as_ref()
                        .zip(start_us)
                        .map(|(o, start)| (start, o.now_us().saturating_sub(start)));
                    Some((artifact.map(Arc::new), pv, (children, timing)))
                },
            )
        };
        let mut next_pvs: Vec<Vec<Clifford2Q>> = vec![Vec::new(); leaders.len()];
        let mut compiles: Vec<ShapeCompile> =
            (0..leaders.len()).map(|_| Default::default()).collect();
        for (&shape, compiled) in todo.iter().zip(compiled) {
            let (artifact, pv, compile) = compiled?;
            // A partial artifact never exists: panicked compiles come back
            // as outcomes and are not inserted.
            let artifact = match (artifact, shared) {
                (Ok(art), Some(shared)) => {
                    Ok(shared.insert_group(keys[leaders[shape]].clone(), art))
                }
                (other, _) => other,
            };
            artifacts[shape] = Some(artifact);
            next_pvs[shape] = pv;
            compiles[shape] = compile;
        }

        // Bind every group, leaders included, on the calling thread.
        let spans = spans.map(Arc::as_ref);
        let groups = (0..groups.len())
            .map(|i| {
                let shape = shape_of[i];
                let leader = leaders[shape] == i;
                Self::finish_group(
                    n,
                    i,
                    &groups[i],
                    artifacts[shape].as_ref().expect("every shape was resolved"),
                    Some(if leader { "leader" } else { "bound" }),
                    if leader { lookups[shape] } else { None },
                    if leader {
                        std::mem::take(&mut compiles[shape])
                    } else {
                        Default::default()
                    },
                    spans,
                )
            })
            .collect();
        Some(Stage2Round {
            groups,
            pvs: next_pvs.into(),
        })
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
        let obs = ctx.obs.clone();
        if let Some(o) = &obs {
            let threads = par::resolve_threads(self.threads).min(ctx.groups.len().max(1));
            o.metrics()
                .set_gauge(GaugeId::Stage2Threads, threads as i64);
        }
        let shapes = self.shapes(&ctx.groups);
        let cancel = ctx.cancel.clone();
        let round = self.compile_round(
            ctx.num_qubits,
            &ctx.groups,
            &shapes,
            usize::MAX,
            &Arc::from([]),
            move || cancel.as_ref().is_some_and(CancelToken::is_cancelled),
            ctx.cache.as_deref(),
            obs.as_deref().map(ObsCollector::metrics),
            ctx.span_collector(),
        );
        let Some(round) = round else {
            // The token fired mid-round: stop where the manager would stop
            // at the next pass boundary.
            return Err(PassError::cancelled(self.name()));
        };
        let (subcircuits, group_terms) = round.record(ctx, self.name());
        if let Some(o) = &obs {
            let m = o.metrics();
            for (circuit, terms) in subcircuits.iter().zip(&group_terms) {
                let cnot = circuit.counts().two_qubit() as u64;
                let naive_cnot = naive_cnot_estimate(terms);
                let saved = naive_cnot.saturating_sub(cnot);
                m.incr(MetricId::GroupsCompiled);
                m.add(MetricId::TermsCompiled, terms.len() as u64);
                m.add(MetricId::CnotsSavedStage2, saved);
                m.observe(HistogramId::GroupTerms, terms.len() as u64);
                m.observe(HistogramId::GroupCnots, cnot);
                m.observe(HistogramId::GroupCnotsSaved, saved);
            }
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

impl OrderPass {
    /// Orders `subcircuits` with a `lookahead` window (first-appearance
    /// order when disabled), or `None` when `interrupted` fired.
    pub(crate) fn order(
        &self,
        subcircuits: &[Circuit],
        lookahead: usize,
        interrupted: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<usize>> {
        if !self.enabled {
            return Some((0..subcircuits.len()).collect());
        }
        order_groups_interruptible(
            subcircuits,
            &OrderOptions {
                lookahead,
                routing_aware: self.routing_aware,
            },
            interrupted,
        )
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
        // The token is polled inside the greedy loop (not just at pass
        // boundaries): a request abandoned mid-ordering stops paying for
        // lookahead scoring immediately.
        let cancel = ctx.cancel.clone();
        ctx.order = self
            .order(&ctx.subcircuits, self.lookahead, &mut || {
                cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            })
            .ok_or_else(|| PassError::cancelled(self.name()))?;
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

impl ConcatPass {
    /// Appends `subcircuits` in `order` onto an `n`-qubit circuit, with the
    /// terms they emit in that order.
    pub(crate) fn concat(
        n: usize,
        subcircuits: &[Circuit],
        group_terms: &[Vec<(PauliString, f64)>],
        order: &[usize],
    ) -> (Circuit, Vec<(PauliString, f64)>) {
        let mut circuit = Circuit::new(n);
        let mut term_order = Vec::with_capacity(group_terms.iter().map(Vec::len).sum());
        for &i in order {
            circuit.append(&subcircuits[i]);
            term_order.extend(group_terms[i].iter().cloned());
        }
        (circuit, term_order)
    }
}

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
        (ctx.circuit, ctx.term_order) = Self::concat(
            ctx.num_qubits,
            &ctx.subcircuits,
            &ctx.group_terms,
            &ctx.order,
        );
        Ok(())
    }
}

/// A pure circuit-to-circuit rewrite of `phoenix-circuit`, run on the
/// working circuit. Each variant's pass name is the rewrite's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformPass {
    /// `peephole`: [`peephole::optimize`].
    Peephole,
    /// `su4-rebase`: [`rebase::to_su4`].
    Su4Rebase,
    /// `kak-resynthesis`: [`kak::resynthesize`].
    KakResynthesis,
    /// `cnot-lower`: [`Circuit::lower_to_cnot`].
    CnotLower,
}

impl TransformPass {
    /// The peephole pass: lowers the circuit to `{1Q, CNOT}` (SU(4)
    /// blocks included), then optimizes it, so its output is in the CNOT
    /// ISA. It runs in full in every compile, budgeted or not.
    pub fn peephole() -> Self {
        TransformPass::Peephole
    }

    /// The SU(4)-rebase pass: fuses maximal same-pair runs into SU(4)
    /// blocks.
    pub fn su4_rebase() -> Self {
        TransformPass::Su4Rebase
    }

    /// The KAK-resynthesis pass: rewrites SU(4) blocks to their canonical
    /// forms of at most three rotations.
    pub fn kak_resynthesis() -> Self {
        TransformPass::KakResynthesis
    }

    /// The SWAP-/structural-lowering pass into `{1Q, CNOT}` (output must
    /// not contain symbolic SWAPs).
    pub fn swap_lower() -> Self {
        TransformPass::CnotLower
    }

    /// The rewrite applied to `circuit`, as the pass runs it.
    pub(crate) fn apply(self, circuit: &Circuit) -> Circuit {
        match self {
            TransformPass::Peephole => peephole::optimize(circuit),
            TransformPass::Su4Rebase => rebase::to_su4(circuit),
            TransformPass::KakResynthesis => kak::resynthesize(circuit),
            TransformPass::CnotLower => circuit.lower_to_cnot(),
        }
    }
}

impl Pass for TransformPass {
    fn name(&self) -> &str {
        match self {
            TransformPass::Peephole => "peephole",
            TransformPass::Su4Rebase => "su4-rebase",
            TransformPass::KakResynthesis => "kak-resynthesis",
            TransformPass::CnotLower => "cnot-lower",
        }
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        ctx.circuit = self.apply(&ctx.circuit);
        Ok(())
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
///
/// With a shared [`CompileCache`] mounted, the pass routes a structure
/// once: it keys the router's input by its angle-erased form
/// ([`RouteKey`]) and binds the angles into a stored [`RouteArtifact`],
/// which is bit-for-bit the routing of the real circuit (DESIGN.md
/// §2.10).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutRoutePass {
    /// SABRE tuning knobs.
    pub router: RouterOptions,
    /// Forward/backward refinement rounds of the layout search
    /// (deterministic; see `phoenix_router::search_layout`).
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

/// What routing produced: the routed circuit, the attempts of the retry
/// ladder that ran (none on a memo hit), and each abandoned attempt's
/// strategy and error.
struct Routing {
    routed: RoutedCircuit,
    attempts: Vec<RouteAttempt>,
    retried: Vec<(&'static str, RouteError)>,
}

impl Routing {
    fn ran(routed: RoutedCircuit, attempts: Vec<RouteAttempt>) -> Self {
        let retried = attempts
            .iter()
            .filter_map(|a| a.error.clone().map(|e| (a.strategy, e)))
            .collect();
        Routing {
            routed,
            attempts,
            retried,
        }
    }
}

impl LayoutRoutePass {
    /// Routes `circuit` through the router's retry ladder.
    fn route(&self, circuit: &Circuit, device: &CouplingGraph) -> Result<Routing, PassError> {
        let (routed, attempts) =
            route_with_attempt_log(circuit, device, &self.router, self.layout_trials)
                .map_err(|e| PassError::new(self.name(), format!("routing failed: {e}")))?;
        Ok(Routing::ran(routed, attempts))
    }

    /// Routes `circuit` through `cache`'s route memo: a hit binds the
    /// circuit's angles into the stored template; a miss routes the
    /// slot-encoded circuit, stores the template and binds it. A template
    /// that does not decode one rotation to one position is never stored,
    /// and the real circuit is routed instead. Returns whether the lookup
    /// hit.
    fn route_memoized(
        &self,
        circuit: &Circuit,
        device: &CouplingGraph,
        cache: &CompileCache,
    ) -> Result<(Routing, bool), PassError> {
        let (key, angles) = RouteKey::new(circuit, device, &self.router, self.layout_trials);
        let (artifact, attempts, hit) = match cache.get_route(&key) {
            Some(artifact) => (Some(artifact), Vec::new(), true),
            None => {
                let ran = self.route(key.circuit(), device)?;
                let artifact =
                    RouteArtifact::from_slot_encoded(ran.routed, angles.len(), ran.retried)
                        .ok()
                        .map(|a| cache.insert_route(key, Arc::new(a)));
                (artifact, ran.attempts, false)
            }
        };
        if let Some(artifact) = artifact {
            if let Ok(routed) = artifact.bind(&angles) {
                let retried = artifact.retried().to_vec();
                return Ok((
                    Routing {
                        routed,
                        attempts,
                        retried,
                    },
                    hit,
                ));
            }
        }
        let mut real = self.route(circuit, device)?;
        real.attempts.splice(0..0, attempts);
        Ok((real, hit))
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
        let start_us = ctx.span_collector().map(|o| o.now_us());
        let (routing, hit) = match &ctx.cache {
            Some(cache) => {
                let (routing, hit) = self.route_memoized(&ctx.circuit, device, cache)?;
                (routing, Some(hit))
            }
            None => (self.route(&ctx.circuit, device)?, None),
        };
        let Routing {
            routed,
            attempts,
            retried,
        } = routing;
        let name = self.name().to_string();
        for (strategy, error) in &retried {
            ctx.record_event(
                &name,
                EVENT_RETRIED,
                format!("{strategy} layout abandoned ({error}); retried"),
            );
        }
        if let Some(obs) = &ctx.obs {
            let m = obs.metrics();
            match hit {
                Some(true) => m.incr(MetricId::CacheRouteHits),
                Some(false) => m.incr(MetricId::CacheRouteMisses),
                None => {}
            }
            m.add(MetricId::RouterAttempts, attempts.len() as u64);
            m.add(MetricId::SabreSwaps, routed.num_swaps as u64);
            m.set_gauge(GaugeId::DeviceQubits, device_qubits as i64);
        }
        if let Some(obs) = ctx.span_collector().cloned() {
            if hit == Some(true) {
                let mut span = Span::new("route:memo", "route").arg("swaps", routed.num_swaps);
                span.start_us = start_us.unwrap_or(0);
                span.dur_us = obs.now_us().saturating_sub(span.start_us);
                ctx.push_span(span);
            }
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
    fn peephole_pass_lowers_every_two_qubit_kind_to_cnots() {
        use phoenix_circuit::Gate;
        use phoenix_pauli::{Clifford2Q, Clifford2QKind, Pauli};

        let mut c = Circuit::new(3);
        c.push(Gate::Clifford2(Clifford2Q::new(Clifford2QKind::Cxy, 0, 1)));
        c.push(Gate::PauliRot2 {
            a: 1,
            b: 2,
            pa: Pauli::Y,
            pb: Pauli::Z,
            theta: 0.3,
        });
        let mut fused = Circuit::new(3);
        fused.push(Gate::Cnot(0, 2));
        fused.push(Gate::Rz(2, 0.7));
        fused.push(Gate::Cnot(0, 2));
        c.append(&rebase::to_su4(&fused));
        let before = c.counts();
        assert!(before.clifford2 > 0 && before.pauli_rot2 > 0 && before.su4 > 0);

        let mut ctx = CompileContext::from_circuit(c.clone());
        TransformPass::peephole().run(&mut ctx).unwrap();
        let k = ctx.circuit.counts();
        assert_eq!(k.cnot, k.two_qubit(), "only CNOTs remain: {k:?}");
        assert_eq!(k.total, k.oneq + k.cnot);
        assert_eq!(ctx.circuit, peephole::optimize(&c));
    }

    #[test]
    fn transforms_match_their_free_functions() {
        use phoenix_circuit::Gate;

        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Rz(2, 0.25));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Cnot(0, 1));
        let passes = [
            TransformPass::peephole(),
            TransformPass::su4_rebase(),
            TransformPass::kak_resynthesis(),
            TransformPass::swap_lower(),
        ];
        let names: Vec<&str> = passes.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["peephole", "su4-rebase", "kak-resynthesis", "cnot-lower"]
        );
        let outputs = passes.map(|p| p.apply(&c));
        assert_eq!(
            outputs,
            [
                peephole::optimize(&c),
                rebase::to_su4(&c),
                kak::resynthesize(&c),
                c.lower_to_cnot(),
            ]
        );
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
