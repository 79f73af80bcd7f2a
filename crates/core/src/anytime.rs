//! Anytime iterative deepening for budgeted compiles.
//!
//! [`AnytimePass`] runs stages 2–4 of the pipeline — the bodies of
//! [`SimplifySynthPass`], [`OrderPass`] and [`ConcatPass`] — once per
//! deepening round and keeps the best round, so it always holds a valid
//! best-so-far circuit. Round 0 is the cheap baseline: conventional
//! synthesis in first-appearance order. Every later round widens the
//! Algorithm-1 candidate scan ([`CostEvaluator::best_candidate_scan_capped`])
//! and the Tetris ordering lookahead on a geometric schedule until the
//! budget stops it or a [`CancelToken`] ends the compile. A round compiles
//! each distinct group shape once and seeds each shape's search with the
//! Clifford sequence the previous round chose for it (principal variation
//! plus aspiration window — see `simplify_terms_deepening` in the
//! `simplify` module).
//!
//! A round is kept when it strictly improves the `(2Q gates, 2Q depth,
//! gates)` key of what the target delivers: the round's circuit after
//! [`AnytimePass::lowering`], the part of the target's lowering that runs
//! before routing. Routing is not scored. The pass leaves the kept round's
//! lowered circuit in the context, so a budgeted pipeline runs only the
//! routing part of the lowering after it, and its output is a pure
//! function of the round it kept.
//!
//! Interruption semantics: the budget is the only thing that stops
//! deepening and keeps a result.
//!
//! - budget elapsed before a round starts → [`EVENT_TRUNCATED`], keep the
//!   last completed round's result;
//! - budget elapsed mid-round (inside stage 2's greedy loop or the
//!   ordering loop) → [`EVENT_ROUND_ABANDONED`], keep the *previous*
//!   round's result — a half-deepened round is never observable;
//! - a fired cancel token, before a round or mid-round, ends the pass with
//!   [`PassError::cancelled`], as it ends every other pass: a cancelled
//!   compile replies [`Cancelled`](crate::PhoenixError::Cancelled), with or
//!   without a budget.
//!
//! The final round of the full schedule scans every candidate pair at the
//! full lookahead, which is the unbudgeted compile. Rounds are
//! deterministic for every `threads`/`scan_threads` value, making
//! `depth_reached` and the returned circuit a pure function of the logical
//! budget ([`AnytimePass::max_rounds`]).
//!
//! [`CostEvaluator::best_candidate_scan_capped`]: crate::evaluator::CostEvaluator::best_candidate_scan_capped

use std::sync::Arc;
use std::time::Instant;

use phoenix_circuit::Circuit;
use phoenix_obs::metrics::MetricId;
use phoenix_obs::Span;
use phoenix_pauli::{Clifford2Q, PauliString};

use crate::cancel::CancelToken;
use crate::pass::{
    CircuitStats, CompileContext, Pass, PassError, EVENT_ROUND_ABANDONED, EVENT_TRUNCATED,
};
use crate::passes::{ConcatPass, OrderPass, ShapeIndex, SimplifySynthPass, TransformPass};

/// Rounds of the full deepening schedule. The last round scans every
/// candidate pair (breadth `usize::MAX`) at the full ordering lookahead, so
/// completing the schedule matches the legacy unbudgeted search quality.
pub const MAX_ROUNDS: usize = 8;

/// Owns the deepening schedule and the budget accounting of one anytime
/// compilation: which rounds run, how wide each scans, and when to stop.
///
/// Wall-clock interruption is observed through the context's deadline and
/// cancel token; the *logical* budget (`max_rounds`) caps the schedule
/// deterministically, independent of wall clock — the knob the serve tier
/// mapping and the determinism tests use.
#[derive(Debug, Clone)]
pub struct DeepeningController {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_rounds: usize,
}

impl DeepeningController {
    /// A controller over the standard schedule, capped at `max_rounds`
    /// (`None` = the full [`MAX_ROUNDS`]-round schedule).
    pub fn new(
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
        max_rounds: Option<usize>,
    ) -> Self {
        DeepeningController {
            deadline,
            cancel,
            max_rounds: max_rounds.unwrap_or(MAX_ROUNDS).min(MAX_ROUNDS),
        }
    }

    /// The deepest round this controller may run (0 = baseline only).
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Whether a round in progress must stop: the wall-clock deadline
    /// elapsed (deepening stops and the kept round stands) or the cancel
    /// token fired (the compile ends). Cheap enough to poll once per
    /// greedy epoch and inside the ordering loop.
    pub fn interrupted(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Candidate-scan breadth (support-pair ranks) of `round` (1-based):
    /// geometric 4, 8, 16, … with the final round unbounded.
    pub fn scan_breadth(&self, round: usize) -> usize {
        if round >= MAX_ROUNDS {
            usize::MAX
        } else {
            4usize << (round - 1)
        }
    }

    /// Ordering lookahead of `round`, ramping up to the configured `full`
    /// window on the final round.
    pub fn lookahead(&self, round: usize, full: usize) -> usize {
        let full = full.max(1);
        if round >= MAX_ROUNDS {
            full
        } else {
            full.min(2usize << round)
        }
    }
}

/// Lexicographic quality key: 2Q gates, then 2Q depth, then total gates —
/// the objective hierarchy of the paper's Table I metrics.
type CostKey = (usize, usize, usize);

fn cost_key(circuit: &Circuit) -> CostKey {
    let stats = CircuitStats::of(circuit);
    (stats.two_qubit, stats.depth_2q, stats.gates)
}

/// One completed round's compilation state.
struct Snapshot {
    subcircuits: Vec<Circuit>,
    group_terms: Vec<Vec<(PauliString, f64)>>,
    order: Vec<usize>,
    circuit: Circuit,
    term_order: Vec<(PauliString, f64)>,
}

/// Stages 2–4 of a budgeted pipeline as one anytime pass: the baseline,
/// then deepening rounds of [`SimplifySynthPass`] at a capped candidate
/// scan, [`OrderPass`] at a ramped lookahead and [`ConcatPass`], keeping
/// the best round, lowered by [`AnytimePass::lowering`]. Replaces those
/// three passes and the target's pre-routing lowering when a `pass_budget`
/// is set; unbudgeted compiles never construct it.
#[derive(Debug, Default)]
pub struct AnytimePass {
    /// The stage-2 pass every round runs at the round's scan breadth.
    pub stage2: SimplifySynthPass,
    /// The ordering pass every round runs at the round's lookahead; its
    /// own `lookahead` is the final round's.
    pub order: OrderPass,
    /// Logical budget: deepest round to run (`None` = full schedule).
    /// Output is a pure function of this cap when the wall clock never
    /// interrupts.
    pub max_rounds: Option<usize>,
    /// What the target's lowering runs before routing (or at all, when it
    /// does not route): every round is scored on the circuit these passes
    /// make of it, and the kept round's lowered circuit is what the pass
    /// delivers. Empty scores and delivers the logical circuit itself.
    pub lowering: Vec<TransformPass>,
}

impl AnytimePass {
    /// Runs stages 2–4 once, polling `controller`: stage 2 at `breadth`
    /// from the principal variations `pvs`, ordering at `lookahead`, then
    /// concatenation. Returns the round and its shapes' chosen Clifford
    /// sequences, or `None` when interrupted.
    fn round(
        &self,
        ctx: &mut CompileContext,
        shapes: &ShapeIndex,
        breadth: usize,
        lookahead: usize,
        pvs: &Arc<[Vec<Clifford2Q>]>,
        controller: &DeepeningController,
    ) -> Option<(Snapshot, Arc<[Vec<Clifford2Q>]>)> {
        let poll = controller.clone();
        let round = self.stage2.compile_round(
            ctx.num_qubits,
            &ctx.groups,
            shapes,
            breadth,
            pvs,
            move || poll.interrupted(),
            None,
            None,
            None,
        )?;
        let pvs = Arc::clone(&round.pvs);
        let (subcircuits, group_terms) = round.record(ctx, self.name());
        let order = self
            .order
            .order(&subcircuits, lookahead, &mut || controller.interrupted())?;
        let (circuit, term_order) =
            ConcatPass::concat(ctx.num_qubits, &subcircuits, &group_terms, &order);
        let snapshot = Snapshot {
            subcircuits,
            group_terms,
            order,
            circuit,
            term_order,
        };
        Some((snapshot, pvs))
    }

    /// What the target delivers from `circuit` before routing, or `None`
    /// when the lowering is empty and `circuit` itself is delivered.
    fn lower(&self, circuit: &Circuit) -> Option<Circuit> {
        let (first, rest) = self.lowering.split_first()?;
        Some(
            rest.iter()
                .fold(first.apply(circuit), |c, pass| pass.apply(&c)),
        )
    }
}

impl Pass for AnytimePass {
    fn name(&self) -> &str {
        "anytime-deepen"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        let controller =
            DeepeningController::new(ctx.deadline, ctx.cancel.clone(), self.max_rounds);
        let shapes = self.stage2.shapes(&ctx.groups);

        // Round 0, the baseline, polls nothing, so every interruption
        // point — including a zero budget — yields a complete compilation.
        let baseline = AnytimePass {
            stage2: SimplifySynthPass {
                simplify: false,
                ..self.stage2
            },
            order: OrderPass {
                enabled: false,
                ..self.order
            },
            ..AnytimePass::default()
        };
        let mut pvs: Arc<[Vec<Clifford2Q>]> = Arc::from([]);
        let (mut best, _) = baseline
            .round(ctx, &shapes, usize::MAX, 0, &pvs, &controller)
            .expect("the baseline round polls no interrupt");
        let mut best_lowered = self.lower(&best.circuit);
        let mut best_score = cost_key(best_lowered.as_ref().unwrap_or(&best.circuit));
        // The previous round's circuit and score when it was not kept: a
        // round that repeats it is not lowered again.
        let mut last: Option<(Circuit, CostKey)> = None;
        let mut depth_reached = 0usize;

        for round in 1..=controller.max_rounds() {
            if controller.interrupted() {
                if ctx.is_cancelled() {
                    return Err(PassError::cancelled(self.name()));
                }
                ctx.record_event(
                    self.name(),
                    EVENT_TRUNCATED,
                    format!(
                        "budget elapsed before deepening round {round}; \
                         keeping round {depth_reached} result"
                    ),
                );
                break;
            }
            let round_start = ctx.span_collector().map(|o| o.now_us());
            let breadth = controller.scan_breadth(round);
            let lookahead = controller.lookahead(round, self.order.lookahead);
            let Some((snapshot, next_pvs)) =
                self.round(ctx, &shapes, breadth, lookahead, &pvs, &controller)
            else {
                if ctx.is_cancelled() {
                    return Err(PassError::cancelled(self.name()));
                }
                ctx.record_event(
                    self.name(),
                    EVENT_ROUND_ABANDONED,
                    format!(
                        "deadline hit mid-round {round}; \
                         kept round {depth_reached} result"
                    ),
                );
                break;
            };
            let (previous, previous_score) = last
                .as_ref()
                .map_or((&best.circuit, best_score), |(c, s)| (c, *s));
            // A repeated circuit scores as before and is never kept, so it
            // needs no lowering.
            let (score, lowered) = if snapshot.circuit == *previous {
                (previous_score, None)
            } else {
                let lowered = self.lower(&snapshot.circuit);
                (
                    cost_key(lowered.as_ref().unwrap_or(&snapshot.circuit)),
                    lowered,
                )
            };
            let improved = score < best_score;
            depth_reached = round;
            pvs = next_pvs;
            if let Some(obs) = &ctx.obs {
                let m = obs.metrics();
                m.incr(MetricId::AnytimeRounds);
                if improved {
                    m.incr(MetricId::AnytimeImprovements);
                }
            }
            if let Some(obs) = ctx.span_collector() {
                let breadth_label = if breadth == usize::MAX {
                    "full".to_string()
                } else {
                    breadth.to_string()
                };
                let mut span = Span::new(format!("round {round}"), "anytime")
                    .arg("breadth", breadth_label)
                    .arg("lookahead", lookahead)
                    .arg("two_qubit", score.0 as u64)
                    .arg("depth_2q", score.1 as u64)
                    .arg("gates", score.2 as u64)
                    .arg("improved", if improved { "yes" } else { "no" });
                span.start_us = round_start.unwrap_or(0);
                span.dur_us = obs.now_us().saturating_sub(span.start_us);
                ctx.push_span(span);
            }
            if improved {
                best = snapshot;
                best_lowered = lowered;
                best_score = score;
                last = None;
            } else {
                last = Some((snapshot.circuit, score));
            }
        }

        ctx.subcircuits = best.subcircuits;
        ctx.group_terms = best.group_terms;
        ctx.order = best.order;
        ctx.circuit = best_lowered.unwrap_or(best.circuit);
        ctx.term_order = best.term_order;
        ctx.depth_reached = Some(depth_reached);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::evaluator::CostEvaluator;
    use crate::group::{group_by_support, IrGroup};
    use crate::pass::PassManager;
    use crate::passes::GroupPass;
    use crate::simplify::{simplify_terms_deepening, SimplifyOptions};
    use crate::synth::synthesize_group;
    use phoenix_circuit::synthesis::naive_circuit;
    use phoenix_mathkit::Xoshiro256;
    use phoenix_pauli::Pauli;
    use proptest::prelude::*;
    use std::time::Duration;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    fn run_capped(t: &[(PauliString, f64)], n: usize, cap: usize) -> CompileContext {
        let mut ctx = CompileContext::new(n, t);
        let pm = PassManager::new()
            .with(GroupPass)
            .with(AnytimePass {
                max_rounds: Some(cap),
                ..AnytimePass::default()
            })
            .with_budget(Duration::from_secs(600));
        pm.run(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn zero_rounds_is_the_naive_baseline() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let ctx = run_capped(&t, 3, 0);
        assert_eq!(ctx.depth_reached, Some(0));
        let naive = naive_circuit(3, ctx.groups[0].terms());
        assert_eq!(ctx.subcircuits[0], naive);
        assert_eq!(ctx.term_order.len(), t.len());
    }

    #[test]
    fn cost_is_monotone_in_the_round_cap() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX", "YYI"]);
        let mut prev: Option<(usize, usize, usize)> = None;
        for cap in [0usize, 1, 2, 4, MAX_ROUNDS] {
            let ctx = run_capped(&t, 3, cap);
            assert_eq!(ctx.depth_reached, Some(cap));
            let cost = cost_key(&ctx.circuit);
            if let Some(p) = prev {
                assert!(cost <= p, "cap {cap}: {cost:?} vs {p:?}");
            }
            prev = Some(cost);
        }
    }

    #[test]
    fn full_schedule_improves_on_the_baseline() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let base = run_capped(&t, 3, 0);
        let deep = run_capped(&t, 3, MAX_ROUNDS);
        assert!(
            cost_key(&deep.circuit) < cost_key(&base.circuit),
            "{:?} vs {:?}",
            cost_key(&deep.circuit),
            cost_key(&base.circuit)
        );
    }

    #[test]
    fn output_is_deterministic_across_thread_counts() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "ZZI", "IZZ", "XIX"]);
        let run = |threads: usize, scan_threads: usize| {
            let mut ctx = CompileContext::new(3, &t);
            let pm = PassManager::new()
                .with(GroupPass)
                .with(AnytimePass {
                    stage2: SimplifySynthPass {
                        threads,
                        scan_threads,
                        ..SimplifySynthPass::default()
                    },
                    max_rounds: Some(4),
                    ..AnytimePass::default()
                })
                .with_budget(Duration::from_secs(600));
            pm.run(&mut ctx).unwrap();
            (ctx.circuit, ctx.term_order, ctx.depth_reached)
        };
        let base = run(1, 1);
        for (threads, scan_threads) in [(2, 1), (8, 2), (1, 8), (8, 8)] {
            assert_eq!(
                run(threads, scan_threads),
                base,
                "threads {threads}, scan {scan_threads}"
            );
        }
    }

    #[test]
    fn zero_budget_truncates_to_round_zero() {
        let t = terms(&["ZYY", "ZZY", "IZZ", "XIX"]);
        let mut ctx = CompileContext::new(3, &t);
        let pm = PassManager::new()
            .with(GroupPass)
            .with(AnytimePass::default())
            .with_budget(Duration::ZERO);
        let trace = pm.run(&mut ctx).unwrap();
        assert_eq!(ctx.depth_reached, Some(0));
        assert!(!ctx.circuit.is_empty());
        assert!(!trace.events_of_kind(EVENT_TRUNCATED).is_empty());
        assert_eq!(ctx.term_order.len(), t.len());
    }

    #[test]
    fn fired_token_ends_the_pass_with_the_typed_cancellation() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        for deadline in [None, Some(Instant::now() + Duration::from_secs(600))] {
            let mut ctx = CompileContext::new(3, &t);
            let token = CancelToken::new();
            ctx.cancel = Some(token.clone());
            ctx.deadline = deadline;
            GroupPass.run(&mut ctx).unwrap();
            token.cancel();
            let err = AnytimePass::default().run(&mut ctx).unwrap_err();
            assert!(err.is_cancellation(), "{err}");
            assert_eq!(err.pass, "anytime-deepen");
            // Nothing of the interrupted compile is delivered.
            assert_eq!(ctx.depth_reached, None);
            assert!(ctx.circuit.is_empty());
        }
    }

    /// Per group, per round 1..=MAX_ROUNDS: the circuit and the emitted
    /// terms, in `Debug` form (which tells `-0.0` from `0.0`).
    type Rounds = Vec<Vec<(String, String)>>;

    /// Every group compiled on its own, round after round, each round
    /// seeded with the group's own previous chosen Clifford sequence.
    fn per_group(n: usize, groups: &[IrGroup]) -> Rounds {
        let schedule = DeepeningController::new(None, None, None);
        let mut eval = CostEvaluator::new();
        groups
            .iter()
            .map(|g| {
                let mut pv = Vec::new();
                (1..=MAX_ROUNDS)
                    .map(|round| {
                        let (s, next) = simplify_terms_deepening(
                            &mut eval,
                            n,
                            g.terms(),
                            &SimplifyOptions::default(),
                            schedule.scan_breadth(round),
                            &pv,
                            &mut || false,
                        )
                        .unwrap();
                        pv = next;
                        (
                            format!("{:?}", synthesize_group(&s)),
                            format!("{:?}", s.term_sequence()),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// The rounds as `AnytimePass` runs them: each shape compiled once in
    /// rank space from its own principal variation, then bound to every
    /// group of the shape.
    fn per_shape(n: usize, groups: &[IrGroup]) -> Rounds {
        let schedule = DeepeningController::new(None, None, None);
        let stage2 = SimplifySynthPass::default();
        let shapes = stage2.shapes(groups);
        let mut pvs: Arc<[Vec<Clifford2Q>]> = Arc::from([]);
        let mut out: Rounds = vec![Vec::new(); groups.len()];
        for round in 1..=MAX_ROUNDS {
            let compiled = stage2
                .compile_round(
                    n,
                    groups,
                    &shapes,
                    schedule.scan_breadth(round),
                    &pvs,
                    || false,
                    None,
                    None,
                    None,
                )
                .unwrap();
            pvs = Arc::clone(&compiled.pvs);
            let (circuits, group_terms) = compiled.record(&mut CompileContext::new(n, &[]), "test");
            for (g, (c, t)) in circuits.iter().zip(&group_terms).enumerate() {
                out[g].push((format!("{c:?}"), format!("{t:?}")));
            }
        }
        out
    }

    /// `s` distinct qubits of `n`, ascending, drawn from `seed`.
    fn support(n: usize, s: usize, seed: u64) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        Xoshiro256::seed_from_u64(seed).shuffle(&mut all);
        let mut chosen = all[..s].to_vec();
        chosen.sort_unstable();
        chosen
    }

    /// A program whose group shapes repeat: one to three base groups of
    /// width 1–7 (up to 24 rows, each acting on the whole support), each
    /// placed on two to four random supports of a 7–12-qubit register.
    fn arb_repeating() -> impl Strategy<Value = (usize, Vec<(PauliString, f64)>)> {
        (
            7usize..=12,
            proptest::collection::vec(
                (
                    1usize..=7,
                    proptest::collection::vec((any::<u64>(), -1.0f64..1.0), 1..=24),
                    proptest::collection::vec(any::<u64>(), 2..=4),
                ),
                1..=3,
            ),
        )
            .prop_map(|(n, bases)| {
                let mut terms = Vec::new();
                for (width, rows, placements) in bases {
                    for seed in placements {
                        let qubits = support(n, width, seed);
                        for &(letters, coeff) in &rows {
                            let mut p = PauliString::identity(n);
                            for (r, &q) in qubits.iter().enumerate() {
                                let letter = [Pauli::X, Pauli::Y, Pauli::Z]
                                    [(letters >> (2 * r)) as usize % 3];
                                p.set(q, letter);
                            }
                            terms.push((p, coeff));
                        }
                    }
                }
                (n, terms)
            })
    }

    proptest! {
        /// Deepening rounds are relabel-invariant: compiling each shape
        /// once in rank space, with the shape's principal variation, and
        /// binding it to every group of the shape gives, bit for bit, what
        /// compiling every group on its own with its own principal
        /// variation chain gives, at every round of the schedule.
        #[test]
        fn rounds_compiled_per_shape_equal_rounds_per_group((n, t) in arb_repeating()) {
            let groups = group_by_support(n, &t);
            prop_assert_eq!(per_shape(n, &groups), per_group(n, &groups));
        }
    }

    #[test]
    fn table1_rounds_compiled_per_shape_equal_rounds_per_group() {
        use phoenix_hamil::uccsd::{self, Encoding, Molecule};
        for molecule in [Molecule::lih(), Molecule::nh()] {
            for encoding in [Encoding::JordanWigner, Encoding::BravyiKitaev] {
                let h = uccsd::ansatz(molecule, true, encoding, 7);
                let groups = group_by_support(h.num_qubits(), h.terms());
                assert_eq!(
                    per_shape(h.num_qubits(), &groups),
                    per_group(h.num_qubits(), &groups),
                    "{}",
                    h.name()
                );
            }
        }
    }
}
