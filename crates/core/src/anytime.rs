//! Anytime iterative deepening for budgeted compiles.
//!
//! The legacy budgeted path *truncates*: once the pass budget elapses,
//! stage 2 falls back to conventional synthesis and ordering keeps
//! first-appearance order — a deadline can only cost quality. This module
//! replaces truncation with **iterative deepening**: [`AnytimePass`] always
//! holds a valid best-so-far circuit (round 0 is the cheap naive baseline)
//! and monotonically improves it round by round, widening the Algorithm-1
//! candidate scan ([`CostEvaluator::best_candidate_scan_capped`]) and the
//! Tetris ordering lookahead on a geometric schedule until the budget or a
//! [`CancelToken`] interrupts it. Each round seeds the next round's search
//! with the previous round's chosen Clifford sequence (principal variation
//! plus aspiration window — see
//! [`simplify_terms_deepening`](crate::simplify::simplify_terms_deepening)).
//!
//! Interruption semantics:
//!
//! - before a round starts → [`EVENT_TRUNCATED`], keep the last completed
//!   round's result;
//! - mid-round (between groups or inside the ordering loop) →
//!   [`EVENT_ROUND_ABANDONED`], keep the *previous* round's result — a
//!   half-deepened round is never observable;
//! - a fired cancel token is honored by setting
//!   [`CompileContext::soft_cancelled`], so the manager finishes required
//!   lowering on the best-so-far instead of erroring.
//!
//! The final round of the full schedule scans every candidate pair at the
//! full lookahead, so an unconstrained anytime compile converges to the
//! legacy pipeline's output quality. Rounds are deterministic for every
//! `threads`/`scan_threads` value, making `depth_reached` and the returned
//! circuit a pure function of the logical budget ([`AnytimePass::max_rounds`]).
//!
//! [`CostEvaluator::best_candidate_scan_capped`]: crate::evaluator::CostEvaluator::best_candidate_scan_capped

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use phoenix_circuit::synthesis::naive_circuit;
use phoenix_circuit::Circuit;
use phoenix_obs::metrics::MetricId;
use phoenix_obs::Span;
use phoenix_pauli::{Clifford2Q, PauliString};

use crate::cancel::CancelToken;
use crate::evaluator::CostEvaluator;
use crate::group::IrGroup;
use crate::order::{order_groups_interruptible, OrderOptions};
use crate::pass::{
    CompileContext, Pass, PassError, EVENT_DEGRADED, EVENT_ROUND_ABANDONED, EVENT_TRUNCATED,
};
use crate::simplify::{simplify_terms_deepening, SimplifyOptions};
use crate::synth::synthesize_group;

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

    /// Whether the compilation should stop deepening: the wall-clock
    /// deadline elapsed or the cancel token fired. Cheap enough to poll
    /// between groups and inside the ordering loop.
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

/// One group's output for one deepening round: circuit, emitted terms, the
/// chosen Clifford sequence (next round's principal variation), and whether
/// optimization panicked and degraded to naive synthesis.
type GroupRound = (Circuit, Vec<(PauliString, f64)>, Vec<Clifford2Q>, bool);

/// The best-so-far compilation state, replaced only on strict cost
/// improvement so quality is monotone non-increasing across rounds.
struct Snapshot {
    subcircuits: Vec<Circuit>,
    group_terms: Vec<Vec<(PauliString, f64)>>,
    order: Vec<usize>,
    circuit: Circuit,
    term_order: Vec<(PauliString, f64)>,
    cost: (usize, usize, usize),
}

/// Lexicographic quality key: 2Q gates, then 2Q depth, then total gates —
/// the objective hierarchy of the paper's Table I metrics.
fn cost_key(circuit: &Circuit) -> (usize, usize, usize) {
    let counts = circuit.counts();
    (counts.two_qubit(), circuit.depth_2q(), counts.total)
}

/// Assembles ordered subcircuits into a circuit + emitted term order (the
/// body of `ConcatPass`, inlined so each round can score its assembly).
fn concat(
    n: usize,
    subcircuits: &[Circuit],
    group_terms: &[Vec<(PauliString, f64)>],
    order: &[usize],
) -> (Circuit, Vec<(PauliString, f64)>) {
    let mut circuit = Circuit::new(n);
    let mut term_order = Vec::new();
    for &i in order {
        circuit.append(&subcircuits[i]);
        term_order.extend(group_terms[i].iter().cloned());
    }
    (circuit, term_order)
}

/// Stages 2–4 of a budgeted pipeline as one anytime pass: naive baseline,
/// then deepening rounds of capped candidate search + interruptible
/// ordering + assembly, keeping the best snapshot. Replaces
/// `SimplifySynthPass` + `OrderPass` + `ConcatPass` when a `pass_budget`
/// is set; unbudgeted compiles never construct it, keeping the legacy path
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimePass {
    /// Full ordering lookahead (reached on the final round).
    pub lookahead: usize,
    /// Run Algorithm 1 (deepening); `false` keeps naive per-group synthesis
    /// and deepens only the ordering (the ablation arm).
    pub simplify: bool,
    /// Run the Tetris ordering; `false` keeps first-appearance order.
    pub order_enabled: bool,
    /// Apply the Eq. (7) routing-similarity factor during ordering.
    pub routing_aware: bool,
    /// Group-level worker threads (`0` = auto, `1` = sequential).
    pub threads: usize,
    /// Candidate-scan worker threads per group (`0` = auto).
    pub scan_threads: usize,
    /// Logical budget: deepest round to run (`None` = full schedule).
    /// Output is a pure function of this cap when the wall clock never
    /// interrupts.
    pub max_rounds: Option<usize>,
}

impl Default for AnytimePass {
    fn default() -> Self {
        AnytimePass {
            lookahead: 20,
            simplify: true,
            order_enabled: true,
            routing_aware: false,
            threads: 1,
            scan_threads: 1,
            max_rounds: None,
        }
    }
}

impl AnytimePass {
    /// Runs one deepening round's stage 2 over all groups, fanned out over
    /// `threads` index-aligned slots like `SimplifySynthPass`. Returns
    /// `None` when the controller interrupted mid-round (some group was
    /// never compiled); the round must then be abandoned wholesale.
    #[allow(clippy::too_many_arguments)]
    fn deepen_groups(
        &self,
        n: usize,
        groups: &[IrGroup],
        pvs: &[Vec<Clifford2Q>],
        opts: &SimplifyOptions,
        breadth: usize,
        threads: usize,
        controller: &DeepeningController,
    ) -> Option<Vec<GroupRound>> {
        // `None` from `compile_one` means the controller interrupted the
        // greedy loop mid-group (polled once per epoch, so even a single
        // pathological group yields within one epoch); the whole round is
        // then abandoned. A contained panic still produces a (degraded)
        // result. Each worker carries one evaluator across its groups.
        let compile_one = |eval: &mut CostEvaluator, i: usize, group: &IrGroup| {
            let naive = || (naive_circuit(n, group.terms()), group.terms().to_vec());
            if !self.simplify {
                let (c, t) = naive();
                return Some((c, t, Vec::new(), false));
            }
            let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                simplify_terms_deepening(
                    eval,
                    n,
                    group.terms(),
                    opts,
                    breadth,
                    &pvs[i],
                    &mut || controller.interrupted(),
                )
                .map(|(s, pv)| (synthesize_group(&s), s.term_sequence(), pv))
            }));
            match attempt {
                Ok(Some((circuit, terms, pv))) => Some((circuit, terms, pv, false)),
                Ok(None) => None,
                Err(_) => {
                    let (c, t) = naive();
                    Some((c, t, Vec::new(), true))
                }
            }
        };
        let mut slots: Vec<Option<GroupRound>> = vec![None; groups.len()];
        if threads <= 1 {
            let mut eval = CostEvaluator::new();
            for (i, (g, slot)) in groups.iter().zip(slots.iter_mut()).enumerate() {
                if controller.interrupted() {
                    return None;
                }
                *slot = compile_one(&mut eval, i, g);
                if slot.is_none() {
                    return None;
                }
            }
        } else {
            let chunk = groups.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (c, (gs, out)) in groups
                    .chunks(chunk)
                    .zip(slots.chunks_mut(chunk))
                    .enumerate()
                {
                    let compile_one = &compile_one;
                    scope.spawn(move || {
                        let mut eval = CostEvaluator::new();
                        for (j, (g, slot)) in gs.iter().zip(out.iter_mut()).enumerate() {
                            if controller.interrupted() {
                                return;
                            }
                            *slot = compile_one(&mut eval, c * chunk + j, g);
                            if slot.is_none() {
                                return;
                            }
                        }
                    });
                }
            });
            if slots.iter().any(Option::is_none) {
                return None;
            }
        }
        Some(
            slots
                .into_iter()
                .map(|s| s.expect("every slot was filled"))
                .collect(),
        )
    }
}

impl Pass for AnytimePass {
    fn name(&self) -> &str {
        "anytime-deepen"
    }

    fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
        let n = ctx.num_qubits;
        let controller =
            DeepeningController::new(ctx.deadline, ctx.cancel.clone(), self.max_rounds);
        let opts = SimplifyOptions {
            scan_threads: self.scan_threads,
            naive_cost: false,
        };
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .min(ctx.groups.len().max(1));

        // Round 0: the naive baseline, always computed (it is the cheapest
        // valid form) so every interruption point — including a zero
        // budget — yields a complete compilation.
        let subcircuits: Vec<Circuit> = ctx
            .groups
            .iter()
            .map(|g| naive_circuit(n, g.terms()))
            .collect();
        let group_terms: Vec<Vec<(PauliString, f64)>> =
            ctx.groups.iter().map(|g| g.terms().to_vec()).collect();
        let order: Vec<usize> = (0..subcircuits.len()).collect();
        let (circuit, term_order) = concat(n, &subcircuits, &group_terms, &order);
        let mut best = Snapshot {
            cost: cost_key(&circuit),
            subcircuits,
            group_terms,
            order,
            circuit,
            term_order,
        };
        let mut depth_reached = 0usize;
        let mut pvs: Vec<Vec<Clifford2Q>> = vec![Vec::new(); ctx.groups.len()];

        for round in 1..=controller.max_rounds() {
            if controller.interrupted() {
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
            let round_start = ctx.obs.as_ref().map(|o| o.now_us());
            let breadth = controller.scan_breadth(round);
            let lookahead = controller.lookahead(round, self.lookahead);
            let Some(rounds) =
                self.deepen_groups(n, &ctx.groups, &pvs, &opts, breadth, threads, &controller)
            else {
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
            let mut subcircuits = Vec::with_capacity(rounds.len());
            let mut group_terms = Vec::with_capacity(rounds.len());
            let mut next_pvs = Vec::with_capacity(rounds.len());
            for (i, (circuit, terms, pv, degraded)) in rounds.into_iter().enumerate() {
                if degraded {
                    ctx.record_event(
                        self.name(),
                        EVENT_DEGRADED,
                        format!(
                            "group {i} fell back to conventional synthesis in round {round} \
                             (optimization panicked)"
                        ),
                    );
                }
                subcircuits.push(circuit);
                group_terms.push(terms);
                next_pvs.push(pv);
            }
            let order = if self.order_enabled {
                let ordered = order_groups_interruptible(
                    &subcircuits,
                    &OrderOptions {
                        lookahead,
                        routing_aware: self.routing_aware,
                    },
                    &mut || controller.interrupted(),
                );
                match ordered {
                    Some(o) => o,
                    None => {
                        ctx.record_event(
                            self.name(),
                            EVENT_ROUND_ABANDONED,
                            format!(
                                "deadline hit mid-round {round} (ordering); \
                                 kept round {depth_reached} result"
                            ),
                        );
                        break;
                    }
                }
            } else {
                (0..subcircuits.len()).collect()
            };
            let (circuit, term_order) = concat(n, &subcircuits, &group_terms, &order);
            let cost = cost_key(&circuit);
            let improved = cost < best.cost;
            depth_reached = round;
            pvs = next_pvs;
            if let Some(obs) = &ctx.obs {
                let m = obs.metrics();
                m.incr(MetricId::AnytimeRounds);
                if improved {
                    m.incr(MetricId::AnytimeImprovements);
                }
            }
            if ctx.obs.is_some() {
                let breadth_label = if breadth == usize::MAX {
                    "full".to_string()
                } else {
                    breadth.to_string()
                };
                let mut span = Span::new(format!("round {round}"), "anytime")
                    .arg("breadth", breadth_label)
                    .arg("lookahead", lookahead)
                    .arg("two_qubit", cost.0 as u64)
                    .arg("depth_2q", cost.1 as u64)
                    .arg("gates", cost.2 as u64)
                    .arg("improved", if improved { "yes" } else { "no" });
                span.start_us = round_start.unwrap_or(0);
                if let Some(obs) = &ctx.obs {
                    span.dur_us = obs.now_us().saturating_sub(span.start_us);
                }
                ctx.push_span(span);
            }
            if improved {
                best = Snapshot {
                    subcircuits,
                    group_terms,
                    order,
                    circuit,
                    term_order,
                    cost,
                };
            }
        }

        ctx.subcircuits = best.subcircuits;
        ctx.group_terms = best.group_terms;
        ctx.order = best.order;
        ctx.circuit = best.circuit;
        ctx.term_order = best.term_order;
        ctx.depth_reached = Some(depth_reached);
        if ctx.cancel_reason().is_some() {
            // The fired token was honored by keeping the best-so-far:
            // downstream required lowering must still run.
            ctx.soft_cancelled = true;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pass::PassManager;
    use crate::passes::GroupPass;
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
                    threads,
                    scan_threads,
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
    fn fired_token_soft_cancels_with_best_so_far() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let mut ctx = CompileContext::new(3, &t);
        let token = CancelToken::new();
        ctx.cancel = Some(token.clone());
        GroupPass.run(&mut ctx).unwrap();
        token.cancel();
        AnytimePass::default().run(&mut ctx).unwrap();
        assert!(ctx.soft_cancelled);
        assert_eq!(ctx.depth_reached, Some(0));
        assert!(!ctx.circuit.is_empty());
    }
}
