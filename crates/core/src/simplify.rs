//! Stage 2: group-wise BSF simplification (Algorithm 1).
//!
//! Each IR group's tableau is repeatedly conjugated by the best 2Q Clifford
//! generator (minimizing the Eq. (6) cost) until its total weight is at most
//! 2, peeling weight-1 "local" rows before each search epoch. The output
//! `cfg` nests the core rotations inside the chosen Clifford conjugations:
//!
//! ```text
//! [ L₁, C₁, L₂, C₂, …, Lₖ, Cₖ, core, Cₖ, …, C₂, C₁ ]
//! ```
//!
//! where `Lᵢ` are the locals peeled at epoch `i` (expressed in the frame of
//! the first `i−1` Cliffords) and `core` is the final ≤2Q tableau in the
//! frame of all `k`. This ordering makes the emitted circuit *exactly* a
//! Trotter product of the group's original exponentiations (verified
//! against the unitary simulator in the integration tests); the paper's
//! pseudocode prepends/appends in a slightly different arrangement whose
//! literal reading is not unitary-faithful — the conjugation semantics
//! ("Clifford2Q operators are added as conjugations, with local Pauli
//! strings peeled before each epoch") are the same.
//!
//! Greedy descent can plateau; past a step budget a guaranteed-progress
//! fallback applies the Clifford that strictly reduces the heaviest row's
//! weight (one always exists — see `every_weight2_pair_is_reducible`).
//! On dense groups that alone can cycle, two rows trading the heaviest
//! place, so a repeated tableau switches to peeling the first row, which
//! bounds the epoch count (see `simplify_terms_deepening`).

use crate::cost::cost_bsf;
use crate::evaluator::{heaviest_row, CostEvaluator};
use phoenix_pauli::{
    fold_conjugation_sign, Bsf, BsfRow, Clifford2Q, PauliString, QubitMask, CLIFFORD2Q_GENERATORS,
};

/// One element of a simplified group's configuration sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgItem {
    /// A 2Q Clifford generator (CNOT-equivalent), applied as written.
    Clifford(Clifford2Q),
    /// A batch of Pauli rotations `exp(-i·coeff·P)` with weight ≤ 2 each,
    /// in the current Clifford frame.
    Rotations(Vec<BsfRow>),
}

/// A simplified IR group: the output of Algorithm 1, still ISA-independent.
///
/// # Examples
///
/// ```
/// use phoenix_core::simplify::simplify_terms;
/// use phoenix_pauli::PauliString;
///
/// let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
///     .iter()
///     .map(|s| (s.parse().unwrap(), 0.1))
///     .collect();
/// let simplified = simplify_terms(3, &terms);
/// // One Clifford conjugation suffices for the Fig. 1(b) example.
/// assert_eq!(simplified.num_cliffords(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimplifiedGroup {
    n: usize,
    items: Vec<CfgItem>,
}

impl SimplifiedGroup {
    /// Number of qubits of the register.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The configuration sequence, in circuit order.
    pub fn items(&self) -> &[CfgItem] {
        &self.items
    }

    /// Number of *distinct* Clifford conjugation layers (each appears twice
    /// in the sequence).
    pub fn num_cliffords(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, CfgItem::Clifford(_)))
            .count()
            / 2
    }

    /// Reconstructs the original-frame `(PauliString, coeff)` terms in the
    /// order the emitted circuit implements them.
    ///
    /// Up to permutation this must equal the group's input terms — the
    /// invariant the tests check.
    pub fn term_sequence(&self) -> Vec<(PauliString, f64)> {
        let mut cliffords: Vec<Clifford2Q> = Vec::new();
        let mut out = Vec::new();
        for item in &self.items {
            match item {
                CfgItem::Clifford(c) => cliffords.push(*c),
                CfgItem::Rotations(rows) => {
                    for row in rows {
                        let mut p = row.to_pauli_string(self.n);
                        let mut coeff = row.coeff();
                        // Undo the enclosing conjugations, innermost first.
                        for c in cliffords.iter().rev() {
                            let (q, sign) = c.conjugate_string(&p);
                            p = q;
                            coeff = fold_conjugation_sign(coeff, sign);
                        }
                        out.push((p, coeff));
                    }
                }
            }
        }
        out
    }
}

/// Tuning knobs of [`simplify_terms_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifyOptions {
    /// Worker threads for the candidate scan of each greedy epoch
    /// (`0` = one per core, `1` = sequential). The output is identical for
    /// every value; composes with the group-level `stage2_threads`.
    pub scan_threads: usize,
    /// Force the naive clone-and-rescore cost path instead of the
    /// incremental [`CostEvaluator`] — for differential testing.
    pub naive_cost: bool,
}

impl Default for SimplifyOptions {
    fn default() -> Self {
        SimplifyOptions {
            scan_threads: 1,
            naive_cost: false,
        }
    }
}

/// Runs Algorithm 1 on one group's term list with default options.
///
/// # Panics
///
/// Panics if any term does not act on exactly `n` qubits.
pub fn simplify_terms(n: usize, terms: &[(PauliString, f64)]) -> SimplifiedGroup {
    simplify_terms_with(n, terms, &SimplifyOptions::default())
}

/// Runs Algorithm 1 on one group's term list.
///
/// Candidate evaluation goes through the incremental [`CostEvaluator`]
/// unless `opts.naive_cost` selects the naive clone-and-rescore path; the
/// two produce bit-identical output.
///
/// # Panics
///
/// Panics if any term does not act on exactly `n` qubits.
pub fn simplify_terms_with(
    n: usize,
    terms: &[(PauliString, f64)],
    opts: &SimplifyOptions,
) -> SimplifiedGroup {
    simplify_terms_interruptible(n, terms, opts, &mut || false)
        .expect("a never-firing interrupt cannot abandon the loop")
}

/// Runs Algorithm 1 on one group's term list, polling `interrupted` at the
/// top of every greedy epoch. Returns `None` the moment the closure fires,
/// so a cancellation or elapsed deadline can interrupt even a single
/// pathological group (hundreds of wide terms take thousands of epochs)
/// instead of only being observed between groups. With a never-firing
/// closure this is exactly [`simplify_terms_with`] — the same greedy loop,
/// bit for bit.
///
/// # Panics
///
/// Panics if any term does not act on exactly `n` qubits.
pub fn simplify_terms_interruptible(
    n: usize,
    terms: &[(PauliString, f64)],
    opts: &SimplifyOptions,
    interrupted: &mut dyn FnMut() -> bool,
) -> Option<SimplifiedGroup> {
    let mut eval = CostEvaluator::new();
    simplify_terms_deepening(&mut eval, n, terms, opts, usize::MAX, &[], interrupted)
        .map(|(group, _)| group)
}

/// Aspiration window for the principal-variation shortcut of
/// [`simplify_terms_deepening`]: the previous round's move at the same
/// epoch is accepted *without scanning* when it beats the current cost by
/// at least this margin. Eq. (6) costs are integer/half-integer valued, so
/// a margin of 1.0 means "clearly improving", not float noise.
pub(crate) const ASPIRATION_WINDOW: f64 = 1.0;

/// Exact repeated-state detection over the ordered row masks (Brent's
/// method): one saved copy, compared in full at every call and replaced
/// after 1, 2, 4, 8, … calls, so a cycle of any period is seen within a
/// few of its laps and no hash collision can raise a false alarm.
#[derive(Default)]
struct RepeatCheck {
    /// X and Z masks of the saved rows, interleaved.
    saved: Vec<QubitMask>,
    /// Calls since the last save.
    lap: usize,
    /// Calls the current save is kept for (doubles at every save).
    power: usize,
}

impl RepeatCheck {
    /// Whether `bsf`'s row masks equal the saved state.
    fn repeats(&mut self, bsf: &Bsf) -> bool {
        let masks = bsf.rows().iter().flat_map(|r| [r.x_mask(), r.z_mask()]);
        if masks.clone().eq(&self.saved) {
            return true;
        }
        if self.lap == self.power {
            self.saved = masks.cloned().collect();
            self.power = (2 * self.power).max(1);
            self.lap = 0;
        }
        self.lap += 1;
        false
    }
}

/// Algorithm 1, one deepening round: the greedy loop with the candidate
/// scan capped at `max_pairs` support-pair ranks and the previous round's
/// Clifford sequence `pv` used as a principal variation (tried first at
/// each epoch; accepted without a scan inside the aspiration window,
/// otherwise competing with the capped scan's winner). `eval`'s buffers
/// are reused, so one evaluator serves all groups of a worker.
///
/// With `max_pairs == usize::MAX` and an empty `pv` this is the full
/// greedy loop of [`simplify_terms_with`]; `opts.naive_cost` selects the
/// reference clone-and-rescore path, which ignores the cap and the PV.
///
/// *Termination.* Past a generous step budget every epoch takes the
/// guaranteed-progress move, which reduces the heaviest row. The loop then
/// depends only on the ordered row masks, so a repeated state proves it
/// would cycle forever (two rows can trade the heaviest place every
/// step). On a repeat it reduces the first row until that row is peeled:
/// it stays first because peeling keeps the row order, and each step cuts
/// its weight, so every row is peeled within `w − 1` steps of becoming
/// first and the loop ends. Groups that terminated before never reach
/// this exit.
///
/// Returns the simplified group plus the chosen Clifford sequence — the
/// next round's principal variation — or `None` if `interrupted` fired
/// mid-loop (the caller abandons the round and keeps its previous best).
/// The closure is polled once per greedy epoch. Deterministic for every
/// `opts.scan_threads` value.
///
/// # Panics
///
/// Panics if any term does not act on exactly `n` qubits.
pub(crate) fn simplify_terms_deepening(
    eval: &mut CostEvaluator,
    n: usize,
    terms: &[(PauliString, f64)],
    opts: &SimplifyOptions,
    max_pairs: usize,
    pv: &[Clifford2Q],
    interrupted: &mut dyn FnMut() -> bool,
) -> Option<(SimplifiedGroup, Vec<Clifford2Q>)> {
    let mut bsf = Bsf::from_terms(n, terms.iter().cloned()).expect("terms fit the register");
    let mut nest: Vec<(Vec<BsfRow>, Clifford2Q)> = Vec::new();
    let mut core_locals: Vec<BsfRow> = Vec::new();
    let capped = max_pairs != usize::MAX;

    let mut weight = bsf.total_weight();
    // Generous bound; past it only guaranteed-progress steps are taken.
    let budget = 64 + 8 * bsf.rows().len() * weight.max(1);
    let mut steps = 0usize;
    let mut repeat = RepeatCheck::default();
    let mut livelocked = false;

    while weight > 2 {
        if interrupted() {
            return None;
        }
        let locals = bsf.pop_local_paulis();
        eval.prepare(&bsf);
        if eval.total_weight() <= 2 {
            core_locals = locals;
            break;
        }
        steps += 1;
        let cliff = if steps > budget {
            // Only guaranteed-progress moves from here on, so the loop is a
            // function of the ordered row masks and a repeat is a cycle.
            livelocked = livelocked || repeat.repeats(&bsf);
            // Every row left has weight ≥ 2; on a cycle, reduce the first.
            let row = if livelocked { 0 } else { heaviest_row(&bsf) };
            if opts.naive_cost {
                reduce_row_naive(&bsf, row)
            } else {
                eval.reduce_row(&bsf, row)
            }
        } else if opts.naive_cost {
            match best_candidate_naive(&bsf) {
                Some((c, cost)) if cost < cost_bsf(&bsf) => c,
                _ => progress_candidate_naive(&bsf),
            }
        } else {
            let current = eval.current_cost();
            let pv_cand = if capped {
                pv.get(nest.len())
                    .map(|&c| (c, eval.candidate_cost(&bsf, c)))
            } else {
                None
            };
            match pv_cand {
                // Aspiration hit: clearly improving, skip the scan entirely.
                Some((c, cost)) if cost <= current - ASPIRATION_WINDOW => c,
                _ => {
                    let mut best =
                        eval.best_candidate_scan_capped(&bsf, opts.scan_threads, max_pairs);
                    if let Some((c, cost)) = pv_cand {
                        // The PV move competes with the capped scan's
                        // winner; it only displaces the winner on a strict
                        // improvement (the scan's canonical order defines
                        // tie-breaks).
                        if best.is_none_or(|(_, bc)| cost < bc) {
                            best = Some((c, cost));
                        }
                    }
                    match best {
                        Some((c, cost)) if cost < current => c,
                        _ => eval.progress_candidate(&bsf),
                    }
                }
            }
        };
        weight = eval.total_weight_after(cliff);
        bsf.apply_clifford2q(cliff);
        debug_assert_eq!(weight, bsf.total_weight(), "total weight after {cliff}");
        nest.push((locals, cliff));
    }

    let mut core_rows = core_locals;
    core_rows.extend(bsf.rows().iter().cloned());

    let cliffords: Vec<Clifford2Q> = nest.iter().map(|(_, c)| *c).collect();
    let mut items = Vec::new();
    for (locals, cliff) in nest {
        if !locals.is_empty() {
            items.push(CfgItem::Rotations(locals));
        }
        items.push(CfgItem::Clifford(cliff));
    }
    if !core_rows.is_empty() {
        items.push(CfgItem::Rotations(core_rows));
    }
    for &cliff in cliffords.iter().rev() {
        items.push(CfgItem::Clifford(cliff));
    }
    Some((SimplifiedGroup { n, items }, cliffords))
}

/// The greedy choice: the generator/qubit-pair minimizing Eq. (6) on the
/// conjugated tableau. Asymmetric generators are tried in both
/// orientations (the reverse orientation is still inside the 2Q Clifford
/// group the six generators span).
///
/// This is the reference clone-and-rescore implementation the incremental
/// [`CostEvaluator::best_candidate`] is differentially tested against.
pub fn best_candidate_naive(bsf: &Bsf) -> Option<(Clifford2Q, f64)> {
    let support = bsf.support();
    let mut best: Option<(Clifford2Q, f64)> = None;
    for kind in CLIFFORD2Q_GENERATORS {
        let symmetric = kind.sigma0() == kind.sigma1();
        for (ia, &a) in support.iter().enumerate() {
            for &b in &support[ia + 1..] {
                let orientations: &[(usize, usize)] = if symmetric {
                    &[(a, b)]
                } else {
                    &[(a, b), (b, a)]
                };
                for &(x, y) in orientations {
                    let cand = Clifford2Q::new(kind, x, y);
                    let cost = cost_bsf(&bsf.conjugated(cand));
                    if best.is_none_or(|(_, c)| cost < c) {
                        best = Some((cand, cost));
                    }
                }
            }
        }
    }
    best
}

/// Guaranteed-progress fallback: strictly reduce the heaviest row's weight,
/// breaking ties by Eq. (6).
///
/// Reference implementation for [`CostEvaluator::progress_candidate`].
pub fn progress_candidate_naive(bsf: &Bsf) -> Clifford2Q {
    reduce_row_naive(bsf, heaviest_row(bsf))
}

/// The Clifford that strictly reduces row `row`'s weight, breaking ties by
/// the reduced weight and then Eq. (6).
///
/// Reference implementation for [`CostEvaluator::reduce_row`].
pub fn reduce_row_naive(bsf: &Bsf, row: usize) -> Clifford2Q {
    let target = &bsf.rows()[row];
    let old_w = target.weight();
    let support = target.support_mask().to_indices();
    let mut best: Option<(Clifford2Q, usize, f64)> = None;
    for kind in CLIFFORD2Q_GENERATORS {
        for (ia, &a) in support.iter().enumerate() {
            for &b in &support[ia + 1..] {
                for &(x, y) in &[(a, b), (b, a)] {
                    let cand = Clifford2Q::new(kind, x, y);
                    let conj = bsf.conjugated(cand);
                    let w = conj.rows()[row].weight();
                    if w >= old_w {
                        continue;
                    }
                    let cost = cost_bsf(&conj);
                    if best.is_none_or(|(_, bw, bc)| (w, cost) < (bw, bc)) {
                        best = Some((cand, w, cost));
                    }
                }
            }
        }
    }
    best.expect("a weight-reducing clifford always exists for weight ≥ 2 rows")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::{Clifford2QKind, Pauli};

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.1 * (i + 1) as f64))
            .collect()
    }

    /// `terms` in a canonical order, for multiset comparisons.
    fn sorted(mut terms: Vec<(PauliString, f64)>) -> Vec<(PauliString, f64)> {
        terms.sort_by_key(|t| {
            (
                t.0.x_mask().clone(),
                t.0.z_mask().clone(),
                (t.1 * 1e12) as i64,
            )
        });
        terms
    }

    /// Every weight-2 restriction (τa, τb) is reducible to weight ≤ 1 by
    /// some generator in some orientation — the guarantee behind
    /// `progress_candidate`.
    #[test]
    fn every_weight2_pair_is_reducible() {
        for ta in Pauli::XYZ {
            for tb in Pauli::XYZ {
                let found = CLIFFORD2Q_GENERATORS.iter().any(|&kind| {
                    let fwd = kind.conjugate(ta, tb);
                    let rev = kind.conjugate(tb, ta);
                    fwd.0.is_identity()
                        || fwd.1.is_identity()
                        || rev.0.is_identity()
                        || rev.1.is_identity()
                });
                assert!(found, "{ta}{tb} not reducible");
            }
        }
    }

    #[test]
    fn fig1b_needs_one_clifford() {
        // The paper uses C(X,Y)[1,2]; the greedy search may find another
        // equally good single conjugation (e.g. C(Y,Y)[0,2]) — what matters
        // is that ONE Clifford2Q suffices and the core is ≤2Q.
        let s = simplify_terms(3, &terms(&["ZYY", "ZZY", "XYY", "XZY"]));
        assert_eq!(s.num_cliffords(), 1);
        assert!(matches!(s.items()[0], CfgItem::Clifford(_)));
        let _ = Clifford2QKind::Cxy; // referenced by the paper's variant
    }

    #[test]
    fn already_simple_group_has_no_cliffords() {
        let s = simplify_terms(3, &terms(&["XXI", "YYI", "ZZI"]));
        assert_eq!(s.num_cliffords(), 0);
        assert_eq!(s.items().len(), 1);
    }

    #[test]
    fn term_sequence_is_permutation_of_input() {
        for labels in [
            vec!["ZYY", "ZZY", "XYY", "XZY"],
            vec!["XXXX", "YYII", "ZZZZ", "XYZX"],
            vec!["XZZY", "YIZZ"],
            vec!["ZZZZZ"],
        ] {
            let input = terms(&labels);
            let s = simplify_terms(labels[0].len(), &input);
            assert_eq!(sorted(s.term_sequence()), sorted(input), "{labels:?}");
        }
    }

    #[test]
    fn single_heavy_string_simplifies() {
        let s = simplify_terms(6, &terms(&["XYZXYZ"]));
        // Weight-6 string must reduce to ≤2Q core.
        let core_ok = s.items().iter().any(|i| match i {
            CfgItem::Rotations(rows) => rows.iter().all(|r| r.weight() <= 2),
            _ => true,
        });
        assert!(core_ok);
        assert!(s.num_cliffords() >= 2, "needs several conjugations");
    }

    #[test]
    fn all_rotations_are_weight_at_most_two() {
        let input = terms(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX"]);
        let s = simplify_terms(5, &input);
        for item in s.items() {
            if let CfgItem::Rotations(rows) = item {
                for r in rows {
                    assert!(r.weight() <= 2, "row weight {}", r.weight());
                }
            }
        }
    }

    #[test]
    fn cliffords_mirror_around_core() {
        let s = simplify_terms(4, &terms(&["XYZX", "ZZYY"]));
        let cliffs: Vec<&Clifford2Q> = s
            .items()
            .iter()
            .filter_map(|i| match i {
                CfgItem::Clifford(c) => Some(c),
                _ => None,
            })
            .collect();
        let k = cliffs.len() / 2;
        for i in 0..k {
            assert_eq!(cliffs[i], cliffs[2 * k - 1 - i], "mirrored pair {i}");
        }
    }

    #[test]
    fn reused_evaluator_matches_a_fresh_one() {
        // One evaluator carried across groups of different shapes (as a
        // stage-2 worker does) leaves no state behind between them.
        let mut eval = CostEvaluator::new();
        for labels in [
            vec!["XXYYZ", "YZXZI", "ZZZXX", "XYIYX"],
            vec!["ZYY", "ZZY", "XYY", "XZY"],
            vec!["XXXX", "YYII", "ZZZZ", "XYZX"],
        ] {
            let input = terms(&labels);
            let n = labels[0].len();
            let fresh = simplify_terms(n, &input);
            let (reused, _) = simplify_terms_deepening(
                &mut eval,
                n,
                &input,
                &SimplifyOptions::default(),
                usize::MAX,
                &[],
                &mut || false,
            )
            .unwrap();
            assert_eq!(reused, fresh, "{labels:?}");
        }
    }

    #[test]
    fn capped_deepening_with_pv_is_still_unitary_faithful() {
        let input = terms(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX"]);
        let opts = SimplifyOptions::default();
        let mut eval = CostEvaluator::new();
        let mut pv: Vec<Clifford2Q> = Vec::new();
        for cap in [1usize, 2, 8, usize::MAX] {
            let (s, chosen) =
                simplify_terms_deepening(&mut eval, 5, &input, &opts, cap, &pv, &mut || false)
                    .unwrap();
            assert_eq!(
                sorted(s.term_sequence()),
                sorted(input.clone()),
                "cap {cap}"
            );
            for item in s.items() {
                if let CfgItem::Rotations(rows) = item {
                    assert!(rows.iter().all(|r| r.weight() <= 2), "cap {cap}");
                }
            }
            pv = chosen;
        }
    }

    #[test]
    fn deepening_is_deterministic_across_scan_threads() {
        let input = terms(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX", "IXYZX"]);
        let pv: Vec<Clifford2Q> = Vec::new();
        for cap in [2usize, 6, usize::MAX] {
            let base = simplify_terms_deepening(
                &mut CostEvaluator::new(),
                5,
                &input,
                &SimplifyOptions {
                    scan_threads: 1,
                    naive_cost: false,
                },
                cap,
                &pv,
                &mut || false,
            );
            for scan_threads in [2usize, 8] {
                let other = simplify_terms_deepening(
                    &mut CostEvaluator::new(),
                    5,
                    &input,
                    &SimplifyOptions {
                        scan_threads,
                        naive_cost: false,
                    },
                    cap,
                    &pv,
                    &mut || false,
                );
                assert_eq!(other, base, "cap {cap}, {scan_threads} scan threads");
            }
        }
    }

    #[test]
    fn interrupt_fires_inside_the_greedy_loop() {
        let input = terms(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX"]);
        // An immediately-firing interrupt abandons before the first epoch…
        let none =
            simplify_terms_interruptible(5, &input, &SimplifyOptions::default(), &mut || true);
        assert!(none.is_none());
        // …and a countdown interrupt is honored mid-loop, not just at entry.
        let mut polls = 0usize;
        let midway =
            simplify_terms_interruptible(5, &input, &SimplifyOptions::default(), &mut || {
                polls += 1;
                polls > 2
            });
        assert!(midway.is_none());
        assert_eq!(polls, 3);
        // A never-firing interrupt is bit-identical to the plain entry point.
        let full =
            simplify_terms_interruptible(5, &input, &SimplifyOptions::default(), &mut || false)
                .unwrap();
        assert_eq!(full, simplify_terms(5, &input));
    }

    #[test]
    fn qaoa_style_group_passes_through() {
        // Weight-2 ZZ terms are already synthesizable.
        let s = simplify_terms(2, &terms(&["ZZ"]));
        assert_eq!(s.num_cliffords(), 0);
        assert_eq!(s.term_sequence(), terms(&["ZZ"]));
    }
}
