//! Differential tests: the incremental [`CostEvaluator`] must be
//! *bit-identical* to the naive clone-and-rescore path on random tableaux —
//! every candidate cost, the argmin (including tie-breaking), the
//! guaranteed-progress fallback, and the end-to-end `simplify_terms` output.
//! Small tableaux cover every candidate; tall, wide ones reach multi-word
//! row bitsets (more than 64 rows) and heap-backed masks (more than 128
//! qubits); the LiH_frz Jordan–Wigner UCCSD groups are the tableaux stage 2
//! really sees.

use phoenix_core::cost::cost_bsf;
use phoenix_core::group::group_by_support;
use phoenix_core::simplify::{
    best_candidate_naive, progress_candidate_naive, reduce_row_naive, simplify_terms_with,
};
use phoenix_core::{CostEvaluator, SimplifyOptions};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_pauli::{Bsf, BsfRow, Clifford2Q, PauliString, QubitMask, CLIFFORD2Q_GENERATORS};
use proptest::prelude::*;

/// A random tableau on `n ∈ 2..=7` qubits with `1..=6` rows of random
/// X/Z masks (truncated to the register) and coefficients.
fn arb_bsf() -> impl Strategy<Value = Bsf> {
    (
        2usize..=7,
        proptest::collection::vec((0u64..128, 0u64..128, -1.0f64..1.0), 1..=6),
    )
        .prop_map(|(n, rows)| {
            let mask = (1u128 << n) - 1;
            let mut bsf = Bsf::new(n);
            for (x, z, coeff) in rows {
                bsf.push_row(BsfRow::new(x as u128 & mask, z as u128 & mask, coeff));
            }
            bsf
        })
}

/// A tall, wide tableau: `60..=200` rows on up to 140 qubits (half of the
/// cases above 128). The rows draw their Paulis inside one of up to three
/// supports over up to six qubits, so supports repeat as in a UCCSD group,
/// and row weights span 0 to 6.
fn arb_tall_bsf() -> impl Strategy<Value = Bsf> {
    (
        (2usize..=128, 129usize..=140, any::<bool>()),
        proptest::collection::vec(0usize..140, 2..=6),
        proptest::collection::vec(1u8..64, 1..=3),
        proptest::collection::vec((0usize..3, 0u8..64, 0u8..64, -1.0f64..1.0), 60..=200),
    )
        .prop_map(|((narrow, wide, is_wide), qubits, supports, rows)| {
            let n = if is_wide { wide } else { narrow };
            let mut bsf = Bsf::new(n);
            for (s, x, z, coeff) in rows {
                let support = supports[s % supports.len()];
                let (mut xm, mut zm) = (QubitMask::zeros(n), QubitMask::zeros(n));
                for (i, &q) in qubits.iter().enumerate() {
                    if support >> i & 1 == 1 {
                        if x >> i & 1 == 1 {
                            xm.set_bit(q % n);
                        }
                        if z >> i & 1 == 1 {
                            zm.set_bit(q % n);
                        }
                    }
                }
                bsf.push_row(BsfRow::from_packed(xm, zm, coeff));
            }
            bsf
        })
}

/// The qubit pairs a tall case checks under every oriented generator: all
/// pairs of its first four support qubits, plus one pair reaching off the
/// support when the register has room.
fn probe_pairs(bsf: &Bsf) -> Vec<(usize, usize)> {
    let support = bsf.support();
    let head = &support[..support.len().min(4)];
    let mut pairs: Vec<(usize, usize)> = head
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| head[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let off = (0..bsf.num_qubits()).find(|q| !support.contains(q));
    if let (Some(&a), Some(off)) = (support.first(), off) {
        pairs.push((a, off));
    }
    pairs
}

proptest! {
    /// Every generator, every ordered qubit pair: the O(1) incremental
    /// score equals the naive conjugate-then-rescore cost down to the
    /// last bit.
    #[test]
    fn candidate_cost_matches_naive_for_every_candidate(bsf in arb_bsf()) {
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        prop_assert_eq!(eval.current_cost().to_bits(), cost_bsf(&bsf).to_bits());
        let n = bsf.num_qubits();
        for kind in CLIFFORD2Q_GENERATORS {
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let cand = Clifford2Q::new(kind, a, b);
                    let fast = eval.candidate_cost(&bsf, cand);
                    let naive = cost_bsf(&bsf.conjugated(cand));
                    prop_assert_eq!(
                        fast.to_bits(),
                        naive.to_bits(),
                        "{} on ({},{}): fast {} vs naive {}",
                        kind, a, b, fast, naive
                    );
                }
            }
        }
    }

    /// Same winner (gate *and* cost bits) as the naive scan, sequentially
    /// and with a parallel scan — tie-breaking included.
    #[test]
    fn best_candidate_matches_naive_argmin(bsf in arb_bsf()) {
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        let naive = best_candidate_naive(&bsf);
        for threads in [1usize, 4] {
            let fast = eval.best_candidate_scan(&bsf, threads);
            match (fast, naive) {
                (Some((fc, fcost)), Some((nc, ncost))) => {
                    prop_assert_eq!(fc, nc, "threads={}", threads);
                    prop_assert_eq!(fcost.to_bits(), ncost.to_bits());
                }
                (f, n) => prop_assert_eq!(f.is_none(), n.is_none()),
            }
        }
    }

    /// The guaranteed-progress fallback picks the identical gate.
    #[test]
    fn progress_candidate_matches_naive(bsf in arb_bsf()) {
        prop_assume!(bsf.rows().iter().any(|r| r.weight() >= 2));
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        prop_assert_eq!(eval.progress_candidate(&bsf), progress_candidate_naive(&bsf));
    }

    /// Algorithm 1's full output is invariant under the evaluator choice:
    /// incremental (sequential or parallel scan) and forced-naive runs
    /// produce the same `SimplifiedGroup`, item for item.
    #[test]
    fn simplify_output_invariant_under_evaluator_choice(bsf in arb_bsf()) {
        let n = bsf.num_qubits();
        let terms: Vec<(PauliString, f64)> = bsf
            .rows()
            .iter()
            .map(|r| (r.to_pauli_string(n), r.coeff()))
            .collect();
        let reference = simplify_terms_with(n, &terms, &SimplifyOptions::default());
        for opts in [
            SimplifyOptions { naive_cost: true, ..SimplifyOptions::default() },
            SimplifyOptions { scan_threads: 4, ..SimplifyOptions::default() },
        ] {
            prop_assert_eq!(&simplify_terms_with(n, &terms, &opts), &reference);
        }
    }

    /// The livelock exit's row-targeted fallback picks the naive path's
    /// gate for every reducible row, and the post-conjugation total weight
    /// the greedy loop reads off the evaluator is exact.
    #[test]
    fn reduce_row_and_weight_after_match_naive(bsf in arb_bsf()) {
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        for (row, r) in bsf.rows().iter().enumerate() {
            if r.weight() >= 2 {
                prop_assert_eq!(eval.reduce_row(&bsf, row), reduce_row_naive(&bsf, row));
            }
        }
        let n = bsf.num_qubits();
        for kind in CLIFFORD2Q_GENERATORS {
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    let cand = Clifford2Q::new(kind, a, b);
                    prop_assert_eq!(
                        eval.total_weight_after(cand),
                        bsf.conjugated(cand).total_weight(),
                        "{}", cand
                    );
                }
            }
        }
    }

    /// Tall, wide tableaux: candidate costs and post-conjugation weights on
    /// the probe pairs, both orientations of every generator.
    #[test]
    fn tall_candidate_cost_matches_naive(bsf in arb_tall_bsf()) {
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        prop_assert_eq!(eval.current_cost().to_bits(), cost_bsf(&bsf).to_bits());
        prop_assert_eq!(eval.total_weight(), bsf.total_weight());
        for (a, b) in probe_pairs(&bsf) {
            for kind in CLIFFORD2Q_GENERATORS {
                for (x, y) in [(a, b), (b, a)] {
                    let cand = Clifford2Q::new(kind, x, y);
                    let conj = bsf.conjugated(cand);
                    prop_assert_eq!(
                        eval.candidate_cost(&bsf, cand).to_bits(),
                        cost_bsf(&conj).to_bits(),
                        "{}", cand
                    );
                    prop_assert_eq!(eval.total_weight_after(cand), conj.total_weight(), "{}", cand);
                }
            }
        }
    }

    /// Tall, wide tableaux: the same winner as the naive scan, sequentially
    /// and with a parallel scan.
    #[test]
    fn tall_best_candidate_matches_naive_argmin(bsf in arb_tall_bsf()) {
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        let naive = best_candidate_naive(&bsf);
        for threads in [1usize, 4] {
            let fast = eval.best_candidate_scan(&bsf, threads);
            match (fast, naive) {
                (Some((fc, fcost)), Some((nc, ncost))) => {
                    prop_assert_eq!(fc, nc, "threads={}", threads);
                    prop_assert_eq!(fcost.to_bits(), ncost.to_bits());
                }
                (f, n) => prop_assert_eq!(f.is_none(), n.is_none()),
            }
        }
    }

    /// Tall, wide tableaux: the guaranteed-progress fallback and the
    /// livelock exit's first-row reduction pick the naive path's gates.
    #[test]
    fn tall_progress_candidate_matches_naive(bsf in arb_tall_bsf()) {
        let first = bsf.rows().iter().position(|r| r.weight() >= 2);
        prop_assume!(first.is_some());
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        prop_assert_eq!(eval.progress_candidate(&bsf), progress_candidate_naive(&bsf));
        let first = first.unwrap();
        prop_assert_eq!(eval.reduce_row(&bsf, first), reduce_row_naive(&bsf, first));
    }
}

/// Algorithm 1 on every LiH_frz JW UCCSD group: the forced-naive evaluator
/// and the parallel scan give the default's `SimplifiedGroup`, item for
/// item.
#[test]
fn lih_groups_simplify_identically_under_every_evaluator() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    let groups = group_by_support(n, h.terms());
    assert_eq!(groups.len(), 24);
    for (i, g) in groups.iter().enumerate() {
        let reference = simplify_terms_with(n, g.terms(), &SimplifyOptions::default());
        for opts in [
            SimplifyOptions {
                naive_cost: true,
                ..SimplifyOptions::default()
            },
            SimplifyOptions {
                scan_threads: 4,
                ..SimplifyOptions::default()
            },
        ] {
            assert_eq!(
                simplify_terms_with(n, g.terms(), &opts),
                reference,
                "group {i}"
            );
        }
    }
}
