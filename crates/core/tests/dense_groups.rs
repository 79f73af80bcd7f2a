//! Stage 2 terminates on dense random groups.
//!
//! A ten-qubit program of 500 uniformly random Pauli strings forms groups
//! of 23–41 rows. On some of them the guaranteed-progress fallback alone
//! cycles forever: two rows trade the heaviest place every step. Seed 55
//! is such a program. Algorithm 1's repeated-state exit must end the loop,
//! and the compiled circuit must still implement a permutation of the
//! input terms.

use phoenix_core::group::group_by_support;
use phoenix_core::simplify::simplify_terms_interruptible;
use phoenix_core::{CompileRequest, SimplifyOptions, Target};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Pauli, PauliString, QubitMask};
use phoenix_sim::State;

/// `count` draws of an `n`-qubit string, each qubit uniform over I/X/Y/Z,
/// with all-identity strings skipped and coefficients uniform in `[-1, 1)`.
fn dense_program(n: usize, count: usize, seed: u64) -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut terms = Vec::new();
    for _ in 0..count {
        let mut p = PauliString::identity(n);
        for q in 0..n {
            p.set(
                q,
                [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.next_below(4)],
            );
        }
        if p.is_identity() {
            continue;
        }
        terms.push((p, rng.next_range_f64(-1.0, 1.0)));
    }
    terms
}

fn multiset(terms: &[(PauliString, f64)]) -> Vec<(QubitMask, QubitMask, i64)> {
    let mut v: Vec<_> = terms
        .iter()
        .map(|(p, c)| {
            (
                p.x_mask().clone(),
                p.z_mask().clone(),
                (c * 1e12).round() as i64,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn every_dense_group_finishes_within_an_epoch_cap() {
    // The cap is far above the step budget (64 + 8·rows·weight ≤ 3344 here)
    // plus the livelock exit's peeling steps, so only a cycle can reach it;
    // the interrupt turns a hang into a failure.
    let n = 10;
    let terms = dense_program(n, 500, 55);
    for (i, group) in group_by_support(n, &terms).iter().enumerate() {
        let mut epochs = 0usize;
        let out = simplify_terms_interruptible(
            n,
            group.terms(),
            &SimplifyOptions::default(),
            &mut || {
                epochs += 1;
                epochs > 20_000
            },
        );
        assert!(
            out.is_some(),
            "group {i} ({} rows) did not finish",
            group.terms().len()
        );
    }
}

#[test]
fn dense_random_program_compiles_exactly() {
    let n = 10;
    let terms = dense_program(n, 500, 55);
    let out = CompileRequest::new(n, &terms)
        .target(Target::Cnot)
        .run()
        .expect("a valid program compiles");
    assert_eq!(
        multiset(&out.term_order),
        multiset(&terms),
        "term_order must be a permutation of the input"
    );
    // State-vector spot check: random product states through the circuit
    // and through the exact Trotter product of `term_order`.
    let mut rng = Xoshiro256::seed_from_u64(0x5eed);
    for k in 0..2 {
        let base = State::random_product(n, &mut rng);
        let through_circuit = base.evolved(&out.circuit);
        let mut through_terms = base;
        for (p, coeff) in &out.term_order {
            through_terms.apply_pauli_exp(p, *coeff);
        }
        let infidelity = 1.0 - through_circuit.fidelity(&through_terms);
        assert!(infidelity < 1e-9, "state {k}: infidelity {infidelity:.3e}");
    }
}
