//! End-to-end unitary correctness of the PHOENIX pipeline.
//!
//! A correct compilation may only *reorder* the Trotter product — so for
//! every input the emitted circuit's unitary must equal the exact Trotter
//! product of [`CompileOutcome::term_order`] up to global phase, and that
//! order must be a permutation of the input terms.

use phoenix_core::{CompileOutcome, CompileRequest};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Pauli, PauliString};
use phoenix_sim::{circuit_unitary, infidelity, trotter_unitary};

fn random_terms(n: usize, count: usize, seed: u64) -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut p = PauliString::identity(n);
            // Ensure non-identity: force at least one non-trivial site.
            loop {
                for q in 0..n {
                    let k = rng.next_below(4);
                    p.set(q, [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][k]);
                }
                if !p.is_identity() {
                    break;
                }
            }
            (p, rng.next_range_f64(-0.5, 0.5))
        })
        .collect()
}

fn multiset(
    terms: &[(PauliString, f64)],
) -> Vec<(phoenix_pauli::QubitMask, phoenix_pauli::QubitMask, i64)> {
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

fn check_program(n: usize, terms: &[(PauliString, f64)], label: &str) {
    let out: CompileOutcome = CompileRequest::new(n, terms).run().unwrap();
    assert_eq!(
        multiset(&out.term_order),
        multiset(terms),
        "{label}: term_order must be a permutation of the input"
    );
    let want = trotter_unitary(n, &out.term_order);
    let high = circuit_unitary(&out.circuit);
    assert!(
        infidelity(&want, &high) < 1e-10,
        "{label}: high-level circuit deviates, infid {}",
        infidelity(&want, &high)
    );
    // Lowering to the CNOT ISA and rebasing to SU(4) preserve the unitary.
    let cnot = circuit_unitary(&phoenix_circuit::peephole::optimize(&out.circuit));
    assert!(
        infidelity(&want, &cnot) < 1e-10,
        "{label}: CNOT lowering deviates"
    );
    let su4 = circuit_unitary(&phoenix_circuit::rebase::to_su4(&out.circuit));
    assert!(
        infidelity(&want, &su4) < 1e-10,
        "{label}: SU(4) rebase deviates"
    );
}

#[test]
fn fig1b_example_is_exact() {
    let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
        .iter()
        .enumerate()
        .map(|(i, s)| (s.parse().unwrap(), 0.07 * (i + 1) as f64))
        .collect();
    check_program(3, &terms, "fig1b");
}

#[test]
fn random_programs_are_exact() {
    for seed in 0..12 {
        let n = 3 + (seed as usize % 3); // 3..=5 qubits
        let terms = random_terms(n, 4 + (seed as usize % 5), 100 + seed);
        check_program(n, &terms, &format!("random seed {seed}"));
    }
}

#[test]
fn duplicate_support_groups_are_exact() {
    // Many strings over the same support stress the simultaneous
    // simplification path.
    let terms: Vec<(PauliString, f64)> = ["XXYY", "YYXX", "XYXY", "YXYX", "ZZZZ", "XXXX"]
        .iter()
        .enumerate()
        .map(|(i, s)| (s.parse().unwrap(), 0.03 * (i as f64 + 1.0)))
        .collect();
    check_program(4, &terms, "same support");
}

#[test]
fn weight_one_heavy_mix_is_exact() {
    let terms: Vec<(PauliString, f64)> = [
        ("XIII", 0.4),
        ("IYII", -0.2),
        ("XYZX", 0.11),
        ("IIIZ", 0.9),
        ("XYZY", -0.23),
    ]
    .iter()
    .map(|(s, c)| (s.parse().unwrap(), *c))
    .collect();
    check_program(4, &terms, "mixed weights");
}

#[test]
fn uccsd_style_group_is_exact() {
    // A JW double excitation: 8 strings on one support with Z-chains.
    let jw = phoenix_hamil_stub::double_jw();
    check_program(5, &jw, "uccsd-like");
}

/// Local helper emulating a JW double-excitation pattern without a hamil
/// dependency (kept minimal: the real generators are tested in phoenix-hamil).
mod phoenix_hamil_stub {
    use phoenix_pauli::PauliString;

    pub fn double_jw() -> Vec<(PauliString, f64)> {
        [
            "XXZXY", "XXZYX", "XYZXX", "YXZXX", "XYZYY", "YXZYY", "YYZXY", "YYZYX",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            (s.parse().unwrap(), sign * 0.05)
        })
        .collect()
    }
}
