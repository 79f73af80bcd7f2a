//! Metamorphic properties of compilation.
//!
//! Each property transforms a program in a way with a *known* semantic
//! effect and checks that compilation commutes with the transformation:
//!
//! - **Qubit relabeling**: compiling `π(P)` is equivalent (within Trotter
//!   reordering) to relabeling the compiled circuit of `P` by `π`.
//! - **Term permutation**: shuffling the input terms changes nothing
//!   semantically — outputs agree within twice the reorder tolerance.
//! - **Coefficient scaling**: scaling all coefficients to zero must
//!   compile to the identity; PHOENIX's exact term-order invariant must
//!   survive any scale.
//! - **Concatenation**: compiling `P ⧺ Q` is equivalent to composing the
//!   separately compiled circuits, within the combined reorder tolerance.
//!
//! All properties are dense checks — run them on programs within the
//! unitary tier (`n ≲ 8`).

use phoenix_circuit::Circuit;
use phoenix_core::{CompileOutcome, CompileRequest, Target};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;
use phoenix_sim::{circuit_unitary, infidelity};

use crate::differential::Failure;
use crate::engine::{check_exact_unitary, reorder_tolerance, Outcome, EPSILON};
use crate::gen::Program;

/// Runs every metamorphic property on `program` with transformation
/// randomness drawn from `seed`. Dense; intended for `n ≤ 8`.
pub fn metamorphic_failures(program: &Program, seed: u64) -> Vec<Failure> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut failures = Vec::new();
    relabeling(program, &mut rng, &mut failures);
    term_permutation(program, &mut rng, &mut failures);
    coefficient_scaling(program, &mut failures);
    concatenation(program, &mut failures);
    failures
}

fn fail(failures: &mut Vec<Failure>, property: &str, metric: f64, detail: String) {
    failures.push(Failure {
        pipeline: format!("metamorphic/{property}"),
        check: property.to_string(),
        metric: Some(metric),
        detail,
    });
}

/// Compilation commutes with qubit relabeling (up to Trotter reordering).
fn relabeling(program: &Program, rng: &mut Xoshiro256, failures: &mut Vec<Failure>) {
    let n = program.num_qubits;
    let mut pi: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut pi);
    let relabeled: Vec<_> = program
        .terms
        .iter()
        .map(|(p, c)| (p.embed(n, &pi), *c))
        .collect();
    let direct = cnot(n, &relabeled);
    let via_map = cnot(n, &program.terms).map_qubits(n, |q| pi[q]);
    let tol = 2.0 * reorder_tolerance(&relabeled);
    let infid = infidelity(&circuit_unitary(&direct), &circuit_unitary(&via_map));
    if infid > tol {
        fail(
            failures,
            "relabeling",
            infid,
            format!("compile(π·P) vs π·compile(P): infidelity {infid:.3e} > {tol:.3e}"),
        );
    }
}

/// Shuffling input terms leaves the compiled semantics unchanged.
fn term_permutation(program: &Program, rng: &mut Xoshiro256, failures: &mut Vec<Failure>) {
    let mut shuffled = program.terms.clone();
    rng.shuffle(&mut shuffled);
    let a = cnot(program.num_qubits, &program.terms);
    let b = cnot(program.num_qubits, &shuffled);
    let tol = 2.0 * reorder_tolerance(&program.terms);
    let infid = infidelity(&circuit_unitary(&a), &circuit_unitary(&b));
    if infid > tol {
        fail(
            failures,
            "term-permutation",
            infid,
            format!("shuffled input compiled differently: infidelity {infid:.3e} > {tol:.3e}"),
        );
    }
}

/// Zero-scaled coefficients compile to the identity; PHOENIX's exact
/// term-order invariant holds at any scale.
fn coefficient_scaling(program: &Program, failures: &mut Vec<Failure>) {
    let n = program.num_qubits;
    let zeroed: Vec<_> = program
        .terms
        .iter()
        .map(|(p, _)| (p.clone(), 0.0))
        .collect();
    let at_zero = cnot(n, &zeroed);
    let infid = infidelity(&circuit_unitary(&at_zero), &identity_unitary(n));
    if infid > EPSILON {
        fail(
            failures,
            "zero-scaling",
            infid,
            format!("zero-coefficient program is not the identity: infidelity {infid:.3e}"),
        );
    }
    for scale in [0.5, -1.0] {
        let scaled: Vec<_> = program
            .terms
            .iter()
            .map(|(p, c)| (p.clone(), c * scale))
            .collect();
        let out = compile(n, &scaled, Target::Logical);
        if let Outcome::Fail { metric, detail } = check_exact_unitary(&out.circuit, &out.term_order)
        {
            fail(
                failures,
                "coefficient-scaling",
                metric,
                format!("scale {scale}: {detail}"),
            );
        }
    }
}

/// Compiling a concatenation is equivalent to composing the compilations.
fn concatenation(program: &Program, failures: &mut Vec<Failure>) {
    if program.terms.len() < 2 {
        return;
    }
    let (left, right) = program.terms.split_at(program.terms.len() / 2);
    let n = program.num_qubits;
    let whole = cnot(n, &program.terms);
    let mut composed = cnot(n, left);
    composed.append(&cnot(n, right));
    let tol = 2.0 * reorder_tolerance(&program.terms);
    let infid = infidelity(&circuit_unitary(&whole), &circuit_unitary(&composed));
    if infid > tol {
        fail(
            failures,
            "concatenation",
            infid,
            format!("compile(P⧺Q) vs compile(P)·compile(Q): infidelity {infid:.3e} > {tol:.3e}"),
        );
    }
}

/// Compiles with default options; the properties run on generated
/// programs, which are valid by construction.
fn compile(n: usize, terms: &[(PauliString, f64)], target: Target) -> CompileOutcome {
    CompileRequest::new(n, terms)
        .target(target)
        .run()
        .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
}

fn cnot(n: usize, terms: &[(PauliString, f64)]) -> Circuit {
    compile(n, terms, Target::Cnot).circuit
}

fn identity_unitary(n: usize) -> phoenix_mathkit::CMatrix {
    phoenix_mathkit::CMatrix::identity(1 << n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Family, RandomProgramGen};

    #[test]
    fn properties_hold_on_random_programs() {
        let mut g = RandomProgramGen::new(314);
        for family in Family::ALL {
            let p = g.program(family, 5, 8);
            let failures = metamorphic_failures(&p, 99);
            assert!(failures.is_empty(), "{family:?}: {failures:?}");
        }
    }
}
