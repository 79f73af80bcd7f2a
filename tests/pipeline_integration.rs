//! Cross-crate integration: generators → compilers → simulator.

use phoenix::baselines::Baseline;
use phoenix::circuit::peephole;
use phoenix::core::{CompileOutcome, CompileRequest, Target};
use phoenix::hamil::{models, qaoa, uccsd, Hamiltonian, Molecule};
use phoenix::sim::{circuit_unitary, infidelity, trotter_unitary};

fn compile(h: &Hamiltonian, target: Target) -> CompileOutcome {
    CompileRequest::new(h.num_qubits(), h.terms())
        .target(target)
        .run()
        .unwrap()
}

/// PHOENIX must beat the conventional circuit on every UCCSD benchmark.
#[test]
fn phoenix_beats_original_on_uccsd_suite() {
    for h in uccsd::table1_suite(7) {
        // Keep debug-mode runtime in check: only the small benchmarks.
        if h.len() > 400 {
            continue;
        }
        let naive = Baseline::Naive.compile_logical(h.num_qubits(), h.terms());
        let phoenix = compile(&h, Target::Cnot).circuit;
        assert!(
            phoenix.counts().cnot * 2 < naive.counts().cnot,
            "{}: {} vs {}",
            h.name(),
            phoenix.counts().cnot,
            naive.counts().cnot
        );
        assert!(phoenix.depth_2q() < naive.depth_2q(), "{}", h.name());
    }
}

/// Every compiler's output on a small program implements a valid Trotter
/// product of the input (identical term multiset ⇒ same first-order error
/// class); PHOENIX's is checked exactly against its reported order.
#[test]
fn compiled_circuits_are_unitarily_faithful() {
    let h = models::heisenberg_chain(4, 0.3, -0.2, 0.5);
    let out = compile(&h, Target::Logical);
    let want = trotter_unitary(h.num_qubits(), &out.term_order);
    assert!(infidelity(&want, &circuit_unitary(&out.circuit)) < 1e-10);

    // Baselines preserve the *input order within commuting freedom*; their
    // circuits must be unitary and act on the right register.
    for b in [
        Baseline::Naive,
        Baseline::TketStyle,
        Baseline::PaulihedralStyle,
        Baseline::TetrisStyle,
    ] {
        let c = peephole::optimize(&b.compile_logical(h.num_qubits(), h.terms()));
        let u = circuit_unitary(&c);
        assert!(u.is_unitary(1e-10), "{}", b.name());
    }
}

/// The naive baseline is order-exact: its unitary equals the input-order
/// Trotter product.
#[test]
fn naive_baseline_is_order_exact() {
    let h = models::tfim_chain(5, 0.7, 0.3);
    let c = Baseline::Naive.compile_logical(h.num_qubits(), h.terms());
    let u = circuit_unitary(&c);
    let want = trotter_unitary(h.num_qubits(), h.terms());
    assert!(infidelity(&u, &want) < 1e-10);
}

/// QAOA programs compile into pure 2Q-rotation circuits with near-optimal
/// logical depth.
#[test]
fn qaoa_compiles_depth_efficiently() {
    let h = qaoa::benchmark(qaoa::QaoaKind::Reg3, 16, 3);
    let out = compile(&h, Target::Logical);
    assert_eq!(out.circuit.counts().clifford2, 0, "no conjugations needed");
    assert_eq!(out.circuit.counts().pauli_rot2, h.len());
    // 3-regular graphs are 3- or 4-edge-colorable; each color layer costs
    // one 2Q layer. Allow modest slack over the optimum.
    assert!(
        out.circuit.depth_2q() <= 8,
        "depth {}",
        out.circuit.depth_2q()
    );
}

/// The SU(4) pipeline emits strictly fewer 2Q instructions than CNOTs.
#[test]
fn su4_isa_reduces_instruction_count() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::BravyiKitaev, 7);
    let cnot = compile(&h, Target::Cnot).circuit;
    let su4 = compile(&h, Target::Su4).circuit;
    assert!(su4.counts().su4 < cnot.counts().cnot);
    assert!(su4.depth_2q() <= cnot.depth_2q());
}

/// Compilation is deterministic end to end.
#[test]
fn compilation_is_deterministic() {
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::JordanWigner, 9);
    let a = compile(&h, Target::Logical);
    let b = compile(&h, Target::Logical);
    assert_eq!(a.circuit, b.circuit);
    assert_eq!(a.term_order, b.term_order);
}
