//! Regression guards: pin the headline metrics into bands so future
//! changes to any pipeline stage surface as test failures rather than
//! silent quality regressions.
//!
//! Bands are deliberately loose (±20–30%) — they encode "the shape of the
//! paper's results", not exact numbers.

use phoenix::baselines::Baseline;
use phoenix::circuit::peephole;
use phoenix::core::{CompileOutcome, CompileRequest, Device, Target};
use phoenix::hamil::{qaoa, uccsd, Hamiltonian, Molecule};
use phoenix::sim::noise::ErrorModel;
use phoenix::topology::CouplingGraph;

fn compile(h: &Hamiltonian, target: Target) -> CompileOutcome {
    CompileRequest::new(h.num_qubits(), h.terms())
        .target(target)
        .run()
        .unwrap()
}

#[test]
fn lih_frz_jw_logical_band() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let naive = Baseline::Naive.compile_logical(h.num_qubits(), h.terms());
    assert_eq!(
        naive.counts().cnot,
        1376,
        "naive synthesis is deterministic"
    );
    let phoenix = compile(&h, Target::Cnot).circuit;
    let ratio = phoenix.counts().cnot as f64 / naive.counts().cnot as f64;
    assert!(
        (0.15..0.40).contains(&ratio),
        "PHOENIX should retain ~25% of CNOTs, got {:.1}% ({} CNOTs)",
        100.0 * ratio,
        phoenix.counts().cnot
    );
}

#[test]
fn compiler_ranking_is_stable() {
    // The paper's ranking: PHOENIX < Paulihedral ≲ TKET < Tetris ≤ original.
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    let count = |b: Baseline| {
        peephole::optimize(&b.compile_logical(n, h.terms()))
            .counts()
            .cnot
    };
    let naive = Baseline::Naive.compile_logical(n, h.terms()).counts().cnot;
    let phoenix = compile(&h, Target::Cnot).circuit.counts().cnot;
    let ph = count(Baseline::PaulihedralStyle);
    let tket = count(Baseline::TketStyle);
    let tetris = count(Baseline::TetrisStyle);
    assert!(phoenix < ph, "{phoenix} vs paulihedral {ph}");
    assert!(phoenix < tket, "{phoenix} vs tket {tket}");
    assert!(
        ph < tetris && tket < tetris,
        "tetris worst at logical level"
    );
    assert!(tetris <= naive);
}

#[test]
fn hardware_aware_band_on_heavy_hex() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::BravyiKitaev, 7);
    let device = CouplingGraph::manhattan65();
    let hw = compile(&h, Target::Device(Device::bare(device)))
        .hardware
        .unwrap();
    let multiple = hw.routing_overhead();
    assert!(
        (1.2..5.0).contains(&multiple),
        "routing multiple {multiple:.2} out of band"
    );
}

#[test]
fn qaoa_depth_stays_near_optimal() {
    for (kind, degree) in [(qaoa::QaoaKind::Reg3, 3), (qaoa::QaoaKind::Rand4, 4)] {
        let h = qaoa::benchmark(kind, 16, 7);
        let out = compile(&h, Target::Logical);
        // Vizing: edge chromatic number ≤ degree+1; allow 2× slack.
        assert!(
            out.circuit.depth_2q() <= 2 * (degree + 1),
            "depth {} for degree-{degree} graph",
            out.circuit.depth_2q()
        );
    }
}

#[test]
fn predicted_success_improves_substantially() {
    // The NISQ bottom line: PHOENIX's compiled circuit has much higher
    // estimated success probability than the conventional one.
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    let naive = Baseline::Naive.compile_logical(n, h.terms());
    let phoenix = compile(&h, Target::Cnot).circuit;
    let m = ErrorModel::ibm_like();
    let gain = m.success_probability(&phoenix) / m.success_probability(&naive);
    assert!(gain > 10.0, "success gain only {gain:.1}×");
}

#[test]
fn second_order_trotter_reduces_error() {
    use phoenix::hamil::models::heisenberg_chain;
    use phoenix::sim::{exact_evolution, infidelity, trotter_unitary};
    let h = heisenberg_chain(4, 0.4, 0.3, 0.5);
    let exact = exact_evolution(h.num_qubits(), h.terms());
    let e1 = infidelity(&exact, &trotter_unitary(h.num_qubits(), h.terms()));
    let s2 = h.second_order();
    let e2 = infidelity(&exact, &trotter_unitary(h.num_qubits(), s2.terms()));
    assert!(
        e2 < e1 / 2.0,
        "second order should win clearly: S1 {e1:.2e} vs S2 {e2:.2e}"
    );
}
