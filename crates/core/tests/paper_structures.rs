//! Algorithm 1 on the paper's real program structures: UCCSD excitation
//! groups and QAOA edges, checked for the structural claims of §IV.

use phoenix_core::{
    group::group_by_support,
    simplify::{simplify_terms, CfgItem},
    synth::synthesize_group,
    CompileRequest, Target,
};
use phoenix_hamil::{qaoa, uccsd, Molecule};
use phoenix_sim::{circuit_unitary, infidelity, trotter_unitary};

/// Every UCCSD group of LiH simplifies to a ≤2Q core; the number of
/// Clifford conjugation layers stays far below the naive per-string bound.
#[test]
fn uccsd_groups_simplify_compactly() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let groups = group_by_support(h.num_qubits(), h.terms());
    assert!(!groups.is_empty());
    for g in &groups {
        let s = simplify_terms(h.num_qubits(), g.terms());
        // Core rows all ≤ 2 qubits.
        for item in s.items() {
            if let CfgItem::Rotations(rows) = item {
                assert!(rows.iter().all(|r| r.weight() <= 2));
            }
        }
        // Simultaneous simplification: one Clifford ladder serves ALL
        // strings of the group — the layer count scales with the group's
        // width, not with strings × width as per-string chains would.
        let bound = 3 * g.width().max(1);
        assert!(
            s.num_cliffords() <= bound,
            "group width {} used {} cliffords",
            g.width(),
            s.num_cliffords()
        );
    }
}

/// A JW double-excitation group (8 strings) is unitary-exact after
/// simplification + synthesis.
#[test]
fn jw_double_excitation_group_is_exact() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    // Pick a group with 8 strings (a pure double excitation) over ≤ 6 weight
    // so the dense check stays fast.
    let groups = group_by_support(n, h.terms());
    let g = groups
        .iter()
        .find(|g| g.terms().len() == 8 && g.width() <= 6)
        .expect("LiH has compact double-excitation groups");
    let keep = g.support();
    // Restrict the group to its support for a small dense check.
    let small_terms: Vec<_> = g
        .terms()
        .iter()
        .map(|(p, c)| (p.restrict(&keep), *c))
        .collect();
    let s = simplify_terms(keep.len(), &small_terms);
    let circuit = synthesize_group(&s);
    let u = circuit_unitary(&circuit);
    let want = trotter_unitary(keep.len(), &s.term_sequence());
    assert!(infidelity(&u, &want) < 1e-10);
}

/// BK groups have more scattered supports than JW but still compile to
/// fewer CNOTs than their naive chains.
#[test]
fn bk_groups_beat_naive_chains() {
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::BravyiKitaev, 7);
    let n = h.num_qubits();
    let phoenix = CompileRequest::new(n, h.terms())
        .target(Target::Cnot)
        .run()
        .unwrap()
        .circuit;
    let naive = phoenix_circuit::synthesis::naive_circuit(n, h.terms());
    assert!(phoenix.counts().cnot * 2 < naive.counts().cnot);
}

/// QAOA programs: every group is a single edge and needs no conjugations
/// (w_tot = 2 from the start) — the §IV-A premise for 2-local programs.
#[test]
fn qaoa_groups_need_no_cliffords() {
    let h = qaoa::benchmark(qaoa::QaoaKind::Rand4, 16, 3);
    for g in group_by_support(h.num_qubits(), h.terms()) {
        let s = simplify_terms(h.num_qubits(), g.terms());
        assert_eq!(s.num_cliffords(), 0);
    }
}

/// Merged same-support groups (several excitations sharing a support,
/// which happens under the scattered BK supports) are simplified
/// simultaneously, paying the Clifford ladder once.
#[test]
fn merged_groups_amortize_cliffords() {
    let h = uccsd::ansatz(Molecule::ch2(), true, uccsd::Encoding::BravyiKitaev, 7);
    let groups = group_by_support(h.num_qubits(), h.terms());
    let merged = groups.iter().filter(|g| g.terms().len() > 8).count();
    assert!(
        merged > 0,
        "CH2 has support sets shared by multiple excitations"
    );
    for g in groups.iter().filter(|g| g.terms().len() > 8) {
        let s = simplify_terms(h.num_qubits(), g.terms());
        let circuit = synthesize_group(&s);
        // Amortization: 2Q gates well below naive 2(w−1) per string.
        let naive: usize = g.terms().iter().map(|(p, _)| 2 * (p.weight() - 1)).sum();
        assert!(
            circuit.counts().two_qubit() < naive / 2,
            "group of {} strings: {} vs naive {}",
            g.terms().len(),
            circuit.counts().two_qubit(),
            naive
        );
    }
}
