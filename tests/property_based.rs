//! Property-based tests on the core invariants, spanning crates.

use phoenix::circuit::{peephole, rebase, synthesis, Circuit, Gate};
use phoenix::core::{CompileRequest, Device, Target};
use phoenix::pauli::{Bsf, Clifford2Q, Pauli, PauliString, CLIFFORD2Q_GENERATORS};
use phoenix::sim::{circuit_unitary, infidelity, trotter_unitary};
use proptest::prelude::*;

/// Strategy: a non-identity Pauli string over `n` qubits.
fn pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(0usize..4, n).prop_filter_map("identity string", move |ps| {
        let mut p = PauliString::identity(n);
        for (q, &k) in ps.iter().enumerate() {
            p.set(q, [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][k]);
        }
        (!p.is_identity()).then_some(p)
    })
}

fn small_program(n: usize, max_terms: usize) -> impl Strategy<Value = Vec<(PauliString, f64)>> {
    proptest::collection::vec((pauli_string(n), -0.5f64..0.5), 1..=max_terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled circuit always equals the exact Trotter product of the
    /// reported term order, for any 4-qubit program.
    #[test]
    fn phoenix_is_unitarily_exact(terms in small_program(4, 6)) {
        let out = CompileRequest::new(4, &terms).run().unwrap();
        let want = trotter_unitary(4, &out.term_order);
        let got = circuit_unitary(&out.circuit);
        prop_assert!(infidelity(&want, &got) < 1e-9);
    }

    /// Peephole optimization never changes the unitary (up to phase) and
    /// never increases the CNOT count.
    #[test]
    fn peephole_preserves_unitary(terms in small_program(4, 5)) {
        let raw = synthesis::naive_circuit(4, &terms);
        let opt = peephole::optimize(&raw);
        prop_assert!(opt.counts().cnot <= raw.counts().cnot);
        let u = circuit_unitary(&raw);
        let v = circuit_unitary(&opt);
        prop_assert!(infidelity(&u, &v) < 1e-9);
    }

    /// SU(4) rebase preserves the unitary exactly and never increases 2Q
    /// depth.
    #[test]
    fn rebase_preserves_unitary(terms in small_program(4, 5)) {
        let hl = CompileRequest::new(4, &terms).run().unwrap().circuit;
        let su4 = rebase::to_su4(&hl);
        prop_assert!(su4.depth_2q() <= hl.depth_2q());
        let u = circuit_unitary(&hl);
        let v = circuit_unitary(&su4);
        prop_assert!(infidelity(&u, &v) < 1e-9);
    }

    /// Clifford conjugation on the BSF preserves weights' parity structure:
    /// commutation relations between rows are invariant.
    #[test]
    fn bsf_conjugation_preserves_commutation(
        terms in small_program(5, 4),
        kind_idx in 0usize..6,
        a in 0usize..5,
        b in 0usize..5,
    ) {
        prop_assume!(a != b);
        let bsf = Bsf::from_terms(5, terms.clone()).unwrap();
        let conj = bsf.conjugated(Clifford2Q::new(CLIFFORD2Q_GENERATORS[kind_idx], a, b));
        let t0 = bsf.to_terms();
        let t1 = conj.to_terms();
        for i in 0..t0.len() {
            for j in 0..t0.len() {
                prop_assert_eq!(
                    t0[i].0.commutes(&t0[j].0),
                    t1[i].0.commutes(&t1[j].0)
                );
            }
        }
        // Coefficient magnitudes are preserved (only signs may flip).
        for (x, y) in t0.iter().zip(&t1) {
            prop_assert!((x.1.abs() - y.1.abs()).abs() < 1e-15);
        }
    }

    /// Routing onto a line preserves per-qubit logical gate sequences
    /// (checked indirectly: unitary equality after un-mapping is covered in
    /// the router's unit tests; here we check structural sanity).
    #[test]
    fn routed_circuits_only_use_device_edges(terms in small_program(4, 5)) {
        let device = phoenix::topology::CouplingGraph::line(4);
        let hw = CompileRequest::new(4, &terms)
            .target(Target::Device(Device::bare(device.clone())))
            .run()
            .unwrap()
            .hardware
            .unwrap();
        for g in hw.circuit.gates() {
            if let (x, Some(y)) = g.qubits() {
                prop_assert!(device.contains_edge(x, y));
            }
        }
    }

    /// Gate-level identity: lowering any high-level gate is unitary-exact.
    #[test]
    fn gate_lowering_is_exact(
        kind_idx in 0usize..6,
        pa_idx in 0usize..3,
        pb_idx in 0usize..3,
        theta in -3.0f64..3.0,
    ) {
        let mut c = Circuit::new(2);
        c.push(Gate::Clifford2(Clifford2Q::new(
            CLIFFORD2Q_GENERATORS[kind_idx], 0, 1,
        )));
        c.push(Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::XYZ[pa_idx],
            pb: Pauli::XYZ[pb_idx],
            theta,
        });
        let u = circuit_unitary(&c);
        let v = circuit_unitary(&c.lower_to_cnot());
        prop_assert!(infidelity(&u, &v) < 1e-10);
    }
}
