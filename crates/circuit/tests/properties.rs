//! Property-based tests of circuit-level invariants.

use phoenix_circuit::{peephole, qasm, rebase, synthesis, Circuit, Gate};
use phoenix_pauli::{Pauli, PauliString};
use proptest::prelude::*;

fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    (0usize..8, 0usize..n, 0usize..n, -3.0f64..3.0).prop_filter_map(
        "needs distinct qubits",
        move |(kind, a, b, t)| {
            Some(match kind {
                0 => Gate::H(a),
                1 => Gate::S(a),
                2 => Gate::Rz(a, t),
                3 => Gate::Rx(a, t),
                4 => Gate::Ry(a, t),
                5 if a != b => Gate::Cnot(a, b),
                6 if a != b => Gate::Swap(a, b),
                7 if a != b => Gate::PauliRot2 {
                    a,
                    b,
                    pa: Pauli::XYZ[kind % 3],
                    pb: Pauli::XYZ[(kind + 1) % 3],
                    theta: t,
                },
                _ => return None,
            })
        },
    )
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 0..max_gates)
        .prop_map(move |gates| Circuit::from_gates(n, gates))
}

fn pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(0usize..4, n).prop_filter_map("identity", move |ps| {
        let mut p = PauliString::identity(n);
        for (q, &k) in ps.iter().enumerate() {
            p.set(q, [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][k]);
        }
        (!p.is_identity()).then_some(p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lowering to CNOT keeps only 1Q gates and CNOTs and never shrinks the
    /// gate list.
    #[test]
    fn lowering_targets_cnot_isa(c in arb_circuit(5, 24)) {
        let low = c.lower_to_cnot();
        let k = low.counts();
        prop_assert_eq!(k.swap + k.clifford2 + k.pauli_rot2 + k.su4, 0);
        prop_assert!(low.len() >= c.len());
        prop_assert_eq!(low.lower_to_cnot(), low, "idempotent");
    }

    /// Peephole never increases CNOT count or 2Q depth.
    #[test]
    fn peephole_is_monotone(c in arb_circuit(5, 24)) {
        let low = c.lower_to_cnot();
        let opt = peephole::optimize(&c);
        prop_assert!(opt.counts().cnot <= low.counts().cnot);
        prop_assert!(opt.depth_2q() <= low.depth_2q());
        prop_assert_eq!(peephole::optimize(&opt), opt.clone(), "fixpoint");
    }

    /// QASM round-trips the lowered circuit exactly.
    #[test]
    fn qasm_roundtrip(c in arb_circuit(4, 16)) {
        let text = qasm::to_qasm(&c);
        let back = qasm::from_qasm(&text).unwrap();
        prop_assert_eq!(back, c.lower_to_cnot());
    }

    /// Parse → emit is a textual fixpoint: once a circuit has been through
    /// one emit/parse cycle, further cycles reproduce the text verbatim
    /// (angles are emitted with `{:?}`, which round-trips f64 exactly).
    #[test]
    fn qasm_parse_emit_parse_is_a_fixpoint(c in arb_circuit(4, 16)) {
        let text = qasm::to_qasm(&c);
        let once = qasm::from_qasm(&text).unwrap();
        let text2 = qasm::to_qasm(&once);
        prop_assert_eq!(&text, &text2);
        prop_assert_eq!(qasm::from_qasm(&text2).unwrap(), once);
    }

    /// Replacing any single emitted gate statement with garbage yields an
    /// error that names exactly that 1-based line.
    #[test]
    fn qasm_errors_name_the_corrupted_line(
        c in arb_circuit(4, 16),
        pick in 0usize..4096,
        which in 0usize..6,
    ) {
        const GARBAGE: [&str; 6] = [
            "frobnicate q[0];",
            "h q[0]",          // missing semicolon
            "h q[99];",        // out of range
            "rz(nope) q[0];",
            "cx q[0];",        // wrong arity
            "h [0];",          // missing operand list
        ];
        let text = qasm::to_qasm(&c);
        let mut lines: Vec<&str> = text.lines().collect();
        // Lines 1-3 are the header + qreg; only corrupt gate statements.
        prop_assume!(lines.len() > 3);
        let target = 3 + pick % (lines.len() - 3);
        lines[target] = GARBAGE[which];
        let corrupted = lines.join("\n");
        let err = qasm::from_qasm(&corrupted).unwrap_err();
        prop_assert_eq!(err.line(), target + 1, "{}", err);
        prop_assert!(err.to_string().contains(&format!("line {}", target + 1)));
    }

    /// No byte-level mutation of valid output makes the parser panic — it
    /// always returns `Ok` or a line-numbered `Err` within the input.
    #[test]
    fn qasm_parser_never_panics_on_mutated_text(
        c in arb_circuit(3, 10),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = qasm::to_qasm(&c).into_bytes();
        prop_assume!(!bytes.is_empty());
        let at = pos % bytes.len();
        bytes[at] = byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            match qasm::from_qasm(&mutated) {
                Ok(_) => {}
                Err(e) => {
                    let line = e.line();
                    prop_assert!(line >= 1);
                    prop_assert!(line <= mutated.lines().count().max(1));
                }
            }
        }
    }

    /// SU(4) rebase covers every 2Q gate and never stretches 2Q depth.
    #[test]
    fn rebase_bounds(c in arb_circuit(5, 24)) {
        let fused = rebase::to_su4(&c);
        let k = fused.counts();
        prop_assert_eq!(k.cnot + k.swap + k.clifford2 + k.pauli_rot2, 0);
        prop_assert!(k.su4 <= c.counts().two_qubit());
        prop_assert!(fused.depth_2q() <= c.depth_2q());
    }

    /// Chain synthesis emits exactly `2(w−1)` CNOTs and one rotation per
    /// non-trivial term; tree synthesis emits the same CNOT count at lower
    /// or equal depth.
    #[test]
    fn synthesis_costs(p in pauli_string(6), coeff in -1.0f64..1.0) {
        let w = p.weight();
        let mut chain = Circuit::new(6);
        synthesis::append_pauli_rotation(&mut chain, &p, coeff);
        let mut tree = Circuit::new(6);
        synthesis::append_pauli_rotation_tree(&mut tree, &p, coeff, &p.support());
        if w >= 2 {
            prop_assert_eq!(chain.counts().cnot, 2 * (w - 1));
            prop_assert_eq!(tree.counts().cnot, 2 * (w - 1));
            prop_assert!(tree.depth_2q() <= chain.depth_2q());
        } else {
            prop_assert_eq!(chain.counts().cnot, 0);
        }
    }

    /// Depth metrics are consistent: depth_2q ≤ depth, and appending
    /// circuits is depth-subadditive.
    #[test]
    fn depth_consistency(a in arb_circuit(4, 12), b in arb_circuit(4, 12)) {
        prop_assert!(a.depth_2q() <= a.depth());
        let mut joined = a.clone();
        joined.append(&b);
        prop_assert!(joined.depth_2q() <= a.depth_2q() + b.depth_2q());
        prop_assert!(joined.depth_2q() >= a.depth_2q().max(b.depth_2q()));
        prop_assert_eq!(joined.len(), a.len() + b.len());
    }
}
