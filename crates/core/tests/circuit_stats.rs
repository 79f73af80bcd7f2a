//! Differential test: the one-pass `CircuitStats::of` against the three
//! `Circuit` methods it replaced, `counts()`, `depth()` and `depth_2q()`,
//! on random circuits of every gate kind over 1–130 qubits, many of them
//! idle.
//!
//! Run more cases with `PROPTEST_CASES=1024 cargo test --release -p
//! phoenix-core --test circuit_stats`.

use phoenix_circuit::{Circuit, Gate, Su4Block};
use phoenix_core::pass::CircuitStats;
use phoenix_pauli::{Clifford2Q, Pauli, CLIFFORD2Q_GENERATORS};
use proptest::prelude::*;

/// The statistics as the three methods take them.
fn three_passes(c: &Circuit) -> CircuitStats {
    let counts = c.counts();
    CircuitStats {
        gates: counts.total,
        cnot: counts.cnot,
        two_qubit: counts.two_qubit(),
        depth: c.depth(),
        depth_2q: c.depth_2q(),
    }
}

/// A 1Q gate (`kind` 0–8) or a CNOT (`kind` 9) on `a` (and `b`).
fn basic_gate(kind: usize, a: usize, b: usize, theta: f64) -> Gate {
    match kind {
        0 => Gate::H(a),
        1 => Gate::S(a),
        2 => Gate::Sdg(a),
        3 => Gate::X(a),
        4 => Gate::Y(a),
        5 => Gate::Z(a),
        6 => Gate::Rx(a, theta),
        7 => Gate::Ry(a, theta),
        8 => Gate::Rz(a, theta),
        _ => Gate::Cnot(a, b),
    }
}

/// A gate of kind `kind` (0–14) on qubits `a` and `b` of the first `span`
/// qubits; a 2Q kind falls back to a 1Q gate when `span` is 1.
fn gate(span: usize, (kind, a, b, pick, theta): (usize, usize, usize, usize, f64)) -> Gate {
    let a = a % span;
    if span == 1 {
        return basic_gate(kind % 9, a, a, theta);
    }
    let b = (a + 1 + b % (span - 1)) % span;
    match kind {
        0..=9 => basic_gate(kind, a, b, theta),
        10 => Gate::Swap(a, b),
        11 => Gate::Clifford2(Clifford2Q::new(CLIFFORD2Q_GENERATORS[pick % 6], a, b)),
        12 => Gate::PauliRot2 {
            a,
            b,
            pa: Pauli::XYZ[pick % 9 / 3],
            pb: Pauli::XYZ[pick % 3],
            theta,
        },
        _ => Gate::Su4(Box::new(Su4Block {
            a,
            b,
            inner: (0..1 + pick % 5)
                .map(|k| {
                    let (x, y) = if k % 2 == 0 { (a, b) } else { (b, a) };
                    basic_gate((pick + 3 * k) % 10, x, y, theta)
                })
                .collect(),
        })),
    }
}

/// A circuit on `n` qubits (1–130) whose gates touch only the first `span`
/// of them, so the rest idle, and the few gates on a wide register leave
/// most qubits idle too.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        1usize..131,
        0usize..131,
        proptest::collection::vec(
            (
                0usize..15,
                0usize..256,
                0usize..256,
                0usize..64,
                -3.0f64..3.0,
            ),
            0..160,
        ),
    )
        .prop_map(|(n, span, gates)| {
            let span = 1 + span % n;
            Circuit::from_gates(n, gates.into_iter().map(|g| gate(span, g)).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn one_pass_matches_the_three_methods(c in arb_circuit()) {
        prop_assert_eq!(CircuitStats::of(&c), three_passes(&c));
    }
}

#[test]
fn empty_circuits_measure_zero() {
    for n in [0, 1, 130] {
        let c = Circuit::new(n);
        assert_eq!(CircuitStats::of(&c), three_passes(&c));
        assert_eq!(CircuitStats::of(&c).gates, 0);
    }
}

#[test]
fn every_two_qubit_kind_counts_and_layers() {
    let c = Circuit::from_gates(
        4,
        vec![
            Gate::H(0),
            Gate::Cnot(0, 1),
            Gate::Swap(1, 2),
            Gate::Clifford2(Clifford2Q::new(CLIFFORD2Q_GENERATORS[0], 2, 3)),
            Gate::Rz(3, 0.5),
            gate(4, (12, 0, 2, 5, 0.25)),
            gate(4, (13, 1, 1, 7, -0.5)),
        ],
    );
    let stats = CircuitStats::of(&c);
    assert_eq!(stats, three_passes(&c));
    assert_eq!((stats.gates, stats.cnot, stats.two_qubit), (7, 1, 5));
}
