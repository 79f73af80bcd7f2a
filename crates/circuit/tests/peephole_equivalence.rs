//! Differential test: the wire-linked `peephole::optimize` against a
//! test-only copy of the quadratic forward-scan implementation it replaced,
//! fed by a test-only copy of the table-driven CNOT lowering that the
//! library's one expansion replaced. The two must agree bit for bit,
//! angles included, and `Circuit::lower_to_cnot` must match the copied
//! lowering gate for gate.
//!
//! Run more cases with `PROPTEST_CASES=1024 cargo test --release -p
//! phoenix-circuit --test peephole_equivalence`.

use phoenix_circuit::{peephole, Circuit, Gate, Su4Block};
use phoenix_pauli::{Clifford2Q, Pauli, CLIFFORD2Q_GENERATORS};
use proptest::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// The CNOT lowering through static basis-change tables, so the
/// reference does not depend on the library code under test.
mod tables {
    use phoenix_circuit::{Circuit, Gate, Su4Block};
    use phoenix_pauli::Pauli;

    /// `Circuit::lower_to_cnot` through the tables.
    pub fn lower_to_cnot(c: &Circuit) -> Circuit {
        let mut gates = Vec::with_capacity(c.len());
        for g in c.gates() {
            lower_gate(g, &mut |g| gates.push(g));
        }
        Circuit::from_gates(c.num_qubits(), gates)
    }

    /// A basis-change circuit: 1Q gate constructors applied to one qubit.
    type Basis = &'static [fn(usize) -> Gate];

    /// Basis-change circuits used by the lowerings. `pre`/`post` sandwich a
    /// Z-basis (control) or X-basis (target) core.
    fn conj_to_z(p: Pauli) -> (Basis, Basis) {
        match p {
            Pauli::Z => (&[], &[]),
            Pauli::X => (&[Gate::H], &[Gate::H]),
            Pauli::Y => (&[Gate::Sdg, Gate::H], &[Gate::H, Gate::S]),
            Pauli::I => unreachable!("identity needs no basis change"),
        }
    }

    fn conj_to_x(p: Pauli) -> (Basis, Basis) {
        match p {
            Pauli::X => (&[], &[]),
            Pauli::Z => (&[Gate::H], &[Gate::H]),
            // V X V† = Y for V = S: circuit pre = V† = Sdg, post = S.
            Pauli::Y => (&[Gate::Sdg], &[Gate::S]),
            Pauli::I => unreachable!("identity needs no basis change"),
        }
    }

    /// Emits `basis_a` on qubit `a`, then `basis_b` on qubit `b`.
    fn emit_basis(emit: &mut impl FnMut(Gate), a: usize, basis_a: Basis, b: usize, basis_b: Basis) {
        for make in basis_a {
            emit(make(a));
        }
        for make in basis_b {
            emit(make(b));
        }
    }

    fn lower_gate(g: &Gate, emit: &mut impl FnMut(Gate)) {
        match g {
            Gate::Swap(a, b) => {
                emit(Gate::Cnot(*a, *b));
                emit(Gate::Cnot(*b, *a));
                emit(Gate::Cnot(*a, *b));
            }
            Gate::Clifford2(c) => {
                // C(σ₀,σ₁) = (V₀⊗V₁) CNOT (V₀⊗V₁)† where V₀ Z V₀† = σ₀ and
                // V₁ X V₁† = σ₁; circuit order is V† gates, CNOT, V gates.
                let (pre_a, post_a) = conj_to_z(c.kind.sigma0());
                let (pre_b, post_b) = conj_to_x(c.kind.sigma1());
                emit_basis(emit, c.a, pre_a, c.b, pre_b);
                emit(Gate::Cnot(c.a, c.b));
                emit_basis(emit, c.a, post_a, c.b, post_b);
            }
            Gate::PauliRot2 {
                a,
                b,
                pa,
                pb,
                theta,
            } => {
                let (pre_a, post_a) = conj_to_z(*pa);
                let (pre_b, post_b) = conj_to_z(*pb);
                emit_basis(emit, *a, pre_a, *b, pre_b);
                emit(Gate::Cnot(*a, *b));
                emit(Gate::Rz(*b, *theta));
                emit(Gate::Cnot(*a, *b));
                emit_basis(emit, *a, post_a, *b, post_b);
            }
            Gate::Su4(blk) => {
                let Su4Block { inner, .. } = blk.as_ref();
                for g in inner {
                    lower_gate(g, emit);
                }
            }
            other => emit(other.clone()),
        }
    }
}

/// The forward-scan peephole pass: `Vec<Option<Gate>>`, every scan from
/// every gate on every sweep.
mod quadratic {
    use phoenix_circuit::{Circuit, Gate};

    const TWO_PI: f64 = std::f64::consts::TAU;
    const EPS: f64 = 1e-12;

    pub fn optimize(c: &Circuit) -> Circuit {
        let lowered = super::tables::lower_to_cnot(c);
        let mut gates: Vec<Option<Gate>> = lowered
            .gates()
            .iter()
            .map(|g| Some(normalize(g.clone())))
            .collect();
        for _ in 0..64 {
            let mut changed = cancel_cnot_pass(&mut gates);
            changed |= merge_1q_pass(&mut gates);
            if !changed {
                break;
            }
        }
        Circuit::from_gates(lowered.num_qubits(), gates.into_iter().flatten().collect())
    }

    fn normalize(g: Gate) -> Gate {
        use std::f64::consts::{FRAC_PI_2, PI};
        match g {
            Gate::S(q) => Gate::Rz(q, FRAC_PI_2),
            Gate::Sdg(q) => Gate::Rz(q, -FRAC_PI_2),
            Gate::Z(q) => Gate::Rz(q, PI),
            Gate::X(q) => Gate::Rx(q, PI),
            Gate::Y(q) => Gate::Ry(q, PI),
            other => other,
        }
    }

    fn wrap(theta: f64) -> f64 {
        let mut t = theta % TWO_PI;
        if t > std::f64::consts::PI {
            t -= TWO_PI;
        } else if t <= -std::f64::consts::PI {
            t += TWO_PI;
        }
        t
    }

    fn commutes_with_cnot(g: &Gate, a: usize, b: usize) -> bool {
        match *g {
            Gate::Rz(q, _) => q != b,
            Gate::Rx(q, _) => q != a,
            Gate::Cnot(a2, b2) => {
                if a2 == a && b2 == b {
                    false
                } else {
                    a2 != b && b2 != a
                }
            }
            _ => !g.acts_on(a) && !g.acts_on(b),
        }
    }

    fn cancel_cnot_pass(gates: &mut [Option<Gate>]) -> bool {
        let mut changed = false;
        for i in 0..gates.len() {
            let Some(Gate::Cnot(a, b)) = gates[i] else {
                continue;
            };
            let mut j = i + 1;
            while j < gates.len() {
                match &gates[j] {
                    None => {}
                    Some(Gate::Cnot(a2, b2)) if *a2 == a && *b2 == b => {
                        gates[i] = None;
                        gates[j] = None;
                        changed = true;
                        break;
                    }
                    Some(g) if !commutes_with_cnot(g, a, b) => break,
                    Some(_) => {}
                }
                j += 1;
            }
        }
        changed
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Axis {
        X,
        Y,
        Z,
    }

    fn rot_parts(g: &Gate) -> Option<(Axis, usize, f64)> {
        match *g {
            Gate::Rx(q, t) => Some((Axis::X, q, t)),
            Gate::Ry(q, t) => Some((Axis::Y, q, t)),
            Gate::Rz(q, t) => Some((Axis::Z, q, t)),
            _ => None,
        }
    }

    fn make_rot(axis: Axis, q: usize, t: f64) -> Gate {
        match axis {
            Axis::X => Gate::Rx(q, t),
            Axis::Y => Gate::Ry(q, t),
            Axis::Z => Gate::Rz(q, t),
        }
    }

    fn commutes_with_rot(g: &Gate, axis: Axis, q: usize) -> bool {
        if !g.acts_on(q) {
            return true;
        }
        match (axis, g) {
            (Axis::Z, Gate::Cnot(a, _)) => *a == q,
            (Axis::X, Gate::Cnot(_, b)) => *b == q,
            _ => false,
        }
    }

    fn merge_1q_pass(gates: &mut [Option<Gate>]) -> bool {
        let mut changed = false;
        for i in 0..gates.len() {
            let Some(gi) = gates[i].clone() else { continue };
            if let Gate::H(q) = gi {
                let mut j = i + 1;
                while j < gates.len() {
                    match &gates[j] {
                        None => {}
                        Some(Gate::H(q2)) if *q2 == q => {
                            gates[i] = None;
                            gates[j] = None;
                            changed = true;
                            break;
                        }
                        Some(g) if !g.acts_on(q) => {}
                        _ => break,
                    }
                    j += 1;
                }
                continue;
            }
            let Some((axis, q, theta)) = rot_parts(&gi) else {
                continue;
            };
            if wrap(theta).abs() < EPS {
                gates[i] = None;
                changed = true;
                continue;
            }
            let mut j = i + 1;
            while j < gates.len() {
                match &gates[j] {
                    None => {}
                    Some(g) => {
                        if let Some((axis2, q2, theta2)) = rot_parts(g) {
                            if axis2 == axis && q2 == q {
                                let merged = wrap(theta + theta2);
                                gates[j] = None;
                                gates[i] = if merged.abs() < EPS {
                                    None
                                } else {
                                    Some(make_rot(axis, q, merged))
                                };
                                changed = true;
                                break;
                            }
                        }
                        if !commutes_with_rot(g, axis, q) {
                            break;
                        }
                    }
                }
                j += 1;
            }
        }
        changed
    }
}

/// Angles that exercise `wrap` and the identity threshold: generic values,
/// values within a few ulps-to-1e-12 of 0 and ±π, exact multiples of π/2,
/// magnitudes above 2π, and values within 1e-13 of −4π.
fn angle(choice: usize, t: f64) -> f64 {
    match choice {
        0 => 3.5 * t,
        1 => 2e-12 * t,
        2 => PI + 2e-12 * t,
        3 => -PI + 2e-12 * t,
        4 => FRAC_PI_2 * (4.0 * t).round(),
        5 => 7.5f64.copysign(t) + t,
        _ => -2.0 * TAU + 1e-13 * t,
    }
}

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

/// A random gate of any kind. `pick` chooses the Clifford generator (all
/// six) or the `PauliRot2` basis pair (all nine) independently of the
/// angle.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    (
        (0usize..15, 0usize..n, 0usize..n, 0usize..9),
        (0usize..7, -1.0f64..1.0),
        proptest::collection::vec((0usize..10, any::<bool>(), 0usize..7, -1.0f64..1.0), 1..6),
    )
        .prop_filter_map(
            "needs distinct qubits",
            move |((kind, a, b, pick), (choice, t), inner)| {
                if a == b && kind >= 9 {
                    return None;
                }
                let theta = angle(choice, t);
                Some(match kind {
                    0..=9 => basic_gate(kind, a, b, theta),
                    10 => Gate::Swap(a, b),
                    11 => Gate::Clifford2(Clifford2Q::new(CLIFFORD2Q_GENERATORS[pick % 6], a, b)),
                    12 | 13 => Gate::PauliRot2 {
                        a,
                        b,
                        pa: Pauli::XYZ[pick / 3],
                        pb: Pauli::XYZ[pick % 3],
                        theta,
                    },
                    _ => Gate::Su4(Box::new(Su4Block {
                        a,
                        b,
                        inner: inner
                            .into_iter()
                            .map(|(k, flip, c, t)| {
                                let (x, y) = if flip { (b, a) } else { (a, b) };
                                basic_gate(k, x, y, angle(c, t))
                            })
                            .collect(),
                    })),
                })
            },
        )
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 0..max_gates)
        .prop_map(move |gates| Circuit::from_gates(n, gates))
}

/// Bit-exact rendering: `Debug` prints every `f64` in round-trip form and
/// tells `-0.0` from `0.0`.
fn exact(c: &Circuit) -> String {
    format!("{} {:?}", c.num_qubits(), c.gates())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Narrow registers: dense interaction, long cancellation chains.
    #[test]
    fn matches_quadratic_on_narrow_circuits(c in arb_circuit(3, 48)) {
        prop_assert_eq!(exact(&peephole::optimize(&c)), exact(&quadratic::optimize(&c)));
    }

    /// Wider registers: scans pass many commuting gates on other wires.
    #[test]
    fn matches_quadratic_on_wide_circuits(c in arb_circuit(6, 96)) {
        prop_assert_eq!(exact(&peephole::optimize(&c)), exact(&quadratic::optimize(&c)));
    }

    /// The library's expansion emits the tables' gates in the tables' order.
    #[test]
    fn lower_to_cnot_matches_tables(c in arb_circuit(4, 48)) {
        prop_assert_eq!(exact(&c.lower_to_cnot()), exact(&tables::lower_to_cnot(&c)));
    }
}
