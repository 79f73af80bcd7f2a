//! The three-tier equivalence engine.
//!
//! - **Tier 1 — exact unitary equivalence** (dense, `n ≤ ~10`): a compiled
//!   circuit with a known implemented term order must match the exact
//!   Trotter product of that order up to global phase to `~10⁻⁹`
//!   infidelity; a circuit with an *unknown* order must match the
//!   reference order within the Trotter-reorder tolerance (see
//!   [`reorder_tolerance`]).
//! - **Tier 2 — stabilizer-tableau equivalence** (any `n`): two Clifford
//!   circuits are equal up to global phase iff they conjugate every `Xᵢ`
//!   and `Zᵢ` to the same signed Pauli; and the *Clifford skeleton* of a
//!   gadget-style compiled circuit (all rotation angles zeroed) must be
//!   the identity, because rotations sit inside Clifford conjugation nests
//!   `V† R V` that cancel when `R → I`.
//! - **Tier 3 — observable spot checks** (state-vector, `n ≤ 24`): random
//!   product states evolved through the circuit must match term-wise
//!   Trotter evolution to high fidelity.

use phoenix_circuit::{Circuit, Gate, Su4Block};
use phoenix_mathkit::{CMatrix, Xoshiro256};
use phoenix_pauli::{Pauli, PauliString};
use phoenix_sim::{circuit_unitary, infidelity, trotter_unitary, StabilizerState, State};

/// Numerical floor added to every derived tolerance (absorbs dense-algebra
/// round-off across deep circuits, KAK resynthesis included).
pub const EPSILON: f64 = 1e-7;

/// Infidelity ceiling for *exact* equivalences (same implemented order).
pub const EXACT_TOL: f64 = 1e-9;

/// First-order Trotter bound `B = Σ_{i<j, non-commuting} |cᵢcⱼ|`: the
/// spectral distance between any two orderings of the product
/// `Π exp(−icⱼPⱼ)` (and between either ordering and `exp(−iH)`) is at most
/// `2B` (each non-commuting pair contributes `|[cᵢPᵢ, cⱼPⱼ]| ≤ 2|cᵢcⱼ|`).
pub fn trotter_bound(terms: &[(PauliString, f64)]) -> f64 {
    let mut b = 0.0;
    for (i, (pi, ci)) in terms.iter().enumerate() {
        for (pj, cj) in &terms[i + 1..] {
            if !pi.commutes(pj) {
                b += (ci * cj).abs();
            }
        }
    }
    b
}

/// Infidelity tolerance for comparing two legitimate orderings of the same
/// Trotter product. The skew `E` in `U†V = exp(iE)` has `‖E‖ ≤ 2B`, and
/// `1 − |Tr exp(iE)|/N` is second order in `E`, bounded by `‖E‖²/2 = 2B²`;
/// a 4× headroom factor plus [`EPSILON`] absorbs constants and round-off.
/// With the generator's tiny coefficients this sits well below the `c²/2`
/// signal of a single miscompiled term (see `gen` module docs).
pub fn reorder_tolerance(terms: &[(PauliString, f64)]) -> f64 {
    let b = trotter_bound(terms);
    8.0 * b * b + EPSILON
}

/// One equivalence-check outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The check ran and held; the metric is the measured deviation.
    Pass(f64),
    /// The check ran and failed.
    Fail {
        /// Measured deviation (infidelity, 1 − fidelity, …), when numeric.
        metric: f64,
        /// What went wrong.
        detail: String,
    },
    /// The check did not apply (too many qubits, non-Clifford gates, …).
    Skipped(String),
}

impl Outcome {
    /// Whether this outcome is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail { .. })
    }

    fn from_metric(metric: f64, tol: f64, what: &str) -> Outcome {
        if metric <= tol {
            Outcome::Pass(metric)
        } else {
            Outcome::Fail {
                metric,
                detail: format!("{what}: {metric:.3e} exceeds tolerance {tol:.3e}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tier 1: dense unitary equivalence
// ---------------------------------------------------------------------------

/// Tier 1, exact: the circuit must implement the Trotter product of
/// `term_order` (its *own* implemented order) up to global phase.
pub fn check_exact_unitary(c: &Circuit, term_order: &[(PauliString, f64)]) -> Outcome {
    let n = c.num_qubits();
    let infid = infidelity(&circuit_unitary(c), &trotter_unitary(n, term_order));
    Outcome::from_metric(infid, EXACT_TOL, "exact unitary infidelity")
}

/// Tier 1, reorder-tolerant: the circuit implements *some* ordering of
/// `terms`, so it must match the reference (input-order) Trotter product
/// within [`reorder_tolerance`].
pub fn check_unitary_vs_reference(c: &Circuit, terms: &[(PauliString, f64)]) -> Outcome {
    let n = c.num_qubits();
    let infid = infidelity(&circuit_unitary(c), &trotter_unitary(n, terms));
    Outcome::from_metric(infid, reorder_tolerance(terms), "reference infidelity")
}

/// Tier 1, pairwise: two compiled circuits for the same program must agree
/// within twice the reorder tolerance (each is within one tolerance of the
/// reference).
pub fn check_unitary_pair(a: &CMatrix, b: &CMatrix, terms: &[(PauliString, f64)]) -> Outcome {
    let infid = infidelity(a, b);
    Outcome::from_metric(infid, 2.0 * reorder_tolerance(terms), "pairwise infidelity")
}

// ---------------------------------------------------------------------------
// Tier 2: stabilizer-tableau equivalence
// ---------------------------------------------------------------------------

/// Strips every parameterized rotation from a circuit, keeping the Clifford
/// scaffolding (SU(4) blocks are flattened to the skeletons of their inner
/// sequences).
pub fn clifford_skeleton(c: &Circuit) -> Circuit {
    fn keep(g: &Gate, out: &mut Vec<Gate>) {
        match g {
            Gate::Rx(..) | Gate::Ry(..) | Gate::Rz(..) | Gate::PauliRot2 { .. } => {}
            Gate::Su4(blk) => {
                let mut inner = Vec::new();
                for ig in &blk.inner {
                    keep(ig, &mut inner);
                }
                if !inner.is_empty() {
                    out.push(Gate::Su4(Box::new(Su4Block {
                        a: blk.a,
                        b: blk.b,
                        inner,
                    })));
                }
            }
            other => out.push(other.clone()),
        }
    }
    let mut gates = Vec::new();
    for g in c.gates() {
        keep(g, &mut gates);
    }
    Circuit::from_gates(c.num_qubits(), gates)
}

/// Conjugates `Xᵢ` and `Zᵢ` for every `i` through a Clifford circuit,
/// returning the 2n signed images, or `None` if a non-Clifford gate occurs.
fn tableau_images(c: &Circuit) -> Option<Vec<(PauliString, i8)>> {
    let n = c.num_qubits();
    let mut gens = Vec::with_capacity(2 * n);
    for q in 0..n {
        gens.push((PauliString::single(n, q, Pauli::X), 1));
        gens.push((PauliString::single(n, q, Pauli::Z), 1));
    }
    let mut s = StabilizerState::from_generators(n, gens);
    s.apply_circuit(c).ok()?;
    Some(s.generators().to_vec())
}

/// Tier 2: Clifford-circuit equivalence up to global phase, at any width.
/// Skipped if either circuit contains a non-Clifford gate.
pub fn check_clifford_equivalent(a: &Circuit, b: &Circuit) -> Outcome {
    if a.num_qubits() != b.num_qubits() {
        return Outcome::Fail {
            metric: f64::NAN,
            detail: format!(
                "width mismatch: {} vs {} qubits",
                a.num_qubits(),
                b.num_qubits()
            ),
        };
    }
    let (Some(ia), Some(ib)) = (tableau_images(a), tableau_images(b)) else {
        return Outcome::Skipped("non-Clifford gate".to_string());
    };
    for (k, (ga, gb)) in ia.iter().zip(&ib).enumerate() {
        if ga != gb {
            let (q, axis) = (k / 2, if k % 2 == 0 { "X" } else { "Z" });
            return Outcome::Fail {
                metric: f64::NAN,
                detail: format!(
                    "conjugation of {axis}{q} differs: {}{} vs {}{}",
                    if ga.1 < 0 { "-" } else { "+" },
                    ga.0,
                    if gb.1 < 0 { "-" } else { "+" },
                    gb.0
                ),
            };
        }
    }
    Outcome::Pass(0.0)
}

/// Tier 2: the Clifford skeleton of a gadget-style compiled circuit must be
/// the identity. Applies to *unoptimized* compiler outputs (PHOENIX's
/// high-level circuit and the baselines' raw CNOT gadget circuits), whose
/// rotations all sit inside cancelling Clifford nests. Scales to any width.
pub fn check_skeleton_identity(c: &Circuit) -> Outcome {
    let skeleton = clifford_skeleton(c);
    match check_clifford_equivalent(&skeleton, &Circuit::new(c.num_qubits())) {
        Outcome::Pass(m) => Outcome::Pass(m),
        Outcome::Fail { detail, metric } => Outcome::Fail {
            metric,
            detail: format!("Clifford skeleton is not the identity: {detail}"),
        },
        Outcome::Skipped(why) => Outcome::Skipped(why),
    }
}

// ---------------------------------------------------------------------------
// Tier 3: observable / state spot checks
// ---------------------------------------------------------------------------

/// Tier 3: evolves `num_states` random product states through the circuit
/// and through term-wise Trotter evolution of `reference_order`, requiring
/// state infidelity `1 − F ≤ tol` on each. Scales to the state-vector
/// limit (24 qubits). The RNG makes the check reproducible.
pub fn check_states_vs_order(
    c: &Circuit,
    reference_order: &[(PauliString, f64)],
    tol: f64,
    num_states: usize,
    rng: &mut Xoshiro256,
) -> Outcome {
    let n = c.num_qubits();
    let mut worst = 0.0f64;
    for k in 0..num_states {
        let base = State::random_product(n, rng);
        let through_circuit = base.evolved(c);
        let mut through_terms = base;
        for (p, coeff) in reference_order {
            // Term `c·P` contributes `exp(−icP)` to the Trotter product.
            through_terms.apply_pauli_exp(p, *coeff);
        }
        let deviation = 1.0 - through_circuit.fidelity(&through_terms);
        worst = worst.max(deviation);
        if deviation > tol {
            return Outcome::Fail {
                metric: deviation,
                detail: format!(
                    "state {k}: infidelity {deviation:.3e} exceeds tolerance {tol:.3e}"
                ),
            };
        }
    }
    Outcome::Pass(worst)
}

// ---------------------------------------------------------------------------
// Routed (permutation-aware) equivalence
// ---------------------------------------------------------------------------

/// Permutation-aware equivalence of a routed circuit against its logical
/// snapshot: `routed · embed(logical, initial_layout)†` must be a basis
/// permutation induced by a qubit permutation `π` with
/// `π(initial_layout[l]) = final_layout[l]` for every logical qubit `l`.
/// Dense — the *device* width must be within reach (`n_phys ≤ ~10`).
pub fn check_routed_equivalence(
    routed: &Circuit,
    logical: &Circuit,
    initial_layout: &[usize],
    final_layout: &[usize],
) -> Outcome {
    let n_phys = routed.num_qubits();
    let embedded = logical.map_qubits(n_phys, |q| initial_layout[q]);
    let d = circuit_unitary(routed).matmul(&circuit_unitary(&embedded).dagger());
    let pi = match phoenix_core::verify::decode_qubit_permutation(&d, n_phys, 1e-6) {
        Ok(pi) => pi,
        Err(why) => {
            return Outcome::Fail {
                metric: f64::NAN,
                detail: format!("routed circuit is not permutation-equivalent: {why}"),
            }
        }
    };
    for (l, (&p0, &pf)) in initial_layout.iter().zip(final_layout).enumerate() {
        if pi[p0] != pf {
            return Outcome::Fail {
                metric: f64::NAN,
                detail: format!(
                    "permutation sends logical {l} to physical {} but final layout says {pf}",
                    pi[p0]
                ),
            };
        }
    }
    Outcome::Pass(0.0)
}

/// Coupling-legality of a routed circuit: every 2Q gate must lie on a
/// device edge. Structural, any width.
pub fn check_coupling_legal(c: &Circuit, device: &phoenix_topology::CouplingGraph) -> Outcome {
    for g in c.gates() {
        if let (a, Some(b)) = g.qubits() {
            if !device.contains_edge(a, b) {
                return Outcome::Fail {
                    metric: f64::NAN,
                    detail: format!("gate {g} is not on a device edge"),
                };
            }
        }
    }
    Outcome::Pass(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_core::CompileRequest;

    fn ps(l: &str) -> PauliString {
        l.parse().unwrap()
    }

    #[test]
    fn trotter_bound_counts_noncommuting_pairs() {
        let terms = vec![(ps("XX"), 0.1), (ps("ZI"), 0.2), (ps("ZZ"), 0.3)];
        // XX anti-commutes with ZI (one clashing site) but commutes with
        // ZZ (two clashing sites cancel); ZI commutes with ZZ.
        assert!((trotter_bound(&terms) - 0.02).abs() < 1e-15);
    }

    #[test]
    fn exact_check_accepts_phoenix_and_rejects_corruption() {
        let terms = vec![(ps("ZYY"), 1.5e-3), (ps("XZY"), -1.1e-3), (ps("YIZ"), 2e-3)];
        let out = CompileRequest::new(3, &terms).run().unwrap();
        assert!(matches!(
            check_exact_unitary(&out.circuit, &out.term_order),
            Outcome::Pass(_)
        ));
        let mut bad = out.circuit.clone();
        bad.push(Gate::Rz(0, 0.004)); // a stray rotation the size of a term
        assert!(check_exact_unitary(&bad, &out.term_order).is_fail());
    }

    #[test]
    fn skeleton_of_phoenix_output_is_identity() {
        let terms = vec![(ps("ZYY"), 1.5e-3), (ps("ZZY"), -1.1e-3), (ps("XYY"), 2e-3)];
        let out = CompileRequest::new(3, &terms).run().unwrap();
        assert!(matches!(
            check_skeleton_identity(&out.circuit),
            Outcome::Pass(_)
        ));
        let cnot = phoenix_baselines::Baseline::Naive.compile_logical(3, &terms);
        assert!(matches!(check_skeleton_identity(&cnot), Outcome::Pass(_)));
    }

    #[test]
    fn skeleton_check_catches_an_unbalanced_clifford() {
        let terms = vec![(ps("ZYY"), 1.5e-3), (ps("XYY"), 2e-3)];
        let mut c = phoenix_baselines::Baseline::Naive.compile_logical(3, &terms);
        c.push(Gate::Cnot(0, 1)); // dangling Clifford
        assert!(check_skeleton_identity(&c).is_fail());
    }

    #[test]
    fn state_check_matches_unitary_check() {
        let terms = vec![(ps("XXI"), 1.5e-3), (ps("IZZ"), -1.8e-3), (ps("YXZ"), 1e-3)];
        let out = CompileRequest::new(3, &terms).run().unwrap();
        let mut rng = Xoshiro256::seed_from_u64(5);
        assert!(matches!(
            check_states_vs_order(&out.circuit, &out.term_order, 1e-9, 4, &mut rng),
            Outcome::Pass(_)
        ));
        let mut bad = out.circuit;
        bad.push(Gate::Rx(1, 0.004));
        assert!(check_states_vs_order(&bad, &out.term_order, 1e-9, 4, &mut rng).is_fail());
    }

    #[test]
    fn clifford_equivalence_sees_through_gate_sets() {
        // CNOT expressed two ways.
        let mut a = Circuit::new(2);
        a.push(Gate::Cnot(0, 1));
        let mut b = Circuit::new(2);
        b.push(Gate::H(1));
        b.push(Gate::H(0));
        b.push(Gate::Cnot(1, 0));
        b.push(Gate::H(0));
        b.push(Gate::H(1));
        assert!(matches!(
            check_clifford_equivalent(&a, &b),
            Outcome::Pass(_)
        ));
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(1, 0));
        assert!(check_clifford_equivalent(&a, &c).is_fail());
    }
}
