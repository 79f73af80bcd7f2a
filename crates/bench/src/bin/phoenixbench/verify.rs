//! The correctness gate: every check takes its reference from
//! `phoenix-verify` or the simulator, never from the compiler's own output.
//!
//! Exact state-vector checks run up to [`STATE_QUBITS`] qubits. Wider
//! circuits fall back to the Clifford-skeleton tier: with every rotation
//! removed, a logical circuit must be the identity and a routed circuit
//! must be the qubit permutation its layouts claim.

use std::collections::BTreeSet;

use phoenix_circuit::{Circuit, Gate};
use phoenix_core::{Device, HardwareProgram};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Pauli, PauliString};
use phoenix_sim::{StabilizerState, State};
use phoenix_verify::engine::{
    check_coupling_legal, check_skeleton_identity, check_states_vs_order, clifford_skeleton,
    Outcome, EPSILON,
};

/// Widest register the exact state-vector checks simulate (1 MiB of
/// amplitudes).
pub const STATE_QUBITS: usize = 16;

/// Maps a verifier outcome onto the gate's verdict. A skipped check counts
/// as a failure: an output the benchmark could not verify is not correct.
fn require(outcome: Outcome, what: &str) -> Result<(), String> {
    match outcome {
        Outcome::Pass(_) => Ok(()),
        Outcome::Fail { detail, .. } => Err(format!("{what}: {detail}")),
        Outcome::Skipped(why) => Err(format!("{what}: not verifiable ({why})")),
    }
}

/// `check(i, item)` for every item, on two threads: verification is
/// untimed, and the state-vector checks dominate a run's wall time.
pub fn in_parallel<T: Sync, R: Send>(items: &[T], check: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let check = &check;
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(2)
                        .map(|(i, item)| (i, check(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, r) in worker.join().expect("verification thread panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item was checked"))
        .collect()
}

/// Whether `a` and `b` hold the same terms with bit-identical coefficients,
/// in any order.
pub fn same_multiset(a: &[(PauliString, f64)], b: &[(PauliString, f64)]) -> bool {
    let key = |terms: &[(PauliString, f64)]| {
        let mut v: Vec<(PauliString, u64)> = terms
            .iter()
            .map(|(p, c)| (p.clone(), c.to_bits()))
            .collect();
        v.sort();
        v
    };
    a.len() == b.len() && key(a) == key(b)
}

/// A logical circuit must implement the Trotter product of `term_order`,
/// and `term_order` must be a reordering of the input `terms`.
pub fn check_logical(
    circuit: &Circuit,
    term_order: &[(PauliString, f64)],
    terms: &[(PauliString, f64)],
    rng: &mut Xoshiro256,
) -> Result<(), String> {
    if !same_multiset(term_order, terms) {
        return Err("emitted term order is not a reordering of the input".to_string());
    }
    if circuit.num_qubits() <= STATE_QUBITS {
        require(
            check_states_vs_order(circuit, term_order, EPSILON, 1, rng),
            "state check",
        )
    } else {
        require(check_skeleton_identity(circuit), "Clifford-skeleton check")
    }
}

/// A routed program must use only device edges and equal its logical
/// snapshot up to the layout permutation; the snapshot itself must
/// implement the input (see [`check_logical`]).
pub fn check_routed(
    hw: &HardwareProgram,
    device: &Device,
    term_order: &[(PauliString, f64)],
    terms: &[(PauliString, f64)],
    rng: &mut Xoshiro256,
) -> Result<(), String> {
    require(
        check_coupling_legal(&hw.circuit, device.graph()),
        "coupling check",
    )?;
    check_logical(&hw.logical, term_order, terms, rng)?;
    // Only the physical qubits the program touches matter; compacting onto
    // them keeps the state-vector tier within reach on wide devices.
    let routed = flatten(&hw.circuit);
    let touched: BTreeSet<usize> = routed
        .gates()
        .iter()
        .flat_map(|g| {
            let (a, b) = g.qubits();
            std::iter::once(a).chain(b)
        })
        .chain(hw.initial_layout.iter().copied())
        .chain(hw.final_layout.iter().copied())
        .collect();
    let index: Vec<usize> = {
        let mut index = vec![usize::MAX; device.graph().num_qubits()];
        for (i, &p) in touched.iter().enumerate() {
            index[p] = i;
        }
        index
    };
    let m = touched.len();
    let routed = routed.map_qubits(m, |p| index[p]);
    let logical = flatten(&hw.logical).map_qubits(m, |l| index[hw.initial_layout[l]]);
    let start: Vec<usize> = hw.initial_layout.iter().map(|&p| index[p]).collect();
    let end: Vec<usize> = hw.final_layout.iter().map(|&p| index[p]).collect();
    if m <= STATE_QUBITS {
        routed_state_check(&routed, &logical, &start, &end, rng)
    } else {
        routed_skeleton_check(&routed, &start, &end)
    }
}

/// Replaces every SU(4) block by the gates it fuses.
fn flatten(c: &Circuit) -> Circuit {
    let mut gates = Vec::with_capacity(c.len());
    for g in c.gates() {
        match g {
            Gate::Su4(block) => gates.extend(block.inner.iter().cloned()),
            other => gates.push(other.clone()),
        }
    }
    Circuit::from_gates(c.num_qubits(), gates)
}

/// Routed and logical circuits (both on the compacted register, the
/// logical one placed at the initial layout) must map a random product
/// state on the logical qubits, with every other qubit in |0⟩, to the same
/// state once the logical result is moved from `start` to `end`.
fn routed_state_check(
    routed: &Circuit,
    logical: &Circuit,
    start: &[usize],
    end: &[usize],
    rng: &mut Xoshiro256,
) -> Result<(), String> {
    let m = routed.num_qubits();
    let mut prep = Circuit::new(m);
    for &q in start {
        prep.push(Gate::Ry(q, rng.next_range_f64(0.0, std::f64::consts::PI)));
        prep.push(Gate::Rz(q, rng.next_range_f64(0.0, std::f64::consts::TAU)));
    }
    let input = State::zero(m).evolved(&prep);
    let mut expected = logical.clone();
    expected.append(&permutation_swaps(m, start, end));
    let fidelity = input.evolved(routed).fidelity(&input.evolved(&expected));
    if 1.0 - fidelity > EPSILON {
        return Err(format!(
            "routed state check: infidelity {:.3e} against the logical snapshot",
            1.0 - fidelity
        ));
    }
    Ok(())
}

/// SWAPs moving the content of qubit `start[l]` to `end[l]` for every
/// logical `l`; qubits outside the layout fill the remaining positions in
/// order (they hold |0⟩ in [`routed_state_check`], so their order is moot).
fn permutation_swaps(m: usize, start: &[usize], end: &[usize]) -> Circuit {
    let mut target = vec![usize::MAX; m];
    for (&s, &e) in start.iter().zip(end) {
        target[s] = e;
    }
    let used: BTreeSet<usize> = end.iter().copied().collect();
    let mut free = (0..m).filter(|q| !used.contains(q));
    for t in target.iter_mut().filter(|t| **t == usize::MAX) {
        *t = free.next().expect("as many free targets as free sources");
    }
    // `held[p]` is the source whose content currently sits at `p`.
    let mut held: Vec<usize> = (0..m).collect();
    let mut c = Circuit::new(m);
    for p in 0..m {
        let want = (0..m)
            .find(|&s| target[s] == p)
            .expect("target is a permutation");
        let at = held
            .iter()
            .position(|&s| s == want)
            .expect("every source is held somewhere");
        if at != p {
            c.push(Gate::Swap(p, at));
            held.swap(p, at);
        }
    }
    c
}

/// The Clifford-skeleton tier for routed circuits: with every rotation
/// removed, the routed circuit must conjugate each `X_p`/`Z_p` to
/// `+X_π(p)`/`+Z_π(p)` for a permutation `π` sending `start[l]` to
/// `end[l]`. (The logical skeleton is the identity, see
/// [`check_logical`].)
fn routed_skeleton_check(routed: &Circuit, start: &[usize], end: &[usize]) -> Result<(), String> {
    let m = routed.num_qubits();
    let mut gens = Vec::with_capacity(2 * m);
    for q in 0..m {
        gens.push((PauliString::single(m, q, Pauli::X), 1));
        gens.push((PauliString::single(m, q, Pauli::Z), 1));
    }
    let mut tableau = StabilizerState::from_generators(m, gens);
    tableau
        .apply_circuit(&clifford_skeleton(routed))
        .map_err(|e| format!("routed skeleton is not Clifford: {e}"))?;
    let image = |k: usize, axis: Pauli| -> Option<usize> {
        let (p, sign) = &tableau.generators()[k];
        let support = p.support();
        (*sign == 1 && support.len() == 1 && p.get(support[0]) == axis).then(|| support[0])
    };
    for (l, (&s, &e)) in start.iter().zip(end).enumerate() {
        let x = image(2 * s, Pauli::X);
        let z = image(2 * s + 1, Pauli::Z);
        if x != Some(e) || z != Some(e) {
            return Err(format!(
                "routed skeleton moves logical {l} to {x:?}/{z:?}, layouts say {e}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_swaps_move_each_logical_to_its_final_place() {
        // Logical 0: 2 → 0, logical 1: 0 → 3; qubits 1 and 3 are ancillas.
        let swaps = permutation_swaps(4, &[2, 0], &[0, 3]);
        let mut held: Vec<usize> = (0..4).collect();
        for g in swaps.gates() {
            let Gate::Swap(a, b) = g else {
                panic!("only swaps expected")
            };
            held.swap(*a, *b);
        }
        assert_eq!(held[0], 2);
        assert_eq!(held[3], 0);
    }

    #[test]
    fn multiset_ignores_order_but_not_coefficients() {
        let t = |s: &str, c: f64| (s.parse::<PauliString>().expect("pauli"), c);
        let a = vec![t("XY", 0.1), t("ZZ", 0.2)];
        let b = vec![t("ZZ", 0.2), t("XY", 0.1)];
        assert!(same_multiset(&a, &b));
        assert!(!same_multiset(&a, &[t("ZZ", 0.2), t("XY", 0.100000001)]));
        assert!(!same_multiset(&a, &a[..1]));
    }
}
