//! Pass-boundary translation validation.
//!
//! [`BoundaryVerifier`] is a [`PassObserver`] that re-validates the
//! [`CompileContext`] after every executed pass, so a miscompilation is
//! pinned to the exact pass that introduced it instead of surfacing as an
//! end-to-end mismatch. It is attached by setting
//! [`PhoenixOptions::verify`](crate::PhoenixOptions) (the `--verify` flag of
//! the experiment binaries) and records one `verified` [`TraceEvent`] per
//! accepted boundary.
//!
//! What is checked where:
//!
//! | boundary | invariant |
//! |---|---|
//! | `group` | groups partition the input terms |
//! | `simplify-synth` / `naive-synth` | each subcircuit acts only on its group's support and ≡ exact Trotter product of the group's emitted terms there (dense, support `≤ MAX_DENSE_QUBITS`) |
//! | `tetris-order` / `program-order` | the order is a permutation of the groups |
//! | `concat` | working circuit ≡ exact Trotter product of `term_order`; `term_order` is a permutation of the input |
//! | circuit rewrites (`peephole`, `su4-rebase`, `kak-resynthesis`, pre-routing `cnot-lower`) | unitary unchanged up to global phase |
//! | `layout-route`, post-routing `cnot-lower` | routed circuit ≡ qubit-permutation ∘ embedded logical circuit, with the permutation matching SABRE's initial→final layouts |
//!
//! Dense checks are skipped (not failed) above [`MAX_DENSE_QUBITS`]
//! qubits: of a group's support at stage 2, of the program or the device
//! elsewhere. The structural checks run at any size.
//!
//! [`TraceEvent`]: crate::pass::TraceEvent
//! [`PassObserver`]: crate::pass::PassObserver

use std::sync::Mutex;

use phoenix_mathkit::CMatrix;
use phoenix_pauli::{PauliString, QubitMask};
use phoenix_sim::{circuit_unitary, infidelity, trotter_unitary};

use crate::pass::{CompileContext, PassError, PassObserver};

/// Dense-simulation ceiling, the paper's "standard PC" regime: dense
/// unitary checks are skipped for stage-2 group supports, programs or
/// devices wider than this (structural checks still run).
pub const MAX_DENSE_QUBITS: usize = 10;

/// Infidelity tolerance (`1 − |Tr(U†V)|/N`) for exact
/// (up-to-global-phase) equivalence checks.
pub const TOLERANCE: f64 = 1e-9;

/// A [`PassObserver`] that validates semantic invariants at every pass
/// boundary (see the module docs for the per-pass table).
#[derive(Debug, Default)]
pub struct BoundaryVerifier {
    /// Unitary snapshot carried across circuit-level rewrites.
    prev: Mutex<Option<CMatrix>>,
}

/// Canonical multiset key of a term list (coefficients quantized well below
/// any meaningful tolerance). Identity terms are excluded — they are pure
/// global phase and the grouping stage legitimately drops them.
fn term_multiset(terms: &[(PauliString, f64)]) -> Vec<(QubitMask, QubitMask, i64)> {
    let mut v: Vec<_> = terms
        .iter()
        .filter(|(p, _)| !p.is_identity())
        .map(|(p, c)| {
            (
                p.x_mask().clone(),
                p.z_mask().clone(),
                (c * 1e12).round() as i64,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// Decodes a basis-state permutation matrix `d` (up to global phase) into
/// the qubit permutation `π` that induces it, or explains why it is not
/// one. This is the workhorse of permutation-aware routed-circuit
/// equivalence: for a correctly routed circuit `R` with embedded logical
/// circuit `L`, `R·L†` must decode, and the decoded `π` must map the
/// initial layout to the final layout.
pub fn decode_qubit_permutation(d: &CMatrix, n: usize, tol: f64) -> Result<Vec<usize>, String> {
    let dim = 1usize << n;
    // Column j must hold exactly one entry of unit magnitude, all columns
    // sharing one global phase.
    let mut sigma = vec![0usize; dim];
    let mut phase = None;
    for j in 0..dim {
        let mut hit = None;
        for i in 0..dim {
            let mag = d[(i, j)].norm_sqr().sqrt();
            if mag > 0.5 {
                if hit.is_some() {
                    return Err(format!("column {j} has multiple large entries"));
                }
                if (mag - 1.0).abs() > tol {
                    return Err(format!("column {j} entry has magnitude {mag}"));
                }
                hit = Some(i);
            } else if mag > tol {
                return Err(format!("column {j} has residual entry of magnitude {mag}"));
            }
        }
        let i = hit.ok_or_else(|| format!("column {j} is numerically zero"))?;
        sigma[j] = i;
        let p = d[(i, j)];
        match phase {
            None => phase = Some(p),
            Some(q) => {
                if (p - q).norm_sqr().sqrt() > tol {
                    return Err(format!("column {j} carries a relative phase"));
                }
            }
        }
    }
    // σ must be induced by a qubit permutation: σ(b) = ⊕ over set bits of
    // σ(1<<q), with σ(0) = 0 and each σ(1<<q) a distinct power of two.
    if sigma[0] != 0 {
        return Err("permutation does not fix |0…0⟩".to_string());
    }
    let mut pi = vec![0usize; n];
    for (q, slot) in pi.iter_mut().enumerate() {
        let img = sigma[1 << q];
        if !img.is_power_of_two() {
            return Err(format!("basis image of qubit {q} is not a single bit"));
        }
        *slot = img.trailing_zeros() as usize;
    }
    for (b, &img) in sigma.iter().enumerate() {
        let mut want = 0usize;
        for (q, &pq) in pi.iter().enumerate() {
            if b >> q & 1 == 1 {
                want |= 1 << pq;
            }
        }
        if img != want {
            return Err(format!("index map is not bit-wise at basis state {b}"));
        }
    }
    Ok(pi)
}

impl BoundaryVerifier {
    fn fail(&self, pass: &str, msg: impl Into<String>) -> PassError {
        PassError::new(
            pass,
            format!("translation validation failed: {}", msg.into()),
        )
    }

    fn check_groups(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        let grouped: Vec<(PauliString, f64)> = ctx
            .groups
            .iter()
            .flat_map(|g| g.terms().iter().cloned())
            .collect();
        if term_multiset(&grouped) != term_multiset(&ctx.terms) {
            return Err(self.fail(pass, "groups do not partition the input terms"));
        }
        Ok(())
    }

    /// Each group's emitted terms permute its input, and its subcircuit,
    /// relabelled onto the group's support, is the Trotter product of those
    /// terms restricted to it (grouping puts every term of a group on
    /// exactly its support). A gate off the support fails; the dense check
    /// runs on supports of at most [`MAX_DENSE_QUBITS`] qubits, however
    /// wide the program.
    fn check_stage2(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        if ctx.subcircuits.len() != ctx.groups.len() {
            return Err(self.fail(pass, "subcircuit count differs from group count"));
        }
        let groups = ctx
            .groups
            .iter()
            .zip(&ctx.group_terms)
            .zip(&ctx.subcircuits);
        for (i, ((group, terms), sub)) in groups.enumerate() {
            if term_multiset(terms) != term_multiset(group.terms()) {
                return Err(self.fail(
                    pass,
                    format!("group {i} emitted terms that are not a permutation of its input"),
                ));
            }
            let support = group.support();
            let mut rank = vec![None; ctx.num_qubits];
            for (r, &q) in support.iter().enumerate() {
                rank[q] = Some(r);
            }
            let on = |q: usize| rank.get(q).is_some_and(Option::is_some);
            let gates_on = sub.gates().iter().all(|g| {
                let (a, b) = g.qubits();
                on(a) && b.is_none_or(on)
            });
            if !gates_on {
                return Err(self.fail(
                    pass,
                    format!("group {i} acts outside its support {support:?}"),
                ));
            }
            if support.len() > MAX_DENSE_QUBITS {
                continue;
            }
            let relabelled =
                sub.map_qubits(support.len(), |q| rank[q].expect("checked on support"));
            let local: Vec<(PauliString, f64)> = terms
                .iter()
                .map(|(p, c)| (p.restrict(&support), *c))
                .collect();
            let infid = infidelity(
                &circuit_unitary(&relabelled),
                &trotter_unitary(support.len(), &local),
            );
            if infid > TOLERANCE {
                return Err(self.fail(
                    pass,
                    format!("group {i} subcircuit deviates from its Trotter product (infidelity {infid:.3e})"),
                ));
            }
        }
        Ok(())
    }

    fn check_order(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        let mut seen = vec![false; ctx.subcircuits.len()];
        for &i in &ctx.order {
            if i >= seen.len() || seen[i] {
                return Err(self.fail(pass, "order is not a permutation of the groups"));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(self.fail(pass, "order drops at least one group"));
        }
        Ok(())
    }

    fn check_concat(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        if term_multiset(&ctx.term_order) != term_multiset(&ctx.terms) {
            return Err(self.fail(pass, "term_order is not a permutation of the input terms"));
        }
        if ctx.num_qubits > MAX_DENSE_QUBITS {
            return Ok(());
        }
        let u = circuit_unitary(&ctx.circuit);
        let infid = infidelity(&u, &trotter_unitary(ctx.num_qubits, &ctx.term_order));
        if infid > TOLERANCE {
            return Err(self.fail(
                pass,
                format!("assembled circuit deviates from the Trotter product of term_order (infidelity {infid:.3e})"),
            ));
        }
        *self.prev.lock().expect("verifier mutex") = Some(u);
        Ok(())
    }

    /// A logical (pre-routing) circuit rewrite: the unitary must be
    /// preserved up to global phase against the running snapshot — or, with
    /// no snapshot yet, against the Trotter reference (or recorded as the
    /// first snapshot when the context started from a bare circuit).
    fn check_rewrite(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        if ctx.num_qubits > MAX_DENSE_QUBITS {
            return Ok(());
        }
        let u = circuit_unitary(&ctx.circuit);
        let mut prev = self.prev.lock().expect("verifier mutex");
        let infid = match prev.as_ref() {
            Some(reference) => infidelity(&u, reference),
            None if !ctx.term_order.is_empty() || ctx.terms.is_empty() => {
                infidelity(&u, &trotter_unitary(ctx.num_qubits, &ctx.term_order))
            }
            // A from_circuit context before any reference exists: adopt the
            // current unitary as the baseline for later rewrites.
            None => 0.0,
        };
        if infid > TOLERANCE {
            return Err(self.fail(
                pass,
                format!("rewrite changed the circuit unitary (infidelity {infid:.3e})"),
            ));
        }
        *prev = Some(u);
        Ok(())
    }

    /// A routed (physical-indexed) circuit: it must equal a qubit
    /// permutation composed with the logical snapshot embedded at the
    /// initial layout, and that permutation must relocate every logical
    /// qubit from its initial to its final physical position.
    fn check_routed(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        let device = ctx
            .device
            .as_ref()
            .ok_or_else(|| self.fail(pass, "routed circuit with no device in context"))?;
        let logical = ctx
            .logical
            .as_ref()
            .ok_or_else(|| self.fail(pass, "routed circuit with no logical snapshot"))?;
        let initial = ctx
            .initial_layout
            .as_ref()
            .ok_or_else(|| self.fail(pass, "routing did not record its initial layout"))?;
        let fin = ctx
            .final_layout
            .as_ref()
            .ok_or_else(|| self.fail(pass, "routing did not record its final layout"))?;
        let n_phys = device.num_qubits();
        if n_phys > MAX_DENSE_QUBITS {
            return Ok(());
        }
        let embedded = logical.map_qubits(n_phys, |q| initial[q]);
        let d = circuit_unitary(&ctx.circuit).matmul(&circuit_unitary(&embedded).dagger());
        let pi = decode_qubit_permutation(&d, n_phys, 1e-6)
            .map_err(|why| self.fail(pass, format!("routed ≠ permutation ∘ logical: {why}")))?;
        for (l, (&p0, &pf)) in initial.iter().zip(fin).enumerate() {
            if pi[p0] != pf {
                return Err(self.fail(
                    pass,
                    format!(
                        "routing permutation moves logical {l} from physical {p0} to {} but the final layout says {pf}",
                        pi[p0]
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl PassObserver for BoundaryVerifier {
    fn name(&self) -> &str {
        "boundary-verifier"
    }

    fn after_pass(&self, pass: &str, ctx: &CompileContext) -> Result<(), PassError> {
        match pass {
            "group" => self.check_groups(pass, ctx),
            "simplify-synth" | "naive-synth" => self.check_stage2(pass, ctx),
            "tetris-order" | "program-order" => self.check_order(pass, ctx),
            "concat" => self.check_concat(pass, ctx),
            // The anytime pass leaves the context in post-concat shape
            // (best-so-far subcircuits, order, assembled circuit), so every
            // stage-2/order/concat invariant applies to its snapshot.
            "anytime-deepen" => {
                self.check_stage2(pass, ctx)?;
                self.check_order(pass, ctx)?;
                self.check_concat(pass, ctx)
            }
            // `cnot-lower` appears both pre-routing (logical lowering) and
            // post-routing (SWAP lowering); the recorded final layout
            // disambiguates.
            "peephole" | "su4-rebase" | "kak-resynthesis" | "cnot-lower"
                if ctx.final_layout.is_none() =>
            {
                self.check_rewrite(pass, ctx)
            }
            "layout-route" | "cnot-lower" | "peephole" if ctx.final_layout.is_some() => {
                self.check_routed(pass, ctx)
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pass::{Pass, PassManager};
    use crate::passes::{GroupPass, SimplifySynthPass};
    use phoenix_circuit::{Circuit, Gate};
    use std::sync::Arc;

    #[test]
    fn decodes_a_swap_permutation() {
        let mut c = Circuit::new(3);
        c.push(Gate::Swap(0, 2));
        let d = circuit_unitary(&c);
        assert_eq!(
            decode_qubit_permutation(&d, 3, 1e-9).unwrap(),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn rejects_a_non_permutation() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        let d = circuit_unitary(&c);
        assert!(decode_qubit_permutation(&d, 2, 1e-9).is_err());
    }

    #[test]
    fn identity_decodes_to_identity_permutation() {
        let d = CMatrix::identity(4);
        assert_eq!(decode_qubit_permutation(&d, 2, 1e-9).unwrap(), vec![0, 1]);
    }

    /// Stage 2, then `corrupt` on the result, under the stage-2 pass name.
    struct CorruptedStage2(fn(&mut CompileContext));

    impl Pass for CorruptedStage2 {
        fn name(&self) -> &str {
            "simplify-synth"
        }

        fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
            SimplifySynthPass::default().run(ctx)?;
            (self.0)(ctx);
            Ok(())
        }
    }

    /// A 40-qubit program of three groups on 2–4-qubit supports.
    fn wide_program() -> Vec<(PauliString, f64)> {
        let term = |letters: &[(usize, char)], c: f64| {
            let mut label = vec!['I'; 40];
            for &(q, l) in letters {
                label[q] = l;
            }
            (label.into_iter().collect::<String>().parse().unwrap(), c)
        };
        vec![
            term(&[(3, 'Z'), (17, 'Y'), (29, 'Y')], 0.1),
            term(&[(3, 'X'), (17, 'Z'), (29, 'Y')], 0.2),
            term(&[(0, 'X'), (39, 'X')], 0.3),
            term(&[(5, 'Y'), (6, 'Z'), (7, 'X'), (8, 'Z')], 0.4),
            term(&[(5, 'Z'), (6, 'Z'), (7, 'Y'), (8, 'X')], 0.5),
        ]
    }

    fn verify_stage2(corrupt: fn(&mut CompileContext)) -> Result<(), PassError> {
        let terms = wide_program();
        let mut ctx = CompileContext::new(40, &terms);
        PassManager::new()
            .with(GroupPass)
            .with(CorruptedStage2(corrupt))
            .with_observer(Arc::new(BoundaryVerifier::default()))
            .run(&mut ctx)
            .map(|_| ())
    }

    #[test]
    fn stage2_is_checked_on_each_group_support_of_a_wide_program() {
        verify_stage2(|_| {}).unwrap();
        // A wrong angle inside group 1's support.
        let err = verify_stage2(|ctx| ctx.subcircuits[1].push(Gate::Rz(39, 0.25))).unwrap_err();
        assert_eq!(err.pass, "simplify-synth");
        assert!(err.message.contains("group 1 subcircuit deviates"), "{err}");
        // A gate outside it.
        let err = verify_stage2(|ctx| ctx.subcircuits[2].push(Gate::H(20))).unwrap_err();
        assert_eq!(err.pass, "simplify-synth");
        assert!(err.message.contains("group 2 acts outside"), "{err}");
    }
}
