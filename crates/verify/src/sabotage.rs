//! Feature-gated miscompilation injection.
//!
//! A verification engine is only trustworthy if it demonstrably catches
//! bugs. This module (compiled only with the `sabotage` feature) wraps
//! PHOENIX with a deliberate, silent corruption of its output; the test
//! suite and `verifybench --sabotage` assert that the differential driver
//! flags it and produces a minimized counterexample.

use phoenix_circuit::{Circuit, Gate};
use phoenix_core::{CompileRequest, CompilerStrategy, PhoenixCompiler};
use phoenix_pauli::PauliString;

/// How the output is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageMode {
    /// Negate the angle of the last rotation gate (a sign-flip
    /// miscompilation — the classic hard-to-spot bug). Falls back to
    /// [`SabotageMode::ExtraGate`] when the circuit has no rotations.
    FlipRotationSign,
    /// Append a stray Hadamard (a dropped/duplicated-gate class bug).
    ExtraGate,
}

/// Corrupts a compiled circuit according to `mode`.
pub fn corrupt(c: &Circuit, mode: SabotageMode) -> Circuit {
    let mut gates = c.gates().to_vec();
    if mode == SabotageMode::FlipRotationSign {
        for g in gates.iter_mut().rev() {
            let flipped = match g {
                Gate::Rx(q, t) => Some(Gate::Rx(*q, -*t)),
                Gate::Ry(q, t) => Some(Gate::Ry(*q, -*t)),
                Gate::Rz(q, t) => Some(Gate::Rz(*q, -*t)),
                Gate::PauliRot2 {
                    a,
                    b,
                    pa,
                    pb,
                    theta,
                } => Some(Gate::PauliRot2 {
                    a: *a,
                    b: *b,
                    pa: *pa,
                    pb: *pb,
                    theta: -*theta,
                }),
                _ => None,
            };
            if let Some(f) = flipped {
                *g = f;
                return Circuit::from_gates(c.num_qubits(), gates);
            }
        }
    }
    gates.push(Gate::H(0));
    Circuit::from_gates(c.num_qubits(), gates)
}

/// A [`CompilerStrategy`] that compiles with PHOENIX and then silently
/// corrupts the result — the injected miscompilation the engine must catch.
#[derive(Debug, Clone)]
pub struct SabotagedPhoenix {
    /// The corruption applied to every output.
    pub mode: SabotageMode,
}

impl Default for SabotagedPhoenix {
    fn default() -> Self {
        SabotagedPhoenix {
            mode: SabotageMode::FlipRotationSign,
        }
    }
}

impl CompilerStrategy for SabotagedPhoenix {
    fn name(&self) -> &str {
        "PHOENIX-sabotaged"
    }

    fn compile_logical(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        corrupt(
            &PhoenixCompiler::default().compile_logical(n, terms),
            self.mode,
        )
    }

    fn compile_optimized(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        corrupt(
            &PhoenixCompiler::default().compile_optimized(n, terms),
            self.mode,
        )
    }
}

/// Runs the sabotaged compiler through the exact tier-1 check and returns
/// the failures it *must* produce (used by tests and `verifybench
/// --sabotage` to prove the engine has teeth).
pub fn sabotage_failures(
    program: &crate::gen::Program,
    mode: SabotageMode,
) -> Vec<crate::differential::Failure> {
    let compiled = CompileRequest::new(program.num_qubits, &program.terms)
        .run()
        .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"));
    let bad = corrupt(&compiled.circuit, mode);
    let mut failures = Vec::new();
    if let crate::engine::Outcome::Fail { metric, detail } =
        crate::engine::check_exact_unitary(&bad, &compiled.term_order)
    {
        failures.push(crate::differential::Failure {
            pipeline: "PHOENIX-sabotaged/high-level".into(),
            check: "exact-unitary".into(),
            metric: Some(metric),
            detail,
        });
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{shrink, Family, RandomProgramGen};

    #[test]
    fn sabotage_is_always_caught_and_minimizes() {
        let mut g = RandomProgramGen::new(1234);
        for mode in [SabotageMode::FlipRotationSign, SabotageMode::ExtraGate] {
            let p = g.program(Family::Random, 5, 10);
            let failures = sabotage_failures(&p, mode);
            assert!(!failures.is_empty(), "{mode:?} went undetected");
            let min = shrink(&p, |cand| !sabotage_failures(cand, mode).is_empty());
            assert!(
                min.terms.len() <= p.terms.len(),
                "shrinking must not grow the program"
            );
            assert!(!sabotage_failures(&min, mode).is_empty());
        }
    }
}
