//! A budgeted compile stays in its target ISA.
//!
//! Under a pass budget the peephole pass may be skipped, and for the CNOT
//! targets it is also the pass that lowers `Clifford2`, `PauliRot2` and
//! SU(4) gates to CNOTs. A skipped peephole must still lower, so every
//! budgeted `Cnot`, `CnotViaKak` and `@kak` output holds only CNOT and 1Q
//! gates, whichever pass the deadline lands in.

use std::time::Duration;

use phoenix_core::{CompileRequest, DeviceRegistry, PhoenixOptions, Target};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;

/// A random program of `n` non-identity terms over `qubits` qubits, drawn
/// like the service robustness suite draws its compile frames (coefficients
/// rounded to four decimals, as the frame prints them).
fn program(qubits: usize, n: usize, seed: u64) -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut terms = Vec::with_capacity(n);
    while terms.len() < n {
        let label: String = (0..qubits)
            .map(|_| ['I', 'X', 'Y', 'Z'][rng.next_below(4)])
            .collect();
        if label.bytes().all(|b| b == b'I') {
            continue;
        }
        let coeff: f64 = format!("{:.4}", rng.next_f64() - 0.5).parse().unwrap();
        terms.push((label.parse().unwrap(), coeff));
    }
    terms
}

#[test]
fn budgeted_cnot_targets_emit_only_cnot_and_1q_gates() {
    let terms = program(5, 12, 91);
    let kak = DeviceRegistry::new().build("line:5@kak").unwrap();
    let targets = [
        ("cnot", Target::Cnot),
        ("cnot-via-kak", Target::CnotViaKak),
        ("line:5@kak", Target::Device(kak)),
    ];
    let budgets = [0u64, 200, 1_000, 5_000].map(Duration::from_micros);
    for (name, target) in targets {
        // Timed budgets land in a different pass on every run; repeat them.
        for _ in 0..3 {
            for budget in budgets {
                let options = PhoenixOptions {
                    pass_budget: Some(budget),
                    ..PhoenixOptions::default()
                };
                let out = CompileRequest::new(5, &terms)
                    .target(target.clone())
                    .options(options)
                    .run()
                    .unwrap();
                let k = out.circuit.counts();
                assert!(
                    k.cnot == k.two_qubit() && k.total == k.oneq + k.cnot,
                    "{name} at budget {budget:?} left the CNOT ISA: {k:?}"
                );
                assert_eq!(out.term_order.len(), terms.len());
            }
        }
    }
}
