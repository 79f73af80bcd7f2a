//! A pass budget only decides how many deepening rounds run.
//!
//! The anytime pass delivers the pre-routing lowering of the round it
//! keeps, and every pass that starts runs in full, so a budgeted compile
//! equals the untimed compile capped at the depth it reached, and it stays
//! in its target ISA wherever the deadline lands.

use std::collections::HashMap;
use std::time::Duration;

use phoenix_core::{CompileOutcome, CompileRequest, DeviceRegistry, PhoenixOptions, Target};
use phoenix_hamil::uccsd::{self, Encoding, Molecule};
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

/// Compiles `terms` to `target` under `budget`, capped at `rounds`.
fn budgeted(
    n: usize,
    terms: &[(PauliString, f64)],
    target: &Target,
    budget: Duration,
    rounds: Option<usize>,
) -> CompileOutcome {
    CompileRequest::new(n, terms)
        .target(target.clone())
        .options(PhoenixOptions {
            pass_budget: Some(budget),
            anytime_rounds: rounds,
            ..PhoenixOptions::default()
        })
        .run()
        .unwrap()
}

/// Every budgeted output equals the compile of the same program capped at
/// the `depth_reached` it reports, under a budget too large to interrupt:
/// nothing after the deepening reads the clock.
#[test]
fn budget_decides_only_the_depth() {
    let mut programs = vec![("seed-91".to_string(), 5, program(5, 12, 91))];
    for molecule in [Molecule::lih(), Molecule::nh()] {
        for encoding in [Encoding::JordanWigner, Encoding::BravyiKitaev] {
            let h = uccsd::ansatz(molecule, true, encoding, 7);
            programs.push((h.name().to_string(), h.num_qubits(), h.terms().to_vec()));
        }
    }
    let registry = DeviceRegistry::new();
    let targets = [
        ("cnot", Target::Cnot),
        ("cnot-via-kak", Target::CnotViaKak),
        ("su4", Target::Su4),
        (
            "grid:4x4",
            Target::Device(registry.build("grid:4x4").unwrap()),
        ),
        (
            "line:5@kak",
            Target::Device(registry.build("line:5@kak").unwrap()),
        ),
    ];
    let budgets = [0u64, 200, 1_000, 5_000].map(Duration::from_micros);
    let untimed = Duration::from_secs(3600);
    for (name, n, terms) in &programs {
        for (target_name, target) in &targets {
            if let Target::Device(device) = target {
                if device.graph().num_qubits() < *n {
                    continue;
                }
            }
            let mut references = HashMap::new();
            for budget in budgets {
                let out = budgeted(*n, terms, target, budget, None);
                let depth = out.depth_reached.unwrap();
                let reference = references
                    .entry(depth)
                    .or_insert_with(|| budgeted(*n, terms, target, untimed, Some(depth)));
                assert_eq!(reference.depth_reached, Some(depth));
                assert_eq!(
                    out.circuit, reference.circuit,
                    "{name} at {target_name}, budget {budget:?}, depth {depth}"
                );
                assert_eq!(
                    out.term_order, reference.term_order,
                    "{name} at {target_name}, budget {budget:?}, depth {depth}"
                );
            }
        }
    }
}
