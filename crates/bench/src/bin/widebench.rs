//! Wide-register compilation benchmark: packed-mask scaling past 128 qubits.
//!
//! The packed [`QubitMask`](phoenix_pauli::QubitMask) representation lifts
//! the historical `u128` width cap, so PHOENIX can compile 500+ qubit
//! Trotterized spin-chain programs at the logical level. This binary times
//! that path on transverse-field Ising and Heisenberg chains, verifies each
//! compiled circuit with the width-independent stabilizer tier (the Clifford
//! skeleton of the high-level circuit must be the identity, and the emitted
//! term order must be a permutation of the input program), and writes
//! `results/BENCH_width.json`.
//!
//! Usage: `widebench [--quick]` — `--quick` caps the sweep at 256 qubits
//! with one repetition (the CI smoke configuration); the full sweep runs
//! 128/256/500 qubits, best of 3.

use std::time::Instant;

use phoenix_bench::{or_exit, phoenix_compiler, row, write_results};
use phoenix_core::CompileOutcome;
use phoenix_hamil::models::{heisenberg_chain, tfim_chain};
use phoenix_pauli::PauliString;
use phoenix_verify::engine::{check_skeleton_identity, Outcome};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    qubits: usize,
    terms: usize,
    groups: usize,
    reps: usize,
    /// Logical compile wall-clock (best of reps), milliseconds.
    compile_ms: f64,
    /// Gates in the high-level circuit.
    gates: usize,
    /// 2Q gates in the high-level circuit.
    two_qubit_gates: usize,
    /// Stabilizer-tier verification verdict (`pass` / `fail: …`).
    verified: String,
}

/// Sorted multiset key of a term list; two lists are permutations of each
/// other iff their keys match. Identity terms are excluded (pure global
/// phase, legitimately droppable).
fn multiset(terms: &[(PauliString, f64)]) -> Vec<(String, i64)> {
    let mut v: Vec<_> = terms
        .iter()
        .filter(|(p, _)| !p.is_identity())
        .map(|(p, c)| (p.to_string(), (c * 1e12).round() as i64))
        .collect();
    v.sort_unstable();
    v
}

/// The width-independent verification tier: Clifford-skeleton identity
/// (stabilizer tableau, any `n`) plus term-order permutation equivalence.
fn verify_wide(out: &CompileOutcome, input: &[(PauliString, f64)]) -> String {
    if multiset(&out.term_order) != multiset(input) {
        return "fail: term order is not a permutation of the input".to_string();
    }
    match check_skeleton_identity(&out.circuit) {
        Outcome::Pass(_) => "pass".to_string(),
        Outcome::Fail { detail, .. } => format!("fail: {detail}"),
        Outcome::Skipped(why) => format!("fail: skeleton check skipped ({why})"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let widths: &[usize] = if quick { &[128, 256] } else { &[128, 256, 500] };

    println!("# Wide-register compilation: packed masks past the u128 cap\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "#Qubit",
            "#Term",
            "#Group",
            "compile ms",
            "gates",
            "2Q",
            "verified"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 8]));

    let mut rows = Vec::new();
    let mut failed = false;
    for &n in widths {
        let programs = [
            ("TFIM_chain", tfim_chain(n, 1.0, 0.5)),
            ("Heis_chain", heisenberg_chain(n, 1.0, 1.0, 0.5)),
        ];
        for (name, h) in programs {
            let label = format!("{name}_{n}");
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..reps {
                let t = Instant::now();
                let program = or_exit(phoenix_compiler().request(n, h.terms()).run(), &label);
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                out = Some(program);
            }
            let out = out.expect("at least one rep");
            let verified = verify_wide(&out, h.terms());
            failed |= verified != "pass";
            let counts = out.circuit.counts();
            println!(
                "{}",
                row(&[
                    label.clone(),
                    n.to_string(),
                    h.len().to_string(),
                    out.num_groups.to_string(),
                    format!("{best:.1}"),
                    out.circuit.len().to_string(),
                    counts.two_qubit().to_string(),
                    verified.clone(),
                ])
            );
            rows.push(Row {
                benchmark: label,
                qubits: n,
                terms: h.len(),
                groups: out.num_groups,
                reps,
                compile_ms: best,
                gates: out.circuit.len(),
                two_qubit_gates: counts.two_qubit(),
                verified,
            });
        }
    }

    write_results("BENCH_width", &rows);
    if failed {
        eprintln!("widebench: verification FAILED");
        std::process::exit(1);
    }
}
