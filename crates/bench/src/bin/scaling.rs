//! Compile-time and gate-count scaling (beyond the paper's tables): PHOENIX
//! across growing Heisenberg chains, Trotter repetitions, and QAOA sizes.
//!
//! Supports the paper's scalability claim ("compiles VQA programs of
//! thousands of Pauli strings … in dozens of seconds" — in Python; this
//! implementation is ~1000× faster).

use phoenix_bench::{or_exit, phoenix_compiler, row, write_results, Tracer, SEED};
use phoenix_core::Target;
use phoenix_hamil::{models, qaoa, uccsd, Hamiltonian, Molecule};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    program: String,
    qubits: usize,
    pauli: usize,
    cnot: usize,
    depth_2q: usize,
    millis: f64,
}

fn measure(h: &Hamiltonian, tracer: &mut Tracer) -> Point {
    // Timed without trace recording, so the reported numbers are clean;
    // the trace (when requested) comes from a separate run.
    let t0 = Instant::now();
    let request = phoenix_compiler()
        .request(h.num_qubits(), h.terms())
        .target(Target::Cnot);
    let c = or_exit(request.run(), h.name()).circuit;
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    tracer.record_logical(h.name(), &phoenix_compiler(), h.num_qubits(), h.terms());
    Point {
        program: h.name().to_string(),
        qubits: h.num_qubits(),
        pauli: h.len(),
        cnot: c.counts().cnot,
        depth_2q: c.depth_2q(),
        millis,
    }
}

fn main() {
    let mut points = Vec::new();
    let mut tracer = Tracer::from_env("scaling");
    // Heisenberg chains of growing width.
    for n in [8usize, 16, 32, 64, 96, 128, 256, 500] {
        points.push(measure(
            &models::heisenberg_chain(n, 1.0, 0.8, 0.6),
            &mut tracer,
        ));
    }
    // Trotter-repeated molecular ansatz: term count grows linearly.
    let base = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::JordanWigner, SEED);
    for r in [1usize, 2, 4, 8] {
        points.push(measure(&base.repeated(r), &mut tracer));
    }
    // QAOA width sweep.
    for n in [16usize, 32, 64, 96] {
        let edges = qaoa::random_regular_graph(n, 4, SEED + n as u64);
        points.push(measure(
            &qaoa::maxcut_program(format!("Rand4-{n}"), n, &edges, SEED),
            &mut tracer,
        ));
    }

    println!("# Scaling study (PHOENIX, logical CNOT ISA)\n");
    println!(
        "{}",
        row(&[
            "Program",
            "#Qubit",
            "#Pauli",
            "#CNOT",
            "Depth-2Q",
            "time (ms)"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 6]));
    for p in &points {
        println!(
            "{}",
            row(&[
                p.program.clone(),
                p.qubits.to_string(),
                p.pauli.to_string(),
                p.cnot.to_string(),
                p.depth_2q.to_string(),
                format!("{:.1}", p.millis),
            ])
        );
    }
    write_results("scaling", &points);
    tracer.finish();
}
