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

/// Timed compiles per program, after one untimed warm-up; the table
/// reports their median.
const TIMED_RUNS: usize = 5;

fn measure(h: &Hamiltonian, tracer: &mut Tracer) -> Point {
    // Timed without trace recording, so the reported numbers are clean;
    // the trace (when requested) comes from a separate run.
    let compile = || {
        let request = phoenix_compiler()
            .request(h.num_qubits(), h.terms())
            .target(Target::Cnot);
        or_exit(request.run(), h.name()).circuit
    };
    let c = compile();
    let mut times: Vec<f64> = (0..TIMED_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(compile());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let millis = times[TIMED_RUNS / 2];
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
    let mut tracer = Tracer::from_args("scaling");
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
            "Program".to_string(),
            "#Qubit".to_string(),
            "#Pauli".to_string(),
            "#CNOT".to_string(),
            "Depth-2Q".to_string(),
            format!("time (ms, median of {TIMED_RUNS} after 1 warm-up)"),
        ])
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
