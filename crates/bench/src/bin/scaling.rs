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
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Point {
    program: String,
    qubits: usize,
    pauli: usize,
    cnot: usize,
    depth_2q: usize,
    millis: f64,
}

/// Each program is timed over as many warm compiles as fit in this
/// window, after one untimed warm-up; the table reports their median.
/// Sub-millisecond rows get a hundred or more samples, so their median
/// does not move with one slow compile.
const TIME_WINDOW: Duration = Duration::from_millis(100);

/// Fewest timed compiles per program, however long each takes.
const MIN_TIMED_RUNS: usize = 5;

fn measure(h: &Hamiltonian, tracer: &mut Tracer) -> Point {
    // Timed on compiles that keep neither a trace nor an obs report, which
    // take no per-pass statistics, so the numbers are the compile's own;
    // the trace (when requested) comes from a separate run.
    let compile = || {
        let request = phoenix_compiler()
            .request(h.num_qubits(), h.terms())
            .target(Target::Cnot);
        or_exit(request.run(), h.name()).circuit
    };
    let c = compile();
    let mut times = Vec::new();
    let window = Instant::now();
    while times.len() < MIN_TIMED_RUNS || window.elapsed() < TIME_WINDOW {
        let t0 = Instant::now();
        std::hint::black_box(compile());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    let millis = times[times.len() / 2];
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
            format!(
                "time (ms, median of the warm compiles filling {} ms, at least {MIN_TIMED_RUNS})",
                TIME_WINDOW.as_millis()
            ),
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
