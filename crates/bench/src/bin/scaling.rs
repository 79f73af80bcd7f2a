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

// `process_cpu_ms` relies on the 64-bit Linux `struct timespec` layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("scaling reads the Linux process CPU clock and builds on 64-bit Linux only");

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
/// window of wall-clock time, after one untimed warm-up; the table reports
/// the median of their CPU times. Sub-millisecond rows get a hundred or
/// more samples, so their median does not move with one slow compile.
const TIME_WINDOW: Duration = Duration::from_millis(100);

/// Fewest timed compiles per program, however long each takes.
const MIN_TIMED_RUNS: usize = 5;

fn measure(h: &Hamiltonian, tracer: &mut Tracer) -> Point {
    // Timed on compiles that keep no trace, which take no per-pass
    // statistics, so the numbers are the compile's own; the trace (when
    // requested) comes from a separate run. Each is timed on the process
    // CPU clock, which counts stage 2's pool threads too and not the time
    // a shared host gives to other guests.
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
        let t0 = process_cpu_ms();
        std::hint::black_box(compile());
        times.push(process_cpu_ms() - t0);
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

/// CPU time every thread of this process has used so far, ms.
fn process_cpu_ms() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (the layout is
    // pinned by the `compile_error!` guard above), and `clock_gettime`
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
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
                "CPU time (ms, median of the warm compiles filling {} ms, at least {MIN_TIMED_RUNS})",
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
                format!("{:.3}", p.millis),
            ])
        );
    }
    write_results("scaling", &points);
    tracer.finish();
}
