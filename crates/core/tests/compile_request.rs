//! Outcome-shape and determinism tests for the [`CompileRequest`] API.
//!
//! A device target's outcome circuit is its hardware program's circuit. A
//! property test then checks the observability contract: span trees
//! (modulo timings) and per-compilation metric totals are identical for
//! `stage2_threads` ∈ {1, 2, 8}.

use phoenix_core::{CompileRequest, Device, PhoenixOptions, Target};
use phoenix_obs::ObsReport;
use phoenix_pauli::PauliString;
use phoenix_topology::CouplingGraph;
use proptest::prelude::*;

/// The Fig. 1(b) example program.
fn fig1b() -> (usize, Vec<(PauliString, f64)>) {
    let terms = ["ZYY", "ZZY", "XYY", "XZY"]
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
        .collect();
    (3, terms)
}

#[test]
fn hardware_outcome_circuit_equals_the_hardware_program_circuit() {
    let (n, terms) = fig1b();
    let device = CouplingGraph::line(3);
    let out = CompileRequest::new(n, &terms)
        .target(Target::Device(Device::bare(device)))
        .run()
        .unwrap();
    assert_eq!(out.circuit, out.hardware.unwrap().circuit);
}

/// A random *valid* program: `n ∈ 2..=5` qubits, `1..=6` full-width terms
/// with finite coefficients (5-wide draws truncated to the register, in
/// the style of the repo's other property tests).
fn arb_program() -> impl Strategy<Value = (usize, Vec<(PauliString, f64)>)> {
    (
        2usize..=5,
        proptest::collection::vec(
            (proptest::collection::vec(0usize..4, 5), -1.0f64..1.0),
            1..=6,
        ),
    )
        .prop_map(|(n, raw)| {
            let terms = raw
                .into_iter()
                .map(|(paulis, coeff)| {
                    let label: String = paulis[..n]
                        .iter()
                        .map(|&i| ['I', 'X', 'Y', 'Z'][i])
                        .collect();
                    (label.parse::<PauliString>().expect("valid label"), coeff)
                })
                .collect();
            (n, terms)
        })
}

/// One instrumented compile at the given stage-2 worker count, keeping
/// its trace so that the report carries the span tree.
fn obs_compile(n: usize, terms: &[(PauliString, f64)], threads: usize) -> ObsReport {
    let options = PhoenixOptions {
        stage2_threads: threads,
        ..PhoenixOptions::default()
    };
    CompileRequest::new(n, terms)
        .options(options)
        .target(Target::Cnot)
        .trace(true)
        .obs(true)
        .run()
        .unwrap()
        .obs
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The observability contract: the span tree (names, categories, args,
    /// nesting — everything but wall-clock timings), the per-compilation
    /// metric totals, and the recorded events are identical whether
    /// stage 2 runs sequentially or on 2 or 8 worker threads.
    #[test]
    fn obs_artifacts_are_thread_count_deterministic((n, terms) in arb_program()) {
        let base = obs_compile(n, &terms, 1);
        for threads in [2usize, 8] {
            let other = obs_compile(n, &terms, threads);
            prop_assert_eq!(
                base.root.skeleton(),
                other.root.skeleton(),
                "span skeleton diverged at {} threads",
                threads
            );
            // Counters and histograms must agree exactly; gauges are
            // excluded because `stage2_threads` reports the worker count
            // itself.
            prop_assert_eq!(
                &base.metrics.counters,
                &other.metrics.counters,
                "metric totals diverged at {} threads",
                threads
            );
            prop_assert_eq!(&base.metrics.histograms, &other.metrics.histograms);
            prop_assert_eq!(&base.events, &other.events);
        }
    }
}
