//! Fig. 8 — algorithmic error analysis (LiH and NH simulation).
//!
//! For the ≤10-qubit benchmarks (LiH_frz, NH_frz) under both encodings, the
//! Pauli coefficients are rescaled across a ladder of factors (different
//! evolution durations) and the unitary infidelity of each compiler's
//! *actual emitted circuit* against the exact evolution `exp(-iH)` is
//! measured. The paper compares PHOENIX with TKET; both series are printed
//! per scale point.

use phoenix_baselines::Baseline;
use phoenix_bench::{phoenix_compiler, write_results, Tracer, SEED};
use phoenix_core::CompilerStrategy;
use phoenix_hamil::{uccsd, Molecule};
use phoenix_sim::{circuit_unitary, exact_evolution, infidelity};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    benchmark: String,
    scale: f64,
    tket_error: f64,
    phoenix_error: f64,
}

const SCALES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

fn main() {
    let mut out: Vec<Series> = Vec::new();
    let mut tracer = Tracer::from_args("fig8");
    let tket: &dyn CompilerStrategy = &Baseline::TketStyle;
    let phoenix_compiler = phoenix_compiler();
    let phoenix_strategy: &dyn CompilerStrategy = &phoenix_compiler;
    println!("# Fig. 8: algorithmic error (unitary infidelity vs exact evolution)\n");
    for mol in [Molecule::lih(), Molecule::nh()] {
        for enc in [uccsd::Encoding::JordanWigner, uccsd::Encoding::BravyiKitaev] {
            let base = uccsd::ansatz(mol, true, enc, SEED);
            let n = base.num_qubits();
            println!("## {} ({n} qubits, {} terms)", base.name(), base.len());
            // One expm at the base of the ladder; each doubling is a single
            // matrix squaring: exp(-i·2s·H) = exp(-i·s·H)².
            let mut exact = exact_evolution(n, base.rescaled(SCALES[0]).terms());
            for &s in &SCALES {
                let h = base.rescaled(s);
                let tket_u = circuit_unitary(&tket.compile_optimized(n, h.terms()));
                let phoenix_u = circuit_unitary(&phoenix_strategy.compile_logical(n, h.terms()));
                tracer.record_logical(
                    &format!("{}@{s}", base.name()),
                    &phoenix_compiler,
                    n,
                    h.terms(),
                );
                let te = infidelity(&exact, &tket_u).max(1e-16);
                let pe = infidelity(&exact, &phoenix_u).max(1e-16);
                println!(
                    "  scale {s:>5}: TKET-style {te:.3e}  PHOENIX {pe:.3e}  (ratio {:.2})",
                    pe / te
                );
                out.push(Series {
                    benchmark: base.name().to_string(),
                    scale: s,
                    tket_error: te,
                    phoenix_error: pe,
                });
                exact = exact.matmul(&exact); // ladder: next scale is 2s
            }
        }
    }
    // Per-encoding average reduction.
    for enc in ["JW", "BK"] {
        let rows: Vec<&Series> = out.iter().filter(|r| r.benchmark.ends_with(enc)).collect();
        let avg_red = rows
            .iter()
            .map(|r| 1.0 - r.phoenix_error / r.tket_error)
            .sum::<f64>()
            / rows.len() as f64;
        println!(
            "\nAverage error reduction vs TKET-style ({enc}): {:.1}%",
            100.0 * avg_red
        );
    }
    write_results("fig8", &out);
    tracer.finish();
}
