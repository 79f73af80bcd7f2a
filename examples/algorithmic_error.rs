//! Algorithmic-error analysis: measure the unitary infidelity between a
//! compiled circuit and the exact Hamiltonian evolution, the paper's Fig. 8
//! metric, on a Heisenberg chain small enough to run in seconds.
//!
//! Run with: `cargo run --release --example algorithmic_error`

use phoenix::baselines::Baseline;
use phoenix::circuit::peephole;
use phoenix::core::CompileRequest;
use phoenix::hamil::models::heisenberg_chain;
use phoenix::sim::{circuit_unitary, exact_evolution, infidelity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = heisenberg_chain(6, 0.4, 0.3, 0.5);
    println!("program: {base}\n");
    println!("scale | TKET-style error | PHOENIX error");
    for scale in [0.25, 0.5, 1.0, 2.0] {
        let h = base.rescaled(scale);
        let exact = exact_evolution(h.num_qubits(), h.terms());

        let tket = circuit_unitary(&peephole::optimize(
            &Baseline::TketStyle.compile_logical(h.num_qubits(), h.terms()),
        ));
        let phoenix = circuit_unitary(
            &CompileRequest::new(h.num_qubits(), h.terms())
                .run()?
                .circuit,
        );
        println!(
            "{scale:>5} | {:>16.3e} | {:>13.3e}",
            infidelity(&exact, &tket),
            infidelity(&exact, &phoenix)
        );
    }
    println!("\nBoth circuits are exact Trotter products; the error is purely");
    println!("the Trotterization error of each compiler's chosen term order.");
    Ok(())
}
