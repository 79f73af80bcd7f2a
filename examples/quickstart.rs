//! Quickstart: compile a tiny Hamiltonian-simulation program with PHOENIX
//! and compare against the conventional synthesis.
//!
//! Run with: `cargo run --release --example quickstart`

use phoenix::baselines::Baseline;
use phoenix::core::{CompileRequest, Target};
use phoenix::pauli::PauliString;
use phoenix::sim::{circuit_unitary, infidelity, trotter_unitary};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The motivating example of the paper's Fig. 1(b): four weight-3 Pauli
    // exponentiations over the same qubits.
    let terms: Vec<(PauliString, f64)> =
        [("ZYY", 0.12), ("ZZY", -0.34), ("XYY", 0.56), ("XZY", 0.78)]
            .iter()
            .map(|(s, c)| Ok::<_, phoenix::pauli::ParsePauliStringError>((s.parse()?, *c)))
            .collect::<Result<_, _>>()?;

    // Conventional synthesis: one CNOT chain per exponentiation.
    let naive = Baseline::Naive.compile_logical(3, &terms);
    println!(
        "conventional: {:3} CNOTs, 2Q depth {:3}",
        naive.counts().cnot,
        naive.depth_2q()
    );

    // PHOENIX: one simultaneous Clifford conjugation simplifies the whole
    // group to ≤2-qubit rotations.
    let compile = |target| CompileRequest::new(3, &terms).target(target).run();
    let compiled = compile(Target::Logical)?;
    let cnot = compile(Target::Cnot)?.circuit;
    println!(
        "PHOENIX     : {:3} CNOTs, 2Q depth {:3}  ({} IR group)",
        cnot.counts().cnot,
        cnot.depth_2q(),
        compiled.num_groups
    );

    // The emitted circuit is *exactly* a Trotter product of the input terms
    // (in the compiler's chosen order) — verify with the simulator.
    let err = infidelity(
        &circuit_unitary(&compiled.circuit),
        &trotter_unitary(3, &compiled.term_order),
    );
    println!("unitary deviation from the exact Trotter product: {err:.2e}");

    // And the SU(4)-ISA view: the whole group fuses into a few blocks.
    let su4 = compile(Target::Su4)?.circuit;
    println!(
        "SU(4) ISA   : {:3} native 2Q instructions",
        su4.counts().su4
    );
    Ok(())
}
