//! Molecular simulation end to end: build a UCCSD ansatz for LiH under both
//! fermion encodings, compile it with PHOENIX and the baselines, and map it
//! onto a heavy-hex device.
//!
//! Run with: `cargo run --release --example molecular_simulation`

use phoenix::baselines::Baseline;
use phoenix::circuit::peephole;
use phoenix::core::{CompileRequest, CompilerStrategy, Device, Target};
use phoenix::hamil::{uccsd, Molecule};
use phoenix::topology::CouplingGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = CouplingGraph::manhattan65();
    println!("device: {device}\n");
    let heavy_hex = Target::Device(Device::bare(device.clone()));

    for encoding in [uccsd::Encoding::JordanWigner, uccsd::Encoding::BravyiKitaev] {
        let program = uccsd::ansatz(Molecule::lih(), true, encoding, 7);
        println!("== {program}");

        // Logical level (all-to-all).
        let naive = Baseline::Naive.compile_logical(program.num_qubits(), program.terms());
        println!(
            "  original            : {:5} CNOTs, 2Q depth {:5}",
            naive.counts().cnot,
            naive.depth_2q()
        );
        for baseline in [
            Baseline::TketStyle,
            Baseline::PaulihedralStyle,
            Baseline::TetrisStyle,
        ] {
            let c = peephole::optimize(
                &baseline.compile_logical(program.num_qubits(), program.terms()),
            );
            println!(
                "  {:20}: {:5} CNOTs, 2Q depth {:5}",
                baseline.name(),
                c.counts().cnot,
                c.depth_2q()
            );
        }
        let request = CompileRequest::new(program.num_qubits(), program.terms());
        let phoenix = request.clone().target(Target::Cnot).run()?.circuit;
        println!(
            "  {:20}: {:5} CNOTs, 2Q depth {:5}",
            "PHOENIX",
            phoenix.counts().cnot,
            phoenix.depth_2q()
        );

        // Hardware-aware on the heavy-hex device.
        let hw = request
            .target(heavy_hex.clone())
            .run()?
            .hardware
            .ok_or("device targets carry a hardware program")?;
        println!(
            "  PHOENIX on heavy-hex: {:5} CNOTs, 2Q depth {:5}, {} SWAPs, {:.2}x routing overhead",
            hw.circuit.counts().cnot,
            hw.circuit.depth_2q(),
            hw.num_swaps,
            hw.routing_overhead()
        );
        let ph_hw = Baseline::PaulihedralStyle.compile_hardware(
            program.num_qubits(),
            program.terms(),
            &device,
        );
        println!(
            "  Paulihedral-style   : {:5} CNOTs, 2Q depth {:5}, {} SWAPs, {:.2}x routing overhead\n",
            ph_hw.circuit.counts().cnot,
            ph_hw.circuit.depth_2q(),
            ph_hw.num_swaps,
            ph_hw.routing_overhead()
        );
    }
    Ok(())
}
