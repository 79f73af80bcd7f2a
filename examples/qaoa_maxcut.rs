//! QAOA MaxCut compilation: generate a random-regular-graph cost layer,
//! schedule it depth-optimally, and route it onto heavy-hex hardware —
//! PHOENIX versus the 2-local specialist baseline.
//!
//! Run with: `cargo run --release --example qaoa_maxcut`

use phoenix::baselines::Baseline;
use phoenix::core::{CompileRequest, CompilerStrategy, Device, Target};
use phoenix::hamil::qaoa;
use phoenix::topology::CouplingGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = CouplingGraph::manhattan65();
    let heavy_hex = Target::Device(Device::bare(device.clone()));
    for (kind, label) in [
        (qaoa::QaoaKind::Rand4, "random 4-regular"),
        (qaoa::QaoaKind::Reg3, "3-regular"),
    ] {
        for n in [16, 20] {
            let program = qaoa::benchmark(kind, n, 7 + n as u64);
            println!("== {} ({label}, {} edges)", program.name(), program.len());

            let qan = Baseline::TwoQanStyle.compile_hardware(n, program.terms(), &device);
            println!(
                "  2QAN-style : logical 2Q depth {:2} | mapped: {:3} CNOTs, depth {:3}, {:2} SWAPs",
                qan.logical.depth_2q(),
                qan.circuit.counts().cnot,
                qan.circuit.depth_2q(),
                qan.num_swaps
            );

            let hw = CompileRequest::new(n, program.terms())
                .target(heavy_hex.clone())
                .run()?
                .hardware
                .ok_or("device targets carry a hardware program")?;
            println!(
                "  PHOENIX    : logical 2Q depth {:2} | mapped: {:3} CNOTs, depth {:3}, {:2} SWAPs",
                hw.logical.depth_2q(),
                hw.circuit.counts().cnot,
                hw.circuit.depth_2q(),
                hw.num_swaps
            );
        }
    }
    Ok(())
}
