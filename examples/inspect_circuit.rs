//! Circuit inspection tour: render a compiled circuit as ASCII, classify
//! its SU(4) blocks by Weyl-chamber CNOT cost, KAK-resynthesize them, and
//! estimate device success probabilities under a noise model.
//!
//! Run with: `cargo run --release --example inspect_circuit`

use phoenix::circuit::{draw, kak, rebase, weyl, Gate};
use phoenix::core::{CompileRequest, Target};
use phoenix::pauli::PauliString;
use phoenix::sim::noise::ErrorModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let terms: Vec<(PauliString, f64)> =
        [("ZYY", 0.12), ("ZZY", -0.34), ("XYY", 0.56), ("XZY", 0.78)]
            .iter()
            .map(|(s, c)| Ok::<_, phoenix::pauli::ParsePauliStringError>((s.parse()?, *c)))
            .collect::<Result<_, _>>()?;

    let compile = |target| CompileRequest::new(3, &terms).target(target).run();
    let high = compile(Target::Logical)?.circuit;
    println!("High-level PHOENIX output (Clifford2Q + ≤2Q rotations):\n");
    println!("{}", draw::ascii(&high));

    let su4 = rebase::to_su4(&high);
    println!("SU(4) ISA view, with Weyl-chamber classification per block:\n");
    for g in su4.gates() {
        if let Gate::Su4(blk) = g {
            let cost = weyl::su4_block_cost(blk);
            println!(
                "  block on (q{}, q{}): {} fused gates, minimal CNOT cost {}",
                blk.a,
                blk.b,
                blk.inner.len(),
                cost
            );
        }
    }

    let resynth = kak::resynthesize(&su4);
    let cnot = compile(Target::Cnot)?.circuit;
    let via_kak = compile(Target::CnotViaKak)?.circuit;
    println!("\nCNOT ISA             : {} CNOTs", cnot.counts().cnot);
    println!("CNOT ISA via KAK     : {} CNOTs", via_kak.counts().cnot);
    println!("\nKAK-resynthesized circuit:\n");
    println!("{}", draw::ascii(&resynth));

    let model = ErrorModel::ibm_like();
    println!(
        "estimated success: plain {:.4}, via KAK {:.4}",
        model.success_probability(&cnot),
        model.success_probability(&via_kak)
    );
    Ok(())
}
