//! SU(4)-ISA block analysis (beyond the paper): for each compiler's
//! SU(4)-rebased output, classify every fused block by its Weyl-chamber
//! minimal CNOT cost. This measures how much entangling power each native
//! 2Q instruction actually carries — and how far the CNOT-ISA outputs sit
//! above their theoretical floors.

use phoenix_baselines::strategies;
use phoenix_bench::{or_exit, phoenix_compiler, row, short_label, write_results, Tracer, SEED};
use phoenix_circuit::{kak, peephole, rebase, weyl, Circuit, Gate};
use phoenix_core::{CompilerStrategy, Target};
use phoenix_hamil::{uccsd, Molecule};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize, Default, Clone, Copy)]
struct CostHistogram {
    cost0: usize,
    cost1: usize,
    cost2: usize,
    cost3: usize,
}

impl CostHistogram {
    fn total_blocks(&self) -> usize {
        self.cost0 + self.cost1 + self.cost2 + self.cost3
    }

    fn cnot_floor(&self) -> usize {
        self.cost1 + 2 * self.cost2 + 3 * self.cost3
    }
}

fn histogram(su4_circuit: &Circuit) -> CostHistogram {
    let mut h = CostHistogram::default();
    for g in su4_circuit.gates() {
        if let Gate::Su4(blk) = g {
            match weyl::su4_block_cost(blk) {
                0 => h.cost0 += 1,
                1 => h.cost1 += 1,
                2 => h.cost2 += 1,
                _ => h.cost3 += 1,
            }
        }
    }
    h
}

fn main() {
    let mut results: BTreeMap<String, BTreeMap<String, (CostHistogram, usize, usize)>> =
        BTreeMap::new();
    let mut tracer = Tracer::from_args("su4_analysis");
    // Baselines reach SU(4) by CNOT compile + rebase.
    let baselines: Vec<Box<dyn CompilerStrategy>> = strategies()
        .into_iter()
        .filter(|s| matches!(s.name(), "Paulihedral-style" | "TKET-style"))
        .collect();
    println!("# SU(4) block analysis: Weyl-class histogram and CNOT floors\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "Compiler",
            "#SU4",
            "c=0",
            "c=1",
            "c=2",
            "c=3",
            "CNOT floor",
            "actual CNOT",
            "KAK-resynth CNOT",
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 10]));
    for (mol, frozen) in [(Molecule::lih(), true), (Molecule::nh(), true)] {
        for enc in [uccsd::Encoding::JordanWigner, uccsd::Encoding::BravyiKitaev] {
            let h = uccsd::ansatz(mol, frozen, enc, SEED);
            let n = h.num_qubits();
            let mut per = BTreeMap::new();
            // PHOENIX: direct SU(4) emission.
            let phoenix = phoenix_compiler();
            let compile =
                |target| or_exit(phoenix.request(n, h.terms()).target(target).run(), h.name());
            let p_su4 = compile(Target::Su4).circuit;
            let p_cnot = compile(Target::Cnot).circuit.counts().cnot;
            let p_resynth = peephole::optimize(&kak::resynthesize(&p_su4)).counts().cnot;
            per.insert(
                "PHOENIX".to_string(),
                (histogram(&p_su4), p_cnot, p_resynth),
            );
            tracer.record_logical(h.name(), &phoenix, n, h.terms());
            // Baselines: CNOT compile + rebase.
            for strategy in &baselines {
                let logical = strategy.compile_optimized(n, h.terms());
                let su4 = rebase::to_su4(&logical);
                let resynth = peephole::optimize(&kak::resynthesize(&su4)).counts().cnot;
                per.insert(
                    short_label(strategy.name()).to_string(),
                    (histogram(&su4), logical.counts().cnot, resynth),
                );
            }
            for (name, (hist, actual, resynth)) in &per {
                println!(
                    "{}",
                    row(&[
                        h.name().to_string(),
                        name.clone(),
                        hist.total_blocks().to_string(),
                        hist.cost0.to_string(),
                        hist.cost1.to_string(),
                        hist.cost2.to_string(),
                        hist.cost3.to_string(),
                        hist.cnot_floor().to_string(),
                        actual.to_string(),
                        resynth.to_string(),
                    ])
                );
            }
            eprintln!("[su4] {} done", h.name());
            results.insert(h.name().to_string(), per);
        }
    }
    write_results("su4_analysis", &results);
    tracer.finish();
}
