//! Fig. 5 + Table II — logical-level compilation (all-to-all topology).
//!
//! Per benchmark: `#CNOT` and `Depth-2Q` for TKET-style, Paulihedral-style
//! (± O3), Tetris-style (± O3) and PHOENIX (± O3), as ratios of the
//! original circuit. Table II's geometric means close the report.
//!
//! "O3" is the workspace peephole pass standing in for Qiskit O2/O3; the
//! "no O3" variants lower structurally without it, mirroring the paper's
//! ablation of high-level-optimization strength.

use phoenix_bench::{
    geomean, phoenix_compiler, row, short_label, write_results, Metrics, Tracer, SEED,
};
use phoenix_circuit::peephole;

use phoenix_hamil::uccsd;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    original: Metrics,
    compilers: BTreeMap<String, Metrics>,
}

const COMPILERS: [&str; 7] = [
    "TKET",
    "Paulihedral",
    "Paulihedral+O3",
    "Tetris",
    "Tetris+O3",
    "PHOENIX",
    "PHOENIX+O3",
];

fn main() {
    let mut entries: Vec<Entry> = Vec::new();
    let mut tracer = Tracer::from_args("table2_fig5");
    let strategies = phoenix_baselines::strategies();
    for h in uccsd::table1_suite(SEED) {
        let n = h.num_qubits();
        let terms = h.terms();
        let mut original = None;
        let mut compilers = BTreeMap::new();
        for strategy in &strategies {
            let label = short_label(strategy.name());
            let logical = strategy.compile_logical(n, terms);
            match label {
                // The reference point every rate is measured against.
                "original" => original = Some(Metrics::of(&logical)),
                // TKET always carries its FullPeepholeOptimise analogue.
                "TKET" => {
                    compilers.insert(
                        label.to_string(),
                        Metrics::of(&peephole::optimize(&logical)),
                    );
                }
                _ => {
                    compilers.insert(label.to_string(), Metrics::of(&logical.lower_to_cnot()));
                    compilers.insert(
                        format!("{label}+O3"),
                        Metrics::of(&peephole::optimize(&logical)),
                    );
                }
            }
        }
        let original = original.expect("the strategy set includes the original circuit");
        tracer.record_logical(h.name(), &phoenix_compiler(), n, terms);
        eprintln!("[fig5] {} done", h.name());
        entries.push(Entry {
            benchmark: h.name().to_string(),
            original,
            compilers,
        });
    }

    println!("# Fig. 5: logical-level compilation (ratios vs original)\n");
    let mut header = vec!["Benchmark".to_string(), "orig #CNOT".to_string()];
    for c in COMPILERS {
        header.push(format!("{c} #CNOT%"));
        header.push(format!("{c} D2Q%"));
    }
    println!("{}", row(&header));
    println!("{}", row(&vec!["---".to_string(); header.len()]));
    for e in &entries {
        let mut cells = vec![e.benchmark.clone(), e.original.cnot.to_string()];
        for c in COMPILERS {
            let m = &e.compilers[c];
            cells.push(format!(
                "{:.1}",
                100.0 * m.cnot as f64 / e.original.cnot as f64
            ));
            cells.push(format!(
                "{:.1}",
                100.0 * m.depth_2q as f64 / e.original.depth_2q as f64
            ));
        }
        println!("{}", row(&cells));
    }

    println!("\n# Table II: average (geometric-mean) optimization rates\n");
    println!(
        "{}",
        row(&["Compiler", "#CNOT opt.", "Depth-2Q opt."].map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 3]));
    let mut summary = BTreeMap::new();
    for c in COMPILERS {
        let cnot_ratios: Vec<f64> = entries
            .iter()
            .map(|e| e.compilers[c].cnot as f64 / e.original.cnot as f64)
            .collect();
        let depth_ratios: Vec<f64> = entries
            .iter()
            .map(|e| e.compilers[c].depth_2q as f64 / e.original.depth_2q as f64)
            .collect();
        let gc = geomean(&cnot_ratios);
        let gd = geomean(&depth_ratios);
        println!(
            "{}",
            row(&[
                c.to_string(),
                format!("{:.2}%", 100.0 * gc),
                format!("{:.2}%", 100.0 * gd)
            ])
        );
        summary.insert(c.to_string(), (gc, gd));
    }
    write_results("table2_fig5", &(entries, summary));
    tracer.finish();
}
