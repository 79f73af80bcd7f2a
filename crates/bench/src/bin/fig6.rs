//! Fig. 6 — hardware-aware compilation on the heavy-hex topology.
//!
//! Per UCCSD benchmark: mapped `#CNOT` and `Depth-2Q` for Paulihedral-style,
//! Tetris-style and PHOENIX on the 65-qubit Manhattan-shaped heavy-hex
//! device (TKET is excluded as in the paper), plus each compiler's average
//! routing-overhead multiple (the dashed lines).

use phoenix_baselines::strategies;
use phoenix_bench::{
    geomean, phoenix_compiler, row, short_label, write_results, Metrics, Tracer, SEED,
};
use phoenix_core::{CompilerStrategy, Device};
use phoenix_hamil::uccsd;
use phoenix_topology::CouplingGraph;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    compilers: BTreeMap<String, HwMetrics>,
}

#[derive(Serialize, Clone, Copy)]
struct HwMetrics {
    mapped: Metrics,
    logical_cnot: usize,
    swaps: usize,
    overhead: f64,
}

const COMPILERS: [&str; 3] = ["Paulihedral", "Tetris", "PHOENIX"];

fn main() {
    let device = CouplingGraph::manhattan65();
    let traced_device = Device::bare(device.clone());
    let mut entries = Vec::new();
    let mut tracer = Tracer::from_args("fig6");
    // TKET is excluded as in the paper; compare the remaining strategies.
    let contenders: Vec<Box<dyn CompilerStrategy>> = strategies()
        .into_iter()
        .filter(|s| !matches!(s.name(), "original" | "TKET-style"))
        .collect();
    for h in uccsd::table1_suite(SEED) {
        let n = h.num_qubits();
        let mut compilers = BTreeMap::new();
        for strategy in &contenders {
            let hw = strategy.compile_hardware(n, h.terms(), &device);
            compilers.insert(
                short_label(strategy.name()).to_string(),
                HwMetrics {
                    mapped: Metrics::of(&hw.circuit),
                    logical_cnot: hw.logical.counts().cnot,
                    swaps: hw.num_swaps,
                    overhead: hw.routing_overhead(),
                },
            );
        }
        tracer.record_device(h.name(), &phoenix_compiler(), n, h.terms(), &traced_device);
        eprintln!("[fig6] {} done", h.name());
        entries.push(Entry {
            benchmark: h.name().to_string(),
            compilers,
        });
    }

    println!("# Fig. 6: hardware-aware compilation (heavy-hex 65q)\n");
    let mut header = vec!["Benchmark".to_string()];
    for c in COMPILERS {
        header.push(format!("{c} #CNOT"));
        header.push(format!("{c} D2Q"));
        header.push(format!("{c} ovh"));
    }
    println!("{}", row(&header));
    println!("{}", row(&vec!["---".to_string(); header.len()]));
    for e in &entries {
        let mut cells = vec![e.benchmark.clone()];
        for c in COMPILERS {
            let m = &e.compilers[c];
            cells.push(m.mapped.cnot.to_string());
            cells.push(m.mapped.depth_2q.to_string());
            cells.push(format!("{:.2}x", m.overhead));
        }
        println!("{}", row(&cells));
    }

    println!("\n## Averages (geomean)\n");
    let mut summary = BTreeMap::new();
    for c in COMPILERS {
        let cnot = geomean(
            &entries
                .iter()
                .map(|e| e.compilers[c].mapped.cnot as f64)
                .collect::<Vec<_>>(),
        );
        let depth = geomean(
            &entries
                .iter()
                .map(|e| e.compilers[c].mapped.depth_2q as f64)
                .collect::<Vec<_>>(),
        );
        let ovh = geomean(
            &entries
                .iter()
                .map(|e| e.compilers[c].overhead)
                .collect::<Vec<_>>(),
        );
        println!("- {c}: #CNOT {cnot:.0}, Depth-2Q {depth:.0}, routing multiple {ovh:.2}x");
        summary.insert(c.to_string(), (cnot, depth, ovh));
    }
    for base in ["Paulihedral", "Tetris"] {
        let rc = summary["PHOENIX"].0 / summary[base].0;
        let rd = summary["PHOENIX"].1 / summary[base].1;
        println!(
            "- PHOENIX vs {base}: #CNOT reduced by {:.2}%, Depth-2Q by {:.2}%",
            100.0 * (1.0 - rc),
            100.0 * (1.0 - rd)
        );
    }
    write_results("fig6", &(entries, summary));
    tracer.finish();
}
