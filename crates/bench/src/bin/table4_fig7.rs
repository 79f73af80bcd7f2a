//! Table IV + Fig. 7 — QAOA benchmarking versus 2QAN (heavy-hex).
//!
//! Six QAOA programs (random 4-regular and 3-regular graphs, 16/20/24
//! qubits): mapped `#CNOT`, `Depth-2Q`, `#SWAP` and routing overhead for
//! the 2QAN-style baseline and PHOENIX. Logical-level 2Q depth is also
//! reported (both schedulers reach near-optimal depth there, as the paper
//! notes).

use phoenix_baselines::Baseline;
use phoenix_bench::{phoenix_compiler, row, write_results, Metrics, Tracer, SEED};
use phoenix_core::{CompilerStrategy, Device, HardwareProgram};
use phoenix_hamil::qaoa;
use phoenix_topology::CouplingGraph;
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    pauli: usize,
    qan: Side,
    phoenix: Side,
}

#[derive(Serialize)]
struct Side {
    logical_depth_2q: usize,
    mapped: Metrics,
    swaps: usize,
    overhead: f64,
}

fn side(hw: &HardwareProgram) -> Side {
    Side {
        logical_depth_2q: hw.logical.depth_2q(),
        mapped: Metrics::of(&hw.circuit),
        swaps: hw.num_swaps,
        overhead: hw.routing_overhead(),
    }
}

fn main() {
    let device = CouplingGraph::manhattan65();
    let traced_device = Device::bare(device.clone());
    let mut entries = Vec::new();
    let mut tracer = Tracer::from_args("table4_fig7");
    // The 2-local specialist against PHOENIX, as trait objects.
    let contenders: [Box<dyn CompilerStrategy>; 2] = [
        Box::new(Baseline::TwoQanStyle),
        Box::new(phoenix_compiler()),
    ];
    for h in qaoa::table4_suite(SEED) {
        let n = h.num_qubits();
        let [qan, phoenix] = contenders
            .each_ref()
            .map(|s| side(&s.compile_hardware(n, h.terms(), &device)));
        tracer.record_device(h.name(), &phoenix_compiler(), n, h.terms(), &traced_device);
        eprintln!("[table4] {} done", h.name());
        entries.push(Entry {
            benchmark: h.name().to_string(),
            pauli: h.len(),
            qan,
            phoenix,
        });
    }

    println!("# Table IV: QAOA benchmarking versus 2QAN (heavy-hex)\n");
    println!(
        "{}",
        row(&[
            "Bench.",
            "#Pauli",
            "2QAN #CNOT",
            "PHX #CNOT",
            "2QAN D2Q",
            "PHX D2Q",
            "2QAN #SWAP",
            "PHX #SWAP",
            "2QAN ovh",
            "PHX ovh",
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 10]));
    let mut improv = [Vec::new(), Vec::new(), Vec::new()];
    for e in &entries {
        println!(
            "{}",
            row(&[
                e.benchmark.clone(),
                e.pauli.to_string(),
                e.qan.mapped.cnot.to_string(),
                e.phoenix.mapped.cnot.to_string(),
                e.qan.mapped.depth_2q.to_string(),
                e.phoenix.mapped.depth_2q.to_string(),
                e.qan.swaps.to_string(),
                e.phoenix.swaps.to_string(),
                format!("{:.2}x", e.qan.overhead),
                format!("{:.2}x", e.phoenix.overhead),
            ])
        );
        improv[0].push(1.0 - e.phoenix.mapped.cnot as f64 / e.qan.mapped.cnot as f64);
        improv[1].push(1.0 - e.phoenix.mapped.depth_2q as f64 / e.qan.mapped.depth_2q as f64);
        improv[2].push(1.0 - e.phoenix.swaps as f64 / e.qan.swaps.max(1) as f64);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nAvg. improvement: #CNOT {:.2}%, Depth-2Q {:.2}%, #SWAP {:.2}%",
        100.0 * avg(&improv[0]),
        100.0 * avg(&improv[1]),
        100.0 * avg(&improv[2]),
    );
    println!("\n## Logical 2Q depth (both near-optimal)\n");
    for e in &entries {
        println!(
            "- {}: 2QAN {}, PHOENIX {}",
            e.benchmark, e.qan.logical_depth_2q, e.phoenix.logical_depth_2q
        );
    }
    write_results("table4_fig7", &entries);
    tracer.finish();
}
