//! Table I — UCCSD benchmark suite characteristics.
//!
//! For each of the 16 UCCSD benchmarks: qubit count, `#Pauli`, `w_max`, and
//! the conventional ("original") circuit's `#Gate`, `#CNOT`, `Depth`,
//! `Depth-2Q`.
//!
//! Usage: `table1 [--quick] [--obs] [--verify] [--device <spec>]` —
//! `--quick` runs the two smallest benchmarks only (the CI smoke
//! configuration); `--obs` files observability reports under `results/`;
//! `--verify` checks every pass boundary. `--device <spec>` resolves a registry device
//! (`line:N`, `grid:RxC`, `heavy-hex:RxL`, `ion-trap:N`, presets; optional
//! `@isa` suffix) and records instrumented device-targeted compilations
//! instead of logical ones — the what-if variant of the fixed table.

use phoenix_baselines::Baseline;
use phoenix_bench::{or_exit, phoenix_compiler, row, write_results, Metrics, Tracer, SEED};
use phoenix_core::{CompilerStrategy, Device, DeviceRegistry};
use phoenix_hamil::uccsd;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    qubits: usize,
    pauli: usize,
    w_max: usize,
    metrics: Metrics,
}

/// The registry device named by `--device <spec>`, if any.
fn device_arg() -> Option<Device> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--device")?;
    let spec = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("error: --device needs a registry spec (e.g. grid:4x4)");
        std::process::exit(2);
    });
    Some(or_exit(DeviceRegistry::new().build(spec), spec))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let device = device_arg();
    println!("# Table I: UCCSD benchmark suite\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "#Qubit",
            "#Pauli",
            "w_max",
            "#Gate",
            "#CNOT",
            "Depth",
            "Depth-2Q"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 8]));
    let mut rows = Vec::new();
    let mut tracer = Tracer::from_args("table1");
    let original: &dyn CompilerStrategy = &Baseline::Naive;
    let phoenix = phoenix_compiler();
    let suite = uccsd::table1_suite(SEED);
    let take = if quick { 2 } else { suite.len() };
    for h in suite.into_iter().take(take) {
        let naive = original.compile_logical(h.num_qubits(), h.terms());
        let m = Metrics::of(&naive);
        match &device {
            Some(dev) if dev.graph().num_qubits() >= h.num_qubits() => {
                tracer.record_device(h.name(), &phoenix, h.num_qubits(), h.terms(), dev);
            }
            Some(dev) => eprintln!(
                "note: {} has {} qubits, skipping {}-qubit {}",
                dev.name(),
                dev.graph().num_qubits(),
                h.num_qubits(),
                h.name()
            ),
            None => tracer.record_logical(h.name(), &phoenix, h.num_qubits(), h.terms()),
        }
        println!(
            "{}",
            row(&[
                h.name().to_string(),
                h.num_qubits().to_string(),
                h.len().to_string(),
                h.max_weight().to_string(),
                m.gates.to_string(),
                m.cnot.to_string(),
                m.depth.to_string(),
                m.depth_2q.to_string(),
            ])
        );
        rows.push(Row {
            benchmark: h.name().to_string(),
            qubits: h.num_qubits(),
            pauli: h.len(),
            w_max: h.max_weight(),
            metrics: m,
        });
    }
    write_results("table1", &rows);
    tracer.finish();
}
