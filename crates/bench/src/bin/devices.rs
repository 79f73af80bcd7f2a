//! Device sweep (beyond the paper): PHOENIX hardware-aware compilation
//! across heavy-hex generations (Falcon-27, Manhattan-65, Eagle-127) and
//! non-heavy-hex shapes (grid, line), with per-device noise-aware
//! predicted fidelities from the registry's seeded error profiles.

use phoenix_bench::{or_exit, phoenix_compiler, row, write_results, Tracer, SEED};

use phoenix_core::{Device, DeviceRegistry, Target};
use phoenix_hamil::{uccsd, Molecule};
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    device: String,
    cnot: usize,
    depth_2q: usize,
    swaps: usize,
    overhead: f64,
    fidelity: f64,
}

fn devices() -> Vec<Device> {
    let registry = DeviceRegistry::new();
    ["falcon27", "manhattan65", "eagle127", "grid:4x4", "line:16"]
        .iter()
        .map(|spec| or_exit(registry.build(spec), spec))
        .collect()
}

fn main() {
    let mut entries = Vec::new();
    let mut tracer = Tracer::from_args("devices");
    println!("# Device sweep: PHOENIX hardware-aware across topologies\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "Device",
            "#CNOT",
            "D2Q",
            "#SWAP",
            "ovh",
            "pred. fidelity"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 7]));
    for (mol, frozen) in [(Molecule::lih(), true), (Molecule::nh(), true)] {
        let h = uccsd::ansatz(mol, frozen, uccsd::Encoding::JordanWigner, SEED);
        for device in devices() {
            if device.graph().num_qubits() < h.num_qubits() {
                continue;
            }
            let outcome = or_exit(
                phoenix_compiler()
                    .request(h.num_qubits(), h.terms())
                    .target(Target::Device(device.clone()))
                    .run(),
                h.name(),
            );
            let hw = or_exit(
                outcome.hardware.as_ref().ok_or("hardware program missing"),
                h.name(),
            );
            tracer.record_device(
                &format!("{}/{}", h.name(), device.name()),
                &phoenix_compiler(),
                h.num_qubits(),
                h.terms(),
                &device,
            );
            let e = Entry {
                benchmark: h.name().to_string(),
                device: device.name().to_string(),
                cnot: hw.circuit.counts().cnot,
                depth_2q: hw.circuit.depth_2q(),
                swaps: hw.num_swaps,
                overhead: hw.routing_overhead(),
                fidelity: device.predicted_fidelity(&outcome.circuit),
            };
            println!(
                "{}",
                row(&[
                    e.benchmark.clone(),
                    e.device.clone(),
                    e.cnot.to_string(),
                    e.depth_2q.to_string(),
                    e.swaps.to_string(),
                    format!("{:.2}x", e.overhead),
                    format!("{:.3e}", e.fidelity),
                ])
            );
            entries.push(e);
        }
    }
    write_results("devices", &entries);
    tracer.finish();
}
