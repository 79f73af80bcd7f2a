//! Hardware-aware integration: every compiler's mapped output must respect
//! the coupling graph, and the routing bookkeeping must be consistent.

use phoenix::baselines::Baseline;
use phoenix::circuit::Circuit;
use phoenix::core::{CompileRequest, CompilerStrategy, Device, HardwareProgram, Target};
use phoenix::hamil::{qaoa, uccsd, Hamiltonian, Molecule};
use phoenix::topology::CouplingGraph;

fn phoenix_hardware(h: &Hamiltonian, device: &CouplingGraph) -> HardwareProgram {
    CompileRequest::new(h.num_qubits(), h.terms())
        .target(Target::Device(Device::bare(device.clone())))
        .run()
        .unwrap()
        .hardware
        .unwrap()
}

fn assert_respects_coupling(c: &Circuit, device: &CouplingGraph, label: &str) {
    for g in c.gates() {
        if let (a, Some(b)) = g.qubits() {
            assert!(
                device.contains_edge(a, b),
                "{label}: gate {g} on non-coupled pair"
            );
        }
    }
}

#[test]
fn phoenix_mapped_output_respects_heavy_hex() {
    let device = CouplingGraph::manhattan65();
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let hw = phoenix_hardware(&h, &device);
    assert_respects_coupling(&hw.circuit, &device, "PHOENIX");
    assert!(hw.routing_overhead() >= 1.0);
    assert!(hw.circuit.counts().cnot >= hw.logical.counts().cnot);
}

#[test]
fn baselines_mapped_output_respects_heavy_hex() {
    let device = CouplingGraph::manhattan65();
    let h = qaoa::benchmark(qaoa::QaoaKind::Rand4, 16, 5);
    for b in [
        Baseline::PaulihedralStyle,
        Baseline::TetrisStyle,
        Baseline::TwoQanStyle,
    ] {
        let hw = b.compile_hardware(h.num_qubits(), h.terms(), &device);
        assert_respects_coupling(&hw.circuit, &device, b.name());
    }
}

#[test]
fn all_to_all_needs_no_routing() {
    let device = CouplingGraph::all_to_all(10);
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::BravyiKitaev, 7);
    let hw = phoenix_hardware(&h, &device);
    assert_eq!(hw.num_swaps, 0);
}

#[test]
fn smaller_devices_also_work() {
    // Route a 10-qubit program onto a 3×4 grid and a 12-qubit line.
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::JordanWigner, 7);
    for device in [CouplingGraph::grid(3, 4), CouplingGraph::line(12)] {
        let hw = phoenix_hardware(&h, &device);
        assert_respects_coupling(&hw.circuit, &device, "grid/line");
        assert!(hw.num_swaps > 0, "sparse devices need swaps");
    }
}
