//! Device abstraction for PHOENIX hardware compilation.
//!
//! A [`Device`] is what a compile actually targets: a named piece of
//! hardware with a [`CouplingGraph`] topology, a native two-qubit ISA
//! ([`NativeIsa`]), and a [`NoiseProfile`] of per-edge 2Q, per-qubit 1Q,
//! and per-qubit readout error rates. The [`DeviceRegistry`] builds
//! devices from compact specs (`heavy-hex:3x5`, `grid:4x4@su4`,
//! `ion-trap:12`, …) with seedable error-rate profiles, so fleets of
//! heterogeneous devices can be described by name.
//!
//! The fidelity side of the story is [`Device::predicted_fidelity`]: the
//! product of per-gate success probabilities under the device's error
//! model, plus readout success over the circuit's support. It is the
//! score a fleet compile (`phoenix_core::CompileRequest::fleet`) ranks
//! its members by.
//!
//! # Examples
//!
//! ```
//! use phoenix_device::{DeviceRegistry, NativeIsa};
//!
//! let registry = DeviceRegistry::new();
//! let dev = registry.build("heavy-hex:2x3").unwrap();
//! assert!(dev.graph().num_qubits() > 6);
//! assert_eq!(dev.isa(), NativeIsa::Cnot);
//!
//! let trap = registry.build("ion-trap:8").unwrap();
//! assert_eq!(trap.isa(), NativeIsa::Su4);
//! assert_eq!(trap.graph().num_qubits(), 8);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

mod registry;

pub use registry::{DeviceRegistry, DeviceSpecError};

use phoenix_circuit::Circuit;
use phoenix_topology::CouplingGraph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The native two-qubit instruction set of a device.
///
/// Superconducting devices typically expose a CNOT-class gate; trapped-ion
/// and tunable-coupler devices can execute an arbitrary SU(4) block as one
/// native instruction (the AshN scheme of the paper's §V-D). `CnotViaKak`
/// is the CNOT ISA reached by KAK-resynthesising fused SU(4) blocks —
/// fewer CNOTs than direct lowering at extra compile cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NativeIsa {
    /// CNOT + single-qubit rotations (direct lowering).
    #[default]
    Cnot,
    /// Arbitrary fused SU(4) blocks as native 2Q instructions.
    Su4,
    /// CNOT + 1Q, reached via KAK resynthesis of fused SU(4) blocks.
    CnotViaKak,
}

impl NativeIsa {
    /// Stable lowercase name (`cnot`, `su4`, `cnot-kak`).
    pub fn name(self) -> &'static str {
        match self {
            NativeIsa::Cnot => "cnot",
            NativeIsa::Su4 => "su4",
            NativeIsa::CnotViaKak => "cnot-kak",
        }
    }
}

/// Per-edge / per-qubit error rates for a device.
///
/// Rates are probabilities of failure per operation: `eps_1q[q]` for a
/// single-qubit gate on qubit `q`, `eps_2q[&(a, b)]` for a two-qubit gate
/// on coupled pair `(a, b)` (keyed with `a < b`), and `eps_readout[q]`
/// for measuring qubit `q`. All constructors keep every rate in
/// `[0, 1)`, and edge keys follow the device graph exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseProfile {
    /// Single-qubit gate error per qubit, length `num_qubits`.
    pub eps_1q: Vec<f64>,
    /// Two-qubit gate error per coupled edge, keyed `(min, max)`.
    pub eps_2q: BTreeMap<(usize, usize), f64>,
    /// Readout error per qubit, length `num_qubits`.
    pub eps_readout: Vec<f64>,
}

/// Baseline error magnitudes for seeded profiles, matching
/// `phoenix_sim::noise::ErrorModel::ibm_like` (Falcon-era medians).
const BASE_EPS_1Q: f64 = 3e-4;
const BASE_EPS_2Q: f64 = 8e-3;
const BASE_EPS_READOUT: f64 = 1.5e-2;

impl NoiseProfile {
    /// A profile with every rate zero (ideal hardware).
    pub fn noiseless(graph: &CouplingGraph) -> Self {
        Self::uniform(graph, 0.0, 0.0, 0.0)
    }

    /// A profile with the same rate on every qubit / edge.
    pub fn uniform(graph: &CouplingGraph, eps_1q: f64, eps_2q: f64, eps_readout: f64) -> Self {
        let n = graph.num_qubits();
        NoiseProfile {
            eps_1q: vec![eps_1q; n],
            eps_2q: graph.edges().iter().map(|&e| (e, eps_2q)).collect(),
            eps_readout: vec![eps_readout; n],
        }
    }

    /// A deterministic pseudo-random profile: rates jittered around
    /// IBM-like medians (±50%), reproducible from `seed`. Edge rates are
    /// drawn in the graph's sorted edge order, so equal seeds on equal
    /// graphs give identical profiles.
    pub fn seeded(graph: &CouplingGraph, seed: u64) -> Self {
        let mut rng = phoenix_mathkit::Xoshiro256::seed_from_u64(seed);
        let n = graph.num_qubits();
        let jitter =
            |rng: &mut phoenix_mathkit::Xoshiro256, base: f64| rng.next_range_f64(0.5, 1.5) * base;
        let eps_1q = (0..n).map(|_| jitter(&mut rng, BASE_EPS_1Q)).collect();
        let eps_2q = graph
            .edges()
            .iter()
            .map(|&e| (e, jitter(&mut rng, BASE_EPS_2Q)))
            .collect();
        let eps_readout = (0..n).map(|_| jitter(&mut rng, BASE_EPS_READOUT)).collect();
        NoiseProfile {
            eps_1q,
            eps_2q,
            eps_readout,
        }
    }

    /// The worst (largest) two-qubit error rate, or 0 with no edges.
    pub fn worst_2q(&self) -> f64 {
        self.eps_2q.values().fold(0.0, |a, &b| a.max(b))
    }
}

/// A compilation target device: topology + native ISA + error model.
///
/// Construct by hand with [`Device::new`], or from a registry spec with
/// [`DeviceRegistry::build`]. [`Device::bare`] wraps a plain
/// [`CouplingGraph`] as a noiseless CNOT-ISA device.
///
/// The name, graph and noise profile are shared behind [`Arc`], so a clone
/// only bumps reference counts; equality still compares contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: Arc<str>,
    graph: Arc<CouplingGraph>,
    isa: NativeIsa,
    noise: Arc<NoiseProfile>,
}

impl Device {
    /// A device from explicit parts.
    pub fn new(
        name: impl Into<String>,
        graph: CouplingGraph,
        isa: NativeIsa,
        noise: NoiseProfile,
    ) -> Self {
        Device {
            name: name.into().into(),
            graph: Arc::new(graph),
            isa,
            noise: Arc::new(noise),
        }
    }

    /// Wrap a bare coupling graph as a noiseless CNOT-ISA device: the
    /// device a hardware-aware compile onto a plain topology targets.
    pub fn bare(graph: CouplingGraph) -> Self {
        let noise = NoiseProfile::noiseless(&graph);
        Device::new("hardware", graph, NativeIsa::Cnot, noise)
    }

    /// The device's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coupling topology.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The native two-qubit ISA.
    pub fn isa(&self) -> NativeIsa {
        self.isa
    }

    /// The error model.
    pub fn noise(&self) -> &NoiseProfile {
        &self.noise
    }

    /// Replace the native ISA (builder-style).
    pub fn with_isa(mut self, isa: NativeIsa) -> Self {
        self.isa = isa;
        self
    }

    /// Replace the noise profile (builder-style).
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = Arc::new(noise);
        self
    }

    /// Predicted fidelity of running `circuit` on this device: the
    /// product of per-gate success probabilities `(1 − ε)` under the
    /// error model, times readout success over the circuit's support.
    ///
    /// A two-qubit gate on an uncoupled pair (which routing should have
    /// eliminated) is charged the device's worst 2Q rate rather than
    /// panicking, so the estimate stays total. An SU(4) block counts as
    /// one native 2Q instruction — that is the point of the SU(4) ISA.
    /// Returns a value in `(0, 1]`; the empty circuit scores 1.
    pub fn predicted_fidelity(&self, circuit: &Circuit) -> f64 {
        let n = self.graph.num_qubits();
        let worst_2q = self.noise.worst_2q();
        let mut touched = vec![false; n];
        let mut fidelity = 1.0_f64;
        for gate in circuit.gates() {
            match gate.qubits() {
                (q, None) => {
                    if let Some(&eps) = self.noise.eps_1q.get(q) {
                        fidelity *= 1.0 - eps;
                    }
                    if q < n {
                        touched[q] = true;
                    }
                }
                (a, Some(b)) => {
                    let key = (a.min(b), a.max(b));
                    let eps = self.noise.eps_2q.get(&key).copied().unwrap_or(worst_2q);
                    fidelity *= 1.0 - eps;
                    if a < n {
                        touched[a] = true;
                    }
                    if b < n {
                        touched[b] = true;
                    }
                }
            }
        }
        for (q, hit) in touched.iter().enumerate() {
            if *hit {
                fidelity *= 1.0 - self.noise.eps_readout[q];
            }
        }
        fidelity
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use phoenix_circuit::Gate;

    #[test]
    fn bare_device_is_noiseless_cnot() {
        let dev = Device::bare(CouplingGraph::line(4));
        assert_eq!(dev.name(), "hardware");
        assert_eq!(dev.isa(), NativeIsa::Cnot);
        let mut c = Circuit::new(4);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(2, 3));
        assert_eq!(dev.predicted_fidelity(&c), 1.0);
    }

    #[test]
    fn fidelity_pins_on_hand_computed_circuits() {
        // line:3 with ε₁=0.01, ε₂=0.1, ε_ro=0.02.
        let graph = CouplingGraph::line(3);
        let dev = Device::new(
            "toy",
            graph.clone(),
            NativeIsa::Cnot,
            NoiseProfile::uniform(&graph, 0.01, 0.1, 0.02),
        );

        // H(0); CNOT(0,1): support {0,1}.
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        let expect = 0.99 * 0.9 * 0.98 * 0.98;
        assert!((dev.predicted_fidelity(&c) - expect).abs() < 1e-12);

        // CNOT(0,1); CNOT(1,2); Rz(2): support {0,1,2}.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Rz(2, 0.5));
        let expect = 0.9 * 0.9 * 0.99 * 0.98_f64.powi(3);
        assert!((dev.predicted_fidelity(&c) - expect).abs() < 1e-12);
    }

    #[test]
    fn per_edge_rates_are_respected() {
        let graph = CouplingGraph::line(3);
        let mut noise = NoiseProfile::noiseless(&graph);
        noise.eps_2q.insert((0, 1), 0.25);
        let dev = Device::new("edgy", graph, NativeIsa::Cnot, noise);
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(1, 2)); // clean edge
        assert!((dev.predicted_fidelity(&c) - 1.0).abs() < 1e-12);
        c.push(Gate::Cnot(1, 0)); // noisy edge, reversed orientation
        assert!((dev.predicted_fidelity(&c) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uncoupled_pair_is_charged_worst_edge_rate() {
        let graph = CouplingGraph::line(3);
        let dev = Device::new(
            "toy",
            graph.clone(),
            NativeIsa::Cnot,
            NoiseProfile::uniform(&graph, 0.0, 0.2, 0.0),
        );
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2)); // not an edge of line:3
        assert!((dev.predicted_fidelity(&c) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn su4_block_counts_as_one_native_instruction() {
        let graph = CouplingGraph::line(2);
        let dev = Device::new(
            "trap",
            graph.clone(),
            NativeIsa::Su4,
            NoiseProfile::uniform(&graph, 0.01, 0.1, 0.0),
        );
        let mut c = Circuit::new(2);
        c.push(Gate::Su4(Box::new(phoenix_circuit::Su4Block {
            a: 0,
            b: 1,
            inner: vec![Gate::Cnot(0, 1), Gate::H(0), Gate::Cnot(0, 1)],
        })));
        // One 2Q instruction, not 2 CNOTs + 1H.
        assert!((dev.predicted_fidelity(&c) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn seeded_profiles_are_deterministic_and_bounded() {
        let graph = CouplingGraph::grid(3, 3);
        let a = NoiseProfile::seeded(&graph, 42);
        let b = NoiseProfile::seeded(&graph, 42);
        assert_eq!(a, b);
        let c = NoiseProfile::seeded(&graph, 43);
        assert_ne!(a, c);
        for &e in a.eps_1q.iter().chain(a.eps_readout.iter()) {
            assert!(e > 0.0 && e < 1.0);
        }
        for &e in a.eps_2q.values() {
            assert!(e > 0.0 && e < 1.0);
        }
        assert_eq!(a.eps_2q.len(), graph.edges().len());
    }
}
