//! A common interface over the compilers under comparison.
//!
//! The evaluation harness compares PHOENIX against several re-implemented
//! baselines (TKET-, Paulihedral-, Tetris-, 2QAN-style). [`CompilerStrategy`]
//! abstracts "a way of turning a Pauli-exponentiation program into a
//! circuit" so harness code iterates `&dyn CompilerStrategy` trait objects
//! instead of matching on per-compiler enums. The provided methods attach
//! the *shared* peephole ("O3") and hardware back ends, so a strategy only
//! has to define its logical compilation; PHOENIX overrides the hardware
//! path to use its routing-aware ordering.

use phoenix_circuit::{peephole, Circuit};
use phoenix_device::Device;
use phoenix_pauli::PauliString;
use phoenix_router::RouterOptions;
use phoenix_topology::CouplingGraph;

use crate::pipeline::{try_run_hardware_backend, HardwareProgram, PhoenixCompiler};
use crate::request::{CompileOutcome, CompileRequest, Target};

/// A compilation strategy: logical synthesis plus shared back ends.
pub trait CompilerStrategy {
    /// Display name matching the paper's terminology.
    fn name(&self) -> &str;

    /// Logical compilation to `{1Q, CNOT}` (no final peephole — harnesses
    /// decide whether to attach the "O3" pass, as the paper's Table II
    /// ablates).
    fn compile_logical(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit;

    /// Logical compilation with the shared peephole ("O3") pass attached.
    fn compile_optimized(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        peephole::optimize(&self.compile_logical(n, terms))
    }

    /// Hardware-aware compilation through the shared back end (peephole,
    /// layout search, SABRE routing, SWAP lowering, final peephole).
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer qubits than the program.
    fn compile_hardware(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> HardwareProgram {
        try_run_hardware_backend(
            &self.compile_logical(n, terms),
            device,
            &RouterOptions::default(),
            3,
        )
        .unwrap_or_else(|e| panic!("hardware backend failed: {e}"))
    }
}

/// Runs a PHOENIX request for the infallible strategy methods.
fn compiled(request: CompileRequest) -> CompileOutcome {
    request
        .run()
        .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
}

impl CompilerStrategy for PhoenixCompiler {
    fn name(&self) -> &str {
        "PHOENIX"
    }

    fn compile_logical(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        compiled(self.request(n, terms)).circuit
    }

    fn compile_optimized(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        compiled(self.request(n, terms).target(Target::Cnot)).circuit
    }

    /// PHOENIX's hardware path re-runs ordering routing-aware (Eq. (7))
    /// before the shared back end, and honours the configured router.
    fn compile_hardware(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> HardwareProgram {
        let target = Target::Device(Device::bare(device.clone()));
        compiled(self.request(n, terms).target(target))
            .hardware
            .expect("device targets carry a hardware program")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phoenix_strategy_matches_direct_calls() {
        let t: Vec<(PauliString, f64)> = [("ZYY", 0.1), ("ZZY", 0.2), ("XYY", 0.3)]
            .iter()
            .map(|(s, c)| (s.parse().unwrap(), *c))
            .collect();
        let compiler = PhoenixCompiler::default();
        let strategy: &dyn CompilerStrategy = &compiler;
        assert_eq!(strategy.name(), "PHOENIX");
        let run = |target| CompileRequest::new(3, &t).target(target).run().unwrap();
        assert_eq!(
            strategy.compile_logical(3, &t),
            run(Target::Logical).circuit
        );
        assert_eq!(strategy.compile_optimized(3, &t), run(Target::Cnot).circuit);
        let dev = CouplingGraph::line(3);
        assert_eq!(
            Some(strategy.compile_hardware(3, &t, &dev)),
            run(Target::Device(Device::bare(dev))).hardware
        );
    }
}
