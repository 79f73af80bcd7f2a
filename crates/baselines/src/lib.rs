//! Baseline VQA compilers for the PHOENIX evaluation.
//!
//! The paper compares PHOENIX against TKET (PauliSimp +
//! FullPeepholeOptimise), Paulihedral (+ Qiskit O2/O3), Tetris (+ O3) and —
//! for QAOA — 2QAN. Those third-party systems are re-implemented here *by
//! strategy*, each capturing the published core idea:
//!
//! - [`naive`]: conventional per-term CNOT-chain synthesis in program order
//!   — the "original circuit" every optimization rate is measured against;
//! - [`tket_style`]: commuting-set gadget blocking with lexicographic
//!   in-set ordering (the PauliSimp strategy);
//! - [`paulihedral_style`]: support-set blocking, lexicographic in-block
//!   ordering and overlap-maximizing block chaining (the Paulihedral GCO
//!   strategy);
//! - [`tetris_style`]: routing-co-design ordering with cancellation-
//!   oblivious tree construction (strong on SWAP locality, weak at the
//!   logical level — exactly the trade-off the paper reports);
//! - [`twoqan_style`]: the 2-local specialist — edge-coloring depth-optimal
//!   layers for QAOA programs.
//!
//! Every baseline emits plain `{1Q, CNOT}` circuits;
//! [`CompilerStrategy::compile_hardware`] routes them through the same
//! peephole ("O3") + SABRE back end PHOENIX uses
//! ([`phoenix_core::try_run_hardware_backend`]), so comparisons isolate the
//! compilation strategy.

pub mod naive;
pub mod paulihedral_style;
pub mod tetris_style;
pub mod tket_style;
pub mod twoqan_style;

use phoenix_circuit::Circuit;
use phoenix_core::{CompilerStrategy, PhoenixCompiler};
use phoenix_pauli::PauliString;

/// The compiler strategies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Conventional synthesis in program order (the "original circuit").
    Naive,
    /// TKET-style PauliSimp.
    TketStyle,
    /// Paulihedral-style block-wise optimization.
    PaulihedralStyle,
    /// Tetris-style routing co-design.
    TetrisStyle,
    /// 2QAN-style 2-local specialist.
    TwoQanStyle,
}

impl Baseline {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Naive => "original",
            Baseline::TketStyle => "TKET-style",
            Baseline::PaulihedralStyle => "Paulihedral-style",
            Baseline::TetrisStyle => "Tetris-style",
            Baseline::TwoQanStyle => "2QAN-style",
        }
    }

    /// Logical compilation to `{1Q, CNOT}` (no final peephole — harnesses
    /// decide whether to attach the "O3" pass, as the paper's Table II
    /// ablates).
    pub fn compile_logical(self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        match self {
            Baseline::Naive => naive::compile(n, terms),
            Baseline::TketStyle => tket_style::compile(n, terms),
            Baseline::PaulihedralStyle => paulihedral_style::compile(n, terms),
            Baseline::TetrisStyle => tetris_style::compile(n, terms),
            Baseline::TwoQanStyle => twoqan_style::compile(n, terms),
        }
    }
}

impl CompilerStrategy for Baseline {
    fn name(&self) -> &str {
        Baseline::name(*self)
    }

    fn compile_logical(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        Baseline::compile_logical(*self, n, terms)
    }
}

/// PHOENIX followed by the four general-purpose baselines, as trait
/// objects — the column set of the paper's main tables. Harness code
/// iterates these instead of matching on [`Baseline`].
pub fn strategies() -> Vec<Box<dyn CompilerStrategy>> {
    vec![
        Box::new(Baseline::Naive),
        Box::new(Baseline::TketStyle),
        Box::new(Baseline::PaulihedralStyle),
        Box::new(Baseline::TetrisStyle),
        Box::new(PhoenixCompiler::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_topology::CouplingGraph;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.05 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn every_baseline_compiles_a_small_program() {
        let t = terms(&["XXYY", "YYXX", "ZZII", "IIZZ", "XIIX"]);
        for b in [
            Baseline::Naive,
            Baseline::TketStyle,
            Baseline::PaulihedralStyle,
            Baseline::TetrisStyle,
        ] {
            let c = b.compile_logical(4, &t);
            assert!(c.counts().cnot > 0, "{}", b.name());
            // Lowered output only.
            assert_eq!(
                c.counts().clifford2 + c.counts().pauli_rot2 + c.counts().su4,
                0
            );
        }
    }

    #[test]
    fn hardware_wrapper_respects_coupling() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let hw = Baseline::Naive.compile_hardware(4, &t, &dev);
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b));
            }
        }
    }
}
