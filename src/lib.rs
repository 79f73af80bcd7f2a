//! PHOENIX — a Pauli-based high-level optimization engine for instruction
//! execution on NISQ devices (DAC 2025), reproduced in Rust.
//!
//! This umbrella crate re-exports the whole workspace under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`mathkit`] | `phoenix-mathkit` | complex matrices, `expm`, deterministic PRNG |
//! | [`pauli`] | `phoenix-pauli` | Pauli strings, BSF tableaux, Clifford conjugation |
//! | [`circuit`] | `phoenix-circuit` | circuit IR, peephole optimizer, SU(4) rebase, endian vectors |
//! | [`topology`] | `phoenix-topology` | coupling graphs (heavy-hex et al.) |
//! | [`hamil`] | `phoenix-hamil` | UCCSD (JW/BK), QAOA and spin-model program generators |
//! | [`router`] | `phoenix-router` | SABRE routing and layout search |
//! | [`sim`] | `phoenix-sim` | state-vector/unitary simulation, infidelity |
//! | [`core`] | `phoenix-core` | **the PHOENIX compiler** (Algorithm 1 + Tetris ordering) |
//! | [`baselines`] | `phoenix-baselines` | TKET-/Paulihedral-/Tetris-/2QAN-style baselines |
//! | [`serve`] | `phoenix-serve` | `phoenixd`: fault-tolerant compile service + client |
//!
//! # Quickstart
//!
//! ```
//! use phoenix::core::{CompileRequest, Target};
//! use phoenix::hamil::{uccsd, Molecule};
//!
//! // Build a molecular-simulation program and compile it.
//! let program = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
//! let circuit = CompileRequest::new(program.num_qubits(), program.terms())
//!     .target(Target::Cnot)
//!     .run()?
//!     .circuit;
//! println!("{} CNOTs, 2Q depth {}", circuit.counts().cnot, circuit.depth_2q());
//! # assert!(circuit.counts().cnot > 0);
//! # Ok::<(), phoenix::core::PhoenixError>(())
//! ```

pub use phoenix_baselines as baselines;
pub use phoenix_circuit as circuit;
pub use phoenix_core as core;
pub use phoenix_hamil as hamil;
pub use phoenix_mathkit as mathkit;
pub use phoenix_pauli as pauli;
pub use phoenix_router as router;
pub use phoenix_serve as serve;
pub use phoenix_sim as sim;
pub use phoenix_topology as topology;
