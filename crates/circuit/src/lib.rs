//! Quantum circuit IR and circuit-level analyses for the PHOENIX compiler.
//!
//! This crate is the gate-level substrate of the reproduction. It provides:
//!
//! - [`Gate`] / [`Circuit`]: a compact circuit IR whose vocabulary spans both
//!   the high-level objects PHOENIX manipulates (2Q Clifford generators,
//!   ≤2-qubit Pauli rotations, fused SU(4) blocks) and the basic gates of the
//!   CNOT ISA;
//! - [`Circuit::lower_to_cnot`]: structural synthesis into `{1Q, CNOT}`;
//! - [`rebase::to_su4`]: rebase into the SU(4) ISA by fusing maximal
//!   same-pair runs of 2Q gates (the "continuous ISA" of the paper's §V-D);
//! - [`peephole::optimize`]: a fixed-point gate-cancellation pass (adjacent
//!   and commuting CNOT cancellation, 1Q rotation merging) standing in for
//!   the Qiskit O2/O3 passes used in the paper's harness;
//! - [`interaction`]: the 2Q support and the head/tail interaction graphs
//!   from which Tetris-like ordering scores the similarity factor of
//!   Eq. (7).
//!
//! # Examples
//!
//! ```
//! use phoenix_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::H(0));
//! c.push(Gate::Cnot(0, 1));
//! c.push(Gate::Cnot(1, 2));
//! assert_eq!(c.depth_2q(), 2);
//! assert_eq!(c.counts().cnot, 2);
//! ```

mod circuit;
pub mod draw;
mod gate;
pub mod interaction;
pub mod kak;
pub mod peephole;
pub mod qasm;
pub mod rebase;
pub mod synthesis;
mod unitary;
pub mod weyl;

pub use circuit::{Circuit, GateCounts};
pub use gate::{Gate, Su4Block};
