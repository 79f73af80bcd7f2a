//! Pauli strings, the binary symplectic form (BSF), and Clifford conjugation
//! calculus — the formal substrate of the PHOENIX compiler.
//!
//! PHOENIX (DAC 2025) represents Hamiltonian-simulation programs as lists of
//! *Pauli exponentiations* `exp(-iθ P)` and optimizes them in the **binary
//! symplectic form**: each `n`-qubit Pauli string is a row `[X | Z]` of bits,
//! and Clifford conjugations act as column operations (Fig. 2 of the paper).
//!
//! This crate provides:
//!
//! - [`Pauli`] / [`PauliString`]: single- and multi-qubit Pauli operators with
//!   phase-tracked multiplication and symplectic commutation checks;
//! - [`PauliPolynomial`]: linear combinations of Pauli strings with complex
//!   coefficients (the output type of fermion-to-qubit encodings);
//! - [`Bsf`]: the signed binary-symplectic tableau that Algorithm 1 of the
//!   paper simplifies;
//! - [`Clifford2QKind`] / [`Clifford2Q`]: the six universal controlled gates
//!   `{C(X,X), C(Y,Y), C(Z,Z), C(X,Y), C(Y,Z), C(Z,X)}` of Eq. (5), whose
//!   tableau update rules are derived at run time from ground-truth 4×4
//!   complex-matrix conjugation rather than hand-transcribed.
//!
//! # Examples
//!
//! ```
//! use phoenix_pauli::{Bsf, Clifford2Q, Clifford2QKind, PauliString};
//!
//! // The motivating example of Fig. 1(b): conjugating by C(X,Y) on qubits
//! // (1, 2) simultaneously lowers the weight of four weight-3 strings.
//! let strings = ["ZYY", "ZZY", "XYY", "XZY"]
//!     .iter()
//!     .map(|s| (s.parse::<PauliString>().unwrap(), 1.0))
//!     .collect::<Vec<_>>();
//! let mut bsf = Bsf::from_terms(3, strings).unwrap();
//! bsf.apply_clifford2q(Clifford2Q::new(Clifford2QKind::Cxy, 1, 2));
//! assert!(bsf.rows().iter().all(|r| r.weight() == 2));
//! ```

mod algebra;
mod bsf;
pub mod canon;
mod clifford;
pub mod mask;
mod pauli;
mod string;

pub use algebra::{NonHermitianError, PauliPolynomial, PauliTerm};
pub use bsf::{fold_conjugation_sign, nibble_weight, Bsf, BsfError, BsfRow};
pub use canon::{CanonicalIr, GroupShape, WordHashMap, WordHasher};
pub use clifford::{map_nibble, Clifford2Q, Clifford2QKind, CLIFFORD2Q_GENERATORS};
pub use mask::QubitMask;
pub use pauli::Pauli;
pub use string::{ParsePauliStringError, PauliString, WidthError, MAX_QUBITS};
