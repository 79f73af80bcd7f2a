//! Complex linear-algebra kit and deterministic PRNG for the PHOENIX
//! quantum-compiler workspace.
//!
//! This crate is the numerical ground-truth substrate of the reproduction:
//!
//! - [`Complex`]: a minimal `f64` complex number (no external deps).
//! - [`CMatrix`]: dense complex matrices with the handful of operations the
//!   compiler stack needs — products, Kronecker products, adjoints, traces,
//!   and a scaling-and-squaring matrix exponential ([`CMatrix::expm`]) used to
//!   compute exact Hamiltonian evolutions for algorithmic-error analysis.
//! - [`matmul4`] and the fixed-size Jacobi eigensolvers
//!   ([`jacobi_symmetric`], [`jacobi_simultaneous`]): the stack-allocated
//!   kernel of the two-qubit (4×4) unitary analyses.
//! - [`Xoshiro256`]: a small, seedable, portable PRNG so every synthetic
//!   benchmark in the workspace is bit-reproducible without depending on a
//!   specific `rand` release.
//!
//! # Examples
//!
//! ```
//! use phoenix_mathkit::{CMatrix, Complex};
//!
//! let x = CMatrix::from_rows(&[
//!     &[Complex::ZERO, Complex::ONE],
//!     &[Complex::ONE, Complex::ZERO],
//! ]);
//! let xx = x.matmul(&x);
//! assert!(xx.approx_eq(&CMatrix::identity(2), 1e-12));
//! ```

mod complex;
mod eig;
mod matrix;
mod rng;

pub use complex::Complex;
pub use eig::{jacobi_simultaneous, jacobi_symmetric};
pub use matrix::{matmul4, CMatrix};
pub use rng::Xoshiro256;
