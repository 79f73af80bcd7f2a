//! Translation validation for the PHOENIX compiler.
//!
//! Compilers earn trust by being *checked*, not read. This crate provides
//! the reusable equivalence-checking engine behind the repository's
//! differential and metamorphic test suites and the `verifybench` binary:
//!
//! - [`engine`] — three-tier equivalence checks: exact dense unitary
//!   comparison against the Trotter product (tier 1, `n ≲ 10`),
//!   stabilizer-tableau equivalence and Clifford-skeleton identity
//!   (tier 2, any width), and random-product-state spot checks (tier 3,
//!   `n ≲ 24`), plus permutation-aware equivalence for routed circuits;
//! - [`gen`] — [`RandomProgramGen`](gen::RandomProgramGen): seeded random
//!   programs in UCCSD-like, Ising-like and unstructured families, with a
//!   greedy [`shrink`](gen::shrink) minimizer for counterexamples;
//! - [`differential`] — [`verify_program`](differential::verify_program):
//!   drives PHOENIX (all five targets) and the four baselines over
//!   one program, checking each output and all pairs;
//! - [`metamorphic`] — compilation commutes with qubit relabeling, term
//!   permutation, coefficient scaling and program concatenation;
//! - [`anytime`] — the any-deadline suite: every interruption point of a
//!   budgeted compile (logical round caps, adversarial wall budgets,
//!   mid-round cancellation) yields an exactly equivalent circuit, with
//!   quality monotone in the budget;
//! - `sabotage` (feature-gated) — a deliberately miscompiling strategy
//!   proving the engine catches real bugs.
//!
//! The tolerance discipline: PHOENIX outputs carry their implemented
//! `term_order`, so they are checked *exactly* (infidelity ≤ 10⁻⁹).
//! Baselines reorder terms without reporting the order, so they are checked
//! against the reference order within the second-order Trotter-reorder
//! tolerance `8B² + ε`, with `B` the first-order commutator bound — see
//! [`engine::reorder_tolerance`] and DESIGN.md §2.8.

pub mod anytime;
pub mod differential;
pub mod engine;
pub mod gen;
pub mod metamorphic;
pub mod parametric;
#[cfg(feature = "sabotage")]
pub mod sabotage;

pub use anytime::{anytime_failures, verify_anytime};
pub use differential::{verify_program, Failure, VerifyConfig};
pub use engine::{
    check_clifford_equivalent, check_exact_unitary, check_routed_equivalence,
    check_skeleton_identity, check_states_vs_order, check_unitary_vs_reference, clifford_skeleton,
    reorder_tolerance, trotter_bound, Outcome,
};
pub use gen::{shrink, Family, Program, RandomProgramGen};
pub use metamorphic::metamorphic_failures;
pub use parametric::{parametric_failures, verify_parametric};
