//! PHOENIX — the Pauli-based high-level optimization engine (DAC 2025).
//!
//! The compiler follows the paper's three-stage pipeline:
//!
//! ```text
//! IR grouping → group-wise BSF simplification → Tetris-like IR group ordering
//! ```
//!
//! 1. **[`group`]**: Pauli exponentiations are grouped by the set of qubits
//!    they act on non-trivially.
//! 2. **[`simplify`]**: each group's binary-symplectic tableau is greedily
//!    conjugated by 2Q Clifford generators (Algorithm 1, guided by the cost
//!    function of Eq. (6)) until its total weight is at most 2, leaving a
//!    nest of Clifford conjugations around directly synthesizable ≤2Q
//!    rotations.
//! 3. **[`order`]**: the simplified groups are assembled like Tetris blocks,
//!    minimizing a uniform cost that combines endian-vector depth overhead
//!    (Fig. 3), Clifford2Q cancellation credit (Fig. 4(a)), and — in
//!    hardware-aware mode — the interaction-graph similarity factor of
//!    Eq. (7) (Fig. 4(b)).
//!
//! [`CompileRequest`] is the one entry point: it runs the three stages and
//! then lowers to the requested [`Target`] — the CNOT ISA, the SU(4) ISA,
//! or a routed [`Device`] — through one pass list.
//!
//! # Examples
//!
//! ```
//! use phoenix_core::{CompileRequest, Target};
//! use phoenix_pauli::PauliString;
//!
//! // Compile the Fig. 1(b) example program.
//! let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
//!     .iter()
//!     .map(|s| (s.parse().unwrap(), 0.1))
//!     .collect();
//! let cnot = CompileRequest::new(3, &terms)
//!     .target(Target::Cnot)
//!     .run()
//!     .unwrap()
//!     .circuit;
//! // Four weight-3 exponentiations cost 16 CNOTs naively (2(w−1) each);
//! // one simultaneous Clifford conjugation brings the whole group to ≤2Q.
//! assert!(cnot.counts().cnot < 16);
//! ```

#[deny(clippy::unwrap_used)]
pub mod anytime;
#[deny(clippy::unwrap_used)]
pub mod cancel;
pub mod cost;
pub mod error;
pub mod evaluator;
pub mod group;
pub mod order;
#[deny(clippy::unwrap_used)]
mod par;
#[deny(clippy::unwrap_used)]
mod parametric;
#[deny(clippy::unwrap_used)]
pub mod pass;
#[deny(clippy::unwrap_used)]
pub mod passes;
#[deny(clippy::unwrap_used)]
mod pipeline;
#[deny(clippy::unwrap_used)]
mod request;
pub mod simplify;
mod strategy;
pub mod synth;
#[deny(clippy::unwrap_used)]
pub mod verify;

// Downstream crates (bench binaries, the CLI) work with `ObsReport` and the
// exporters directly; re-export the crate so they need no separate
// dependency edge.
pub use phoenix_obs;

// Same for the parametric compilation cache: `CompileRequest::cache` /
// `.structure()` / `.bind()` trade in its types.
pub use phoenix_cache;
pub use phoenix_cache::{BoundProgram, CacheStats, CompileCache, StructureArtifact};

// And the device layer: `Target::Device` and `CompileRequest::fleet` trade
// in its types, and the registry is the canonical way to name fleet members.
pub use phoenix_device;
pub use phoenix_device::{Device, DeviceRegistry, DeviceSpecError, NativeIsa, NoiseProfile};

pub use anytime::{AnytimePass, DeepeningController, MAX_ROUNDS};
pub use cancel::CancelToken;
pub use error::{validate_device, validate_program, PhoenixError};
pub use evaluator::CostEvaluator;
pub use group::IrGroup;
pub use pass::{
    CompileContext, EventKind, Pass, PassError, PassManager, PassObserver, PassTrace, TraceEvent,
    EVENT_DEGRADED, EVENT_RETRIED, EVENT_ROUND_ABANDONED, EVENT_TRUNCATED, EVENT_VERIFIED,
};
pub use pipeline::{try_run_hardware_backend, HardwareProgram, PhoenixCompiler, PhoenixOptions};
pub use request::{CompileOutcome, CompileRequest, FleetEntry, FleetOutcome, Target};
pub use simplify::{CfgItem, SimplifiedGroup, SimplifyOptions};
pub use strategy::CompilerStrategy;
pub use verify::BoundaryVerifier;
