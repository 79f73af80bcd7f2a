//! The compiler's fault boundary: every way PHOENIX rejects or abandons a
//! compilation, as one typed error.
//!
//! [`PhoenixError`] is returned by
//! [`CompileRequest::run`](crate::CompileRequest::run) (and its
//! `bind`/`structure`/`fleet` siblings) and by
//! [`try_run_hardware_backend`](crate::try_run_hardware_backend). It wraps
//! every lower-level error of the workspace — pass failures
//! ([`PassError`]), routing ([`RouteError`]), QASM ingestion
//! ([`ParseQasmError`]), tableau construction ([`BsfError`]) and program
//! construction ([`HamilError`]) — behind `From` conversions, and adds the
//! up-front input-validation variants ([`validate_program`],
//! [`validate_device`]) that turn would-be panics deep inside the pipeline
//! into diagnostics at the boundary.

#![deny(clippy::unwrap_used)]

use std::fmt;

use phoenix_cache::{BindError, DecodeError};
use phoenix_circuit::qasm::ParseQasmError;
use phoenix_hamil::HamilError;
use phoenix_pauli::{BsfError, NonHermitianError, PauliString, MAX_QUBITS};
use phoenix_router::RouteError;
use phoenix_topology::CouplingGraph;

use crate::pass::PassError;

/// Why a compilation was rejected or abandoned.
///
/// Validation variants are produced before any pipeline stage runs, so a
/// malformed program never reaches code that would panic on it; wrapped
/// variants carry failures surfaced by the stages themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum PhoenixError {
    /// The register width is outside the supported range: zero qubits with
    /// a nonempty program, or more than [`MAX_QUBITS`].
    UnsupportedWidth {
        /// The requested register width.
        num_qubits: usize,
    },
    /// A term's Pauli string acts on a different number of qubits than the
    /// program declares.
    TermWidthMismatch {
        /// Index of the offending term.
        index: usize,
        /// The declared register width.
        expected: usize,
        /// The term's width.
        found: usize,
    },
    /// A term's Pauli string is empty (zero qubits).
    EmptyPauliString {
        /// Index of the offending term.
        index: usize,
    },
    /// A term's coefficient is NaN or infinite.
    NonFiniteCoefficient {
        /// Index of the offending term.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The target device has fewer qubits than the program.
    DeviceTooSmall {
        /// Qubits the program needs.
        program: usize,
        /// Qubits the device offers.
        device: usize,
    },
    /// The target device is disconnected, so some 2Q interactions can
    /// never be routed.
    DisconnectedDevice {
        /// Qubits of the device.
        device: usize,
    },
    /// A pipeline pass failed (precondition violation or a contained
    /// panic).
    Pass(PassError),
    /// Routing was abandoned.
    Route(RouteError),
    /// QASM ingestion failed.
    Qasm(ParseQasmError),
    /// Tableau construction rejected the terms.
    Bsf(BsfError),
    /// Program construction rejected the terms.
    Hamil(HamilError),
    /// A Hamiltonian had a non-Hermitian term (an imaginary coefficient
    /// beyond tolerance), so it defines no real Pauli-rotation program.
    NonHermitian(NonHermitianError),
    /// A structure-phase skeleton failed to decode into a rebindable
    /// artifact (an emitted angle was not a recognizable slot encoding).
    StructureDecode(DecodeError),
    /// Binding concrete angles into a cached structure artifact failed.
    Bind(BindError),
    /// A fleet compilation was requested with an empty device list.
    EmptyFleet,
    /// The compilation was abandoned at its next poll point (a pass
    /// boundary, a greedy epoch, the ordering loop or a deepening round)
    /// because its [`CancelToken`](crate::cancel::CancelToken) fired.
    Cancelled,
}

impl fmt::Display for PhoenixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhoenixError::UnsupportedWidth { num_qubits } => write!(
                f,
                "unsupported register width {num_qubits} (must be 1..={MAX_QUBITS}, \
                 or 0 only for an empty program)"
            ),
            PhoenixError::TermWidthMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "term {index} acts on {found} qubits but the program declares {expected}"
            ),
            PhoenixError::EmptyPauliString { index } => {
                write!(f, "term {index} has an empty pauli string")
            }
            PhoenixError::NonFiniteCoefficient { index, value } => {
                write!(f, "term {index} has non-finite coefficient {value}")
            }
            PhoenixError::DeviceTooSmall { program, device } => write!(
                f,
                "device has {device} qubits but the program needs {program}"
            ),
            PhoenixError::DisconnectedDevice { device } => write!(
                f,
                "target device ({device} qubits) is disconnected; routing cannot succeed"
            ),
            PhoenixError::Pass(e) => write!(f, "{e}"),
            PhoenixError::Route(e) => write!(f, "routing failed: {e}"),
            PhoenixError::Qasm(e) => write!(f, "{e}"),
            PhoenixError::Bsf(e) => write!(f, "{e}"),
            PhoenixError::Hamil(e) => write!(f, "{e}"),
            PhoenixError::NonHermitian(e) => write!(f, "{e}"),
            PhoenixError::StructureDecode(e) => write!(f, "structure decode failed: {e}"),
            PhoenixError::Bind(e) => write!(f, "angle binding failed: {e}"),
            PhoenixError::EmptyFleet => {
                write!(f, "fleet compilation requires at least one device")
            }
            PhoenixError::Cancelled => write!(f, "compilation cancelled by client"),
        }
    }
}

impl std::error::Error for PhoenixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhoenixError::Pass(e) => Some(e),
            PhoenixError::Route(e) => Some(e),
            PhoenixError::Qasm(e) => Some(e),
            PhoenixError::Bsf(e) => Some(e),
            PhoenixError::Hamil(e) => Some(e),
            PhoenixError::NonHermitian(e) => Some(e),
            PhoenixError::StructureDecode(e) => Some(e),
            PhoenixError::Bind(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PassError> for PhoenixError {
    fn from(e: PassError) -> Self {
        if e.is_cancellation() {
            PhoenixError::Cancelled
        } else {
            PhoenixError::Pass(e)
        }
    }
}

impl From<RouteError> for PhoenixError {
    fn from(e: RouteError) -> Self {
        PhoenixError::Route(e)
    }
}

impl From<ParseQasmError> for PhoenixError {
    fn from(e: ParseQasmError) -> Self {
        PhoenixError::Qasm(e)
    }
}

impl From<BsfError> for PhoenixError {
    fn from(e: BsfError) -> Self {
        PhoenixError::Bsf(e)
    }
}

impl From<HamilError> for PhoenixError {
    fn from(e: HamilError) -> Self {
        PhoenixError::Hamil(e)
    }
}

impl From<NonHermitianError> for PhoenixError {
    fn from(e: NonHermitianError) -> Self {
        PhoenixError::NonHermitian(e)
    }
}

impl From<DecodeError> for PhoenixError {
    fn from(e: DecodeError) -> Self {
        PhoenixError::StructureDecode(e)
    }
}

impl From<BindError> for PhoenixError {
    fn from(e: BindError) -> Self {
        PhoenixError::Bind(e)
    }
}

/// Validates a Pauli-exponentiation program before compilation: the
/// register width must be representable (`1..=MAX_QUBITS`, or `0` for an
/// empty program), every term must act on exactly `n` qubits with a
/// nonempty string, and every coefficient must be finite.
///
/// # Errors
///
/// The first violation found, as a [`PhoenixError`].
pub fn validate_program(n: usize, terms: &[(PauliString, f64)]) -> Result<(), PhoenixError> {
    if n > MAX_QUBITS || (n == 0 && !terms.is_empty()) {
        return Err(PhoenixError::UnsupportedWidth { num_qubits: n });
    }
    for (index, (p, c)) in terms.iter().enumerate() {
        if p.num_qubits() == 0 {
            return Err(PhoenixError::EmptyPauliString { index });
        }
        if p.num_qubits() != n {
            return Err(PhoenixError::TermWidthMismatch {
                index,
                expected: n,
                found: p.num_qubits(),
            });
        }
        if !c.is_finite() {
            return Err(PhoenixError::NonFiniteCoefficient { index, value: *c });
        }
    }
    Ok(())
}

/// Validates a routing target for an `n`-qubit program: the device must
/// offer at least `n` qubits and, for multi-qubit programs, be connected.
///
/// # Errors
///
/// [`PhoenixError::DeviceTooSmall`] or
/// [`PhoenixError::DisconnectedDevice`].
pub fn validate_device(n: usize, device: &CouplingGraph) -> Result<(), PhoenixError> {
    if device.num_qubits() < n {
        return Err(PhoenixError::DeviceTooSmall {
            program: n,
            device: device.num_qubits(),
        });
    }
    if n > 1 && !device.is_connected() {
        return Err(PhoenixError::DisconnectedDevice {
            device: device.num_qubits(),
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn valid_programs_pass() {
        assert_eq!(validate_program(0, &[]), Ok(()));
        assert_eq!(validate_program(3, &[]), Ok(()));
        assert_eq!(validate_program(2, &[(ps("XY"), 0.5)]), Ok(()));
    }

    #[test]
    fn zero_qubit_program_with_terms_is_rejected() {
        // A 0-qubit string is caught by the width check before the
        // per-term checks run.
        let e = validate_program(0, &[(ps(""), 1.0)]).unwrap_err();
        assert_eq!(e, PhoenixError::UnsupportedWidth { num_qubits: 0 });
    }

    #[test]
    fn oversized_register_is_rejected() {
        let e = validate_program(MAX_QUBITS + 1, &[]).unwrap_err();
        assert!(matches!(e, PhoenixError::UnsupportedWidth { .. }));
    }

    #[test]
    fn wrong_length_term_is_rejected_with_its_index() {
        let e = validate_program(3, &[(ps("XYZ"), 0.1), (ps("XY"), 0.1)]).unwrap_err();
        assert_eq!(
            e,
            PhoenixError::TermWidthMismatch {
                index: 1,
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn empty_string_term_is_rejected() {
        let e = validate_program(1, &[(ps(""), 0.1)]).unwrap_err();
        assert_eq!(e, PhoenixError::EmptyPauliString { index: 0 });
    }

    #[test]
    fn non_finite_coefficients_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = validate_program(1, &[(ps("X"), bad)]).unwrap_err();
            assert!(matches!(
                e,
                PhoenixError::NonFiniteCoefficient { index: 0, .. }
            ));
        }
    }

    #[test]
    fn undersized_and_disconnected_devices_are_rejected() {
        let small = CouplingGraph::line(2);
        assert_eq!(
            validate_device(4, &small).unwrap_err(),
            PhoenixError::DeviceTooSmall {
                program: 4,
                device: 2
            }
        );
        let disconnected = CouplingGraph::from_edges(4, [(0, 1)]);
        assert!(matches!(
            validate_device(3, &disconnected).unwrap_err(),
            PhoenixError::DisconnectedDevice { device: 4 }
        ));
        assert_eq!(validate_device(3, &CouplingGraph::line(5)), Ok(()));
    }

    #[test]
    fn display_is_informative() {
        let e = PhoenixError::NonFiniteCoefficient {
            index: 2,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("term 2"));
        let wrapped: PhoenixError = PassError::new("concat", "boom").into();
        assert!(wrapped.to_string().contains("concat"));
    }
}
