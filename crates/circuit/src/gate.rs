//! The gate vocabulary.

use crate::unitary;
use phoenix_mathkit::CMatrix;
use phoenix_pauli::{Clifford2Q, Pauli};
use std::fmt;

/// A fused SU(4) block: an arbitrary two-qubit unitary represented by the
/// basic-gate sequence it was fused from.
///
/// The SU(4) ISA of the paper (its §V-D, following the AshN gate scheme)
/// treats *any* two-qubit unitary as one native instruction; we keep the
/// constituent gates so the block remains simulable and lowerable.
#[derive(Debug, Clone, PartialEq)]
pub struct Su4Block {
    /// First qubit (lower index by convention).
    pub a: usize,
    /// Second qubit.
    pub b: usize,
    /// The fused gate sequence; every gate acts only on `a` and/or `b`.
    pub inner: Vec<Gate>,
}

/// A quantum gate.
///
/// Angle conventions: `Rx/Ry/Rz(q, θ) = exp(-i·θ/2·P)` and
/// [`Gate::PauliRot2`] implements `exp(-i·θ/2·(P_a ⊗ P_b))`, so a
/// Hamiltonian term `h·P` within a Trotter step corresponds to `θ = 2h`.
///
/// # Examples
///
/// ```
/// use phoenix_circuit::Gate;
///
/// let g = Gate::Cnot(0, 1);
/// assert!(g.is_two_qubit());
/// assert_eq!(g.qubits(), (0, Some(1)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// Inverse phase gate.
    Sdg(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// `exp(-i·θ/2·X)`.
    Rx(usize, f64),
    /// `exp(-i·θ/2·Y)`.
    Ry(usize, f64),
    /// `exp(-i·θ/2·Z)`.
    Rz(usize, f64),
    /// Controlled-NOT `(control, target)`.
    Cnot(usize, usize),
    /// SWAP.
    Swap(usize, usize),
    /// A 2Q Clifford generator `C(σ₀,σ₁)` (high-level; CNOT-equivalent).
    Clifford2(Clifford2Q),
    /// Two-qubit Pauli rotation `exp(-i·θ/2·(pa ⊗ pb))` (high-level).
    PauliRot2 {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
        /// Pauli on `a` (non-identity).
        pa: Pauli,
        /// Pauli on `b` (non-identity).
        pb: Pauli,
        /// Rotation angle.
        theta: f64,
    },
    /// A fused SU(4) block (the SU(4)-ISA native 2Q instruction).
    Su4(Box<Su4Block>),
}

impl Gate {
    /// The qubits the gate acts on: `(first, second)`.
    pub fn qubits(&self) -> (usize, Option<usize>) {
        match *self {
            Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _) => (q, None),
            Gate::Cnot(a, b) | Gate::Swap(a, b) => (a, Some(b)),
            Gate::Clifford2(c) => (c.a, Some(c.b)),
            Gate::PauliRot2 { a, b, .. } => (a, Some(b)),
            Gate::Su4(ref blk) => (blk.a, Some(blk.b)),
        }
    }

    /// Whether the gate acts on two qubits.
    pub fn is_two_qubit(&self) -> bool {
        self.qubits().1.is_some()
    }

    /// Whether the gate acts on qubit `q`.
    pub fn acts_on(&self, q: usize) -> bool {
        let (a, b) = self.qubits();
        a == q || b == Some(q)
    }

    /// Returns a copy with every qubit index remapped through `f`.
    ///
    /// Used by routing to translate logical circuits to physical ones.
    pub fn map_qubits(&self, f: &mut impl FnMut(usize) -> usize) -> Gate {
        match self {
            Gate::H(q) => Gate::H(f(*q)),
            Gate::S(q) => Gate::S(f(*q)),
            Gate::Sdg(q) => Gate::Sdg(f(*q)),
            Gate::X(q) => Gate::X(f(*q)),
            Gate::Y(q) => Gate::Y(f(*q)),
            Gate::Z(q) => Gate::Z(f(*q)),
            Gate::Rx(q, t) => Gate::Rx(f(*q), *t),
            Gate::Ry(q, t) => Gate::Ry(f(*q), *t),
            Gate::Rz(q, t) => Gate::Rz(f(*q), *t),
            Gate::Cnot(a, b) => Gate::Cnot(f(*a), f(*b)),
            Gate::Swap(a, b) => Gate::Swap(f(*a), f(*b)),
            Gate::Clifford2(c) => Gate::Clifford2(Clifford2Q::new(c.kind, f(c.a), f(c.b))),
            Gate::PauliRot2 {
                a,
                b,
                pa,
                pb,
                theta,
            } => Gate::PauliRot2 {
                a: f(*a),
                b: f(*b),
                pa: *pa,
                pb: *pb,
                theta: *theta,
            },
            Gate::Su4(blk) => Gate::Su4(Box::new(Su4Block {
                a: f(blk.a),
                b: f(blk.b),
                inner: blk.inner.iter().map(|g| g.map_qubits(f)).collect(),
            })),
        }
    }

    /// 2×2 matrix of a 1Q gate, or `None` for 2Q gates.
    pub fn matrix1(&self) -> Option<CMatrix> {
        unitary::matrix1(self).map(|m| unitary::to_cmatrix(2, &m))
    }

    /// 4×4 matrix of a 2Q gate in the *local little-endian* order (the
    /// gate's first qubit is the basis LSB), or `None` for 1Q gates.
    ///
    /// # Panics
    ///
    /// Panics if an [`Su4Block`] holds a gate acting outside its two qubits.
    pub fn matrix2(&self) -> Option<CMatrix> {
        unitary::matrix2(self).map(|m| unitary::to_cmatrix(4, &m))
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::H(q) => write!(f, "h q{q}"),
            Gate::S(q) => write!(f, "s q{q}"),
            Gate::Sdg(q) => write!(f, "sdg q{q}"),
            Gate::X(q) => write!(f, "x q{q}"),
            Gate::Y(q) => write!(f, "y q{q}"),
            Gate::Z(q) => write!(f, "z q{q}"),
            Gate::Rx(q, t) => write!(f, "rx({t:.4}) q{q}"),
            Gate::Ry(q, t) => write!(f, "ry({t:.4}) q{q}"),
            Gate::Rz(q, t) => write!(f, "rz({t:.4}) q{q}"),
            Gate::Cnot(a, b) => write!(f, "cx q{a}, q{b}"),
            Gate::Swap(a, b) => write!(f, "swap q{a}, q{b}"),
            Gate::Clifford2(c) => write!(f, "{c}"),
            Gate::PauliRot2 {
                a,
                b,
                pa,
                pb,
                theta,
            } => {
                write!(f, "r{}{}({theta:.4}) q{a}, q{b}", pa, pb)
            }
            Gate::Su4(blk) => write!(f, "su4[{} gates] q{}, q{}", blk.inner.len(), blk.a, blk.b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_mathkit::Complex;
    use phoenix_pauli::Clifford2QKind;

    #[test]
    fn qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits(), (3, None));
        assert!(!Gate::Rz(0, 0.1).is_two_qubit());
        assert!(Gate::Swap(1, 2).is_two_qubit());
        assert!(Gate::Clifford2(Clifford2Q::new(Clifford2QKind::Cxy, 4, 7)).acts_on(7));
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::Cnot(0, 1).map_qubits(&mut |q| q + 10);
        assert_eq!(g, Gate::Cnot(10, 11));
    }

    #[test]
    fn rotation_matrices_are_unitary() {
        for g in [Gate::Rx(0, 0.7), Gate::Ry(0, -1.3), Gate::Rz(0, 2.9)] {
            assert!(g.matrix1().unwrap().is_unitary(1e-13), "{g}");
        }
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let m = Gate::Rz(0, std::f64::consts::PI).matrix1().unwrap();
        // Rz(π) = diag(e^{-iπ/2}, e^{iπ/2}) = diag(-i, i)
        assert!(m[(0, 0)].approx_eq(-Complex::I, 1e-15));
        assert!(m[(1, 1)].approx_eq(Complex::I, 1e-15));
        assert!(m[(0, 1)].approx_eq(Complex::ZERO, 1e-15));
    }

    #[test]
    fn pauli_rot2_zz_is_diagonal() {
        let g = Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::Z,
            pb: Pauli::Z,
            theta: 0.8,
        };
        let m = g.matrix2().unwrap();
        assert!(m.is_unitary(1e-13));
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(m[(i, j)].approx_eq(Complex::ZERO, 1e-15));
                }
            }
        }
        // diag phases: exp(∓iθ/2) with sign from Z⊗Z eigenvalue (+,-,-,+)
        assert!(m[(0, 0)].approx_eq(Complex::cis(-0.4), 1e-13));
        assert!(m[(1, 1)].approx_eq(Complex::cis(0.4), 1e-13));
        assert!(m[(3, 3)].approx_eq(Complex::cis(-0.4), 1e-13));
    }

    #[test]
    fn su4_block_of_cnot_equals_cnot_matrix() {
        let blk = Gate::Su4(Box::new(Su4Block {
            a: 2,
            b: 5,
            inner: vec![Gate::Cnot(2, 5)],
        }));
        let cnot = Gate::Cnot(0, 1).matrix2().unwrap();
        assert!(blk.matrix2().unwrap().approx_eq(&cnot, 1e-13));
    }

    #[test]
    fn su4_block_respects_qubit_orientation() {
        // A CNOT with control on the block's *second* qubit must be the
        // SWAP-conjugated matrix.
        let blk = Gate::Su4(Box::new(Su4Block {
            a: 2,
            b: 5,
            inner: vec![Gate::Cnot(5, 2)],
        }));
        let cnot = Gate::Cnot(0, 1).matrix2().unwrap();
        let swap = Gate::Swap(0, 1).matrix2().unwrap();
        let flipped = swap.matmul(&cnot).matmul(&swap);
        assert!(blk.matrix2().unwrap().approx_eq(&flipped, 1e-13));
    }

    #[test]
    fn display_mentions_qubits() {
        assert_eq!(Gate::Cnot(1, 4).to_string(), "cx q1, q4");
        assert!(Gate::Rz(2, 0.5).to_string().contains("q2"));
    }
}
