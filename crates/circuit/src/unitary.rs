//! Two-qubit unitary arithmetic on the stack.
//!
//! Gate matrices, SU(4) block unitaries and the magic-basis spectrum that
//! [`kak`](crate::kak) and [`weyl`](crate::weyl) share, on fixed-size
//! arrays. Every function performs the float operations of the `CMatrix`
//! code it stands for in the same order: products go through
//! [`matmul4`] (`CMatrix::matmul`'s loops and zero skip), Kronecker
//! products skip exactly-zero left entries as `CMatrix::kron` does, and the
//! constants carry the zero signs that negating or conjugating `Complex`
//! values gives. The results are therefore identical bit for bit; that
//! matters because a zero's sign can reach `atan2`.

use crate::{Gate, Su4Block};
use phoenix_mathkit::{jacobi_simultaneous, matmul4, CMatrix, Complex};
use phoenix_pauli::{Clifford2QKind, Pauli, CLIFFORD2Q_GENERATORS};
use std::f64::consts::FRAC_1_SQRT_2;
use std::sync::OnceLock;

/// A row-major 2×2 complex matrix.
pub(crate) type U2 = [Complex; 4];
/// A row-major 4×4 complex matrix (little-endian: the local qubit 0 is the
/// basis LSB, as in [`Gate::matrix2`]).
pub(crate) type U4 = [Complex; 16];

const O: Complex = Complex::ZERO;
const L: Complex = Complex::ONE;
const I: Complex = Complex::I;
// `-z` negates both parts, so these carry a negative zero.
const NEG_L: Complex = Complex::new(-1.0, -0.0);
const NEG_I: Complex = Complex::new(-0.0, -1.0);
const H: Complex = Complex::new(FRAC_1_SQRT_2, 0.0);
const IH: Complex = Complex::new(0.0, FRAC_1_SQRT_2);

const ID2: U2 = [L, O, O, L];
#[rustfmt::skip]
const ID4: U4 = [
    L, O, O, O,
    O, L, O, O,
    O, O, L, O,
    O, O, O, L,
];
#[rustfmt::skip]
const CNOT: U4 = [
    L, O, O, O,
    O, O, O, L,
    O, O, L, O,
    O, L, O, O,
];
#[rustfmt::skip]
const SWAP: U4 = [
    L, O, O, O,
    O, O, L, O,
    O, L, O, O,
    O, O, O, L,
];

/// The magic basis `M` (columns): it maps local unitaries to real
/// orthogonal matrices.
#[rustfmt::skip]
pub(crate) const MAGIC: U4 = [
    H, O, O, IH,
    O, IH, H, O,
    O, IH, Complex::new(-FRAC_1_SQRT_2, -0.0), O,
    H, O, O, Complex::new(-0.0, -FRAC_1_SQRT_2),
];
/// `M†`.
pub(crate) const MAGIC_DAGGER: U4 = dagger(&MAGIC);

/// The conjugate transpose, entry by entry as `CMatrix::dagger`.
const fn dagger(m: &U4) -> U4 {
    let mut out = [O; 16];
    let mut k = 0;
    while k < 16 {
        let z = m[(k % 4) * 4 + k / 4];
        out[k] = Complex::new(z.re, -z.im);
        k += 1;
    }
    out
}

/// The 2×2 matrix of a Pauli, as `Pauli::to_matrix`.
pub(crate) fn pauli(p: Pauli) -> U2 {
    match p {
        Pauli::I => ID2,
        Pauli::X => [O, L, L, O],
        Pauli::Y => [O, NEG_I, I, O],
        Pauli::Z => [L, O, O, NEG_L],
    }
}

/// `a ⊗ b`, as `CMatrix::kron`: entries under an exactly-zero `a` entry
/// stay `+0`.
pub(crate) fn kron2(a: &U2, b: &U2) -> U4 {
    let mut out = [O; 16];
    for i in 0..2 {
        for j in 0..2 {
            let x = a[i * 2 + j];
            if x == O {
                continue;
            }
            for k in 0..2 {
                for l in 0..2 {
                    out[(i * 2 + k) * 4 + j * 2 + l] = x * b[k * 2 + l];
                }
            }
        }
    }
    out
}

/// `cos(θ/2)·1 − i·sin(θ/2)·p` for a 2×2 or 4×4 identity `one` and Pauli
/// product `p`: `one.scale(c) + p.scale(s)` entry by entry.
fn rotation<const N: usize>(one: &[Complex; N], p: &[Complex; N], theta: f64) -> [Complex; N] {
    let half = theta / 2.0;
    let c = Complex::from_re(half.cos());
    let s = Complex::new(0.0, -half.sin());
    std::array::from_fn(|k| one[k] * c + p[k] * s)
}

/// The 2×2 matrix of a 1Q gate, or `None` for 2Q gates.
pub(crate) fn matrix1(g: &Gate) -> Option<U2> {
    Some(match *g {
        Gate::H(_) => [H, H, H, Complex::new(-FRAC_1_SQRT_2, 0.0)],
        Gate::S(_) => [L, O, O, I],
        Gate::Sdg(_) => [L, O, O, NEG_I],
        Gate::X(_) => pauli(Pauli::X),
        Gate::Y(_) => pauli(Pauli::Y),
        Gate::Z(_) => pauli(Pauli::Z),
        Gate::Rx(_, t) => rotation(&ID2, &pauli(Pauli::X), t),
        Gate::Ry(_, t) => rotation(&ID2, &pauli(Pauli::Y), t),
        Gate::Rz(_, t) => rotation(&ID2, &pauli(Pauli::Z), t),
        _ => return None,
    })
}

/// The 4×4 matrix of a 2Q gate in its local little-endian order (the
/// gate's first qubit is the basis LSB), or `None` for 1Q gates.
pub(crate) fn matrix2(g: &Gate) -> Option<U4> {
    Some(match g {
        Gate::Cnot(..) => CNOT,
        Gate::Swap(..) => SWAP,
        Gate::Clifford2(c) => clifford(c.kind),
        Gate::PauliRot2 { pa, pb, theta, .. } => {
            // exp(-iθ/2 (pb ⊗ pa)) in little-endian kron order.
            rotation(&ID4, &kron2(&pauli(*pb), &pauli(*pa)), *theta)
        }
        Gate::Su4(blk) => block_unitary(blk),
        _ => return None,
    })
}

/// `Clifford2QKind::matrix4`, built once per kind.
fn clifford(kind: Clifford2QKind) -> U4 {
    static TABLE: OnceLock<[U4; 6]> = OnceLock::new();
    let table = TABLE.get_or_init(|| CLIFFORD2Q_GENERATORS.map(|k| read(&k.matrix4())));
    table[kind.index()]
}

/// The unitary of a fused block: the product of its inner gates' matrices
/// on the block's local space, where qubit `blk.b` is the MSB.
///
/// # Panics
///
/// Panics if an inner gate acts outside `{blk.a, blk.b}`.
pub(crate) fn block_unitary(blk: &Su4Block) -> U4 {
    let mut u = ID4;
    for g in &blk.inner {
        u = matmul4(&embed(g, blk), &u);
    }
    u
}

/// An inner gate's matrix on its block's local space.
fn embed(g: &Gate, blk: &Su4Block) -> U4 {
    let on_block = |q: usize| q == blk.a || q == blk.b;
    if let Some(m1) = matrix1(g) {
        let (q, _) = g.qubits();
        assert!(on_block(q), "su4 inner gate leaves the block");
        if q == blk.b {
            kron2(&m1, &ID2)
        } else {
            kron2(&ID2, &m1)
        }
    } else {
        let m2 = matrix2(g).expect("gate is 1q or 2q");
        let (ga, gb) = g.qubits();
        let gb = gb.expect("2q gate");
        assert!(
            on_block(ga) && on_block(gb),
            "su4 inner gate leaves the block"
        );
        if ga == blk.b {
            // Swap the roles of the two local qubits: conjugate by SWAP.
            matmul4(&matmul4(&SWAP, &m2), &SWAP)
        } else {
            m2
        }
    }
}

/// A `CMatrix` holding a row-major `dim × dim` array.
pub(crate) fn to_cmatrix(dim: usize, m: &[Complex]) -> CMatrix {
    CMatrix::from_fn(dim, dim, |i, j| m[i * dim + j])
}

/// The entries of a 4×4 `CMatrix`.
///
/// # Panics
///
/// Panics if `u` is not 4×4, with the messages of the unitarity checks.
pub(crate) fn read(u: &CMatrix) -> U4 {
    assert_eq!(u.rows(), 4, "expected a 4×4 unitary");
    assert!(u.cols() == 4, "matrix must be unitary");
    std::array::from_fn(|k| u[(k / 4, k % 4)])
}

/// The determinant by Laplace expansion along the first row.
pub(crate) fn det4(u: &U4) -> Complex {
    let mut det = Complex::ZERO;
    for c in 0..4 {
        let cols: [usize; 3] = std::array::from_fn(|j| j + usize::from(j >= c));
        let m = |i: usize, j: usize| u[(i + 1) * 4 + cols[j]];
        let minor = m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1))
            - m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0))
            + m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0));
        let sign = if c % 2 == 0 { L } else { NEG_L };
        det += sign * u[c] * minor;
    }
    det
}

/// The magic-basis spectrum of a two-qubit unitary `U`.
pub(crate) struct Spectrum {
    /// `φ = arg(det U)/4`, so `e^{-iφ}·U` lies in SU(4).
    pub phase: f64,
    /// `V = M†·e^{-iφ}U·M`.
    pub v: U4,
    /// Eigenvector columns of `W = VᵀV`, shared by `Re W` and `Im W`.
    pub q: [[f64; 4]; 4],
    /// Eigenphases `θⱼ` of `√W`, with `Σθ = 0` exactly.
    pub theta: [f64; 4],
}

/// Computes `U`'s spectrum: det → SU(4) phase → `V` → `W = VᵀV` →
/// simultaneous Jacobi on `Re W`, `Im W` → `θ`.
///
/// # Panics
///
/// Panics if `u` is not unitary within `1e-9`.
pub(crate) fn spectrum(u: &U4) -> Spectrum {
    // `CMatrix::is_unitary(1e-9)`: U†U is the identity entry by entry.
    let udu = matmul4(&dagger(u), u);
    assert!(
        udu.iter().zip(&ID4).all(|(a, b)| a.approx_eq(*b, 1e-9)),
        "matrix must be unitary"
    );
    let det = det4(u);
    let phase = det.im.atan2(det.re) / 4.0;
    let s = Complex::cis(-phase);
    let su = u.map(|z| z * s);
    let v = matmul4(&matmul4(&MAGIC_DAGGER, &su), &MAGIC);

    // W = Vᵀ V (complex symmetric unitary), split into commuting real
    // symmetric parts.
    let mut re = [[0.0; 4]; 4];
    let mut im = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            let mut acc = Complex::ZERO;
            for k in 0..4 {
                acc += v[k * 4 + i] * v[k * 4 + j];
            }
            re[i][j] = acc.re;
            im[i][j] = acc.im;
        }
    }
    let (alpha, beta, q) = jacobi_simultaneous(&re, &im);
    let mut theta: [f64; 4] = std::array::from_fn(|j| beta[j].atan2(alpha[j]) / 2.0);
    // det W = 1 ⇒ Σθ ≡ 0 (mod π); pin it to zero exactly.
    let sigma: f64 = theta.iter().sum();
    theta[3] -= sigma;
    Spectrum { phase, v, q, theta }
}
