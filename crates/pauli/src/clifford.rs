//! The six universal-controlled-gate generators of the 2Q Clifford group and
//! their conjugation action on Pauli strings.
//!
//! PHOENIX searches over the generator set of Eq. (5),
//! `{C(X,X), C(Y,Y), C(Z,Z), C(X,Y), C(Y,Z), C(Z,X)}`, where
//! `C(σ₀, σ₁) = ½((I+σ₀)⊗I + (I−σ₀)⊗σ₁)`. Every generator is Hermitian and
//! CNOT-equivalent (`C(Z,X)` *is* CNOT).
//!
//! The tableau update rule of each generator — how it rewrites the 4-bit
//! nibble `(x_a, z_a, x_b, z_b)` of a BSF row and whether it flips the row's
//! sign — is derived here from ground-truth 4×4 complex-matrix conjugation
//! and cached. This removes transcription errors in the update rules of
//! Fig. 2 / Eq. (3) of the paper and is cross-checked by unit tests.

use crate::Pauli;
use phoenix_mathkit::{CMatrix, Complex};
use std::fmt;
use std::sync::OnceLock;

/// One of the six 2Q Clifford generators `C(σ₀, σ₁)` of Eq. (5).
///
/// # Examples
///
/// ```
/// use phoenix_pauli::{Clifford2QKind, Pauli};
///
/// assert_eq!(Clifford2QKind::Czx.sigma0(), Pauli::Z);
/// assert_eq!(Clifford2QKind::Czx.sigma1(), Pauli::X);
/// assert_eq!(Clifford2QKind::Czx.to_string(), "C(Z,X)"); // i.e. CNOT
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Clifford2QKind {
    /// `C(X,X)`
    Cxx,
    /// `C(Y,Y)`
    Cyy,
    /// `C(Z,Z)` (controlled-Z)
    Czz,
    /// `C(X,Y)`
    Cxy,
    /// `C(Y,Z)`
    Cyz,
    /// `C(Z,X)` (CNOT)
    Czx,
}

/// The generator set of Eq. (5), in the paper's listing order.
pub const CLIFFORD2Q_GENERATORS: [Clifford2QKind; 6] = [
    Clifford2QKind::Cxx,
    Clifford2QKind::Cyy,
    Clifford2QKind::Czz,
    Clifford2QKind::Cxy,
    Clifford2QKind::Cyz,
    Clifford2QKind::Czx,
];

impl Clifford2QKind {
    /// The control-side Pauli `σ₀`.
    pub const fn sigma0(self) -> Pauli {
        match self {
            Clifford2QKind::Cxx | Clifford2QKind::Cxy => Pauli::X,
            Clifford2QKind::Cyy | Clifford2QKind::Cyz => Pauli::Y,
            Clifford2QKind::Czz | Clifford2QKind::Czx => Pauli::Z,
        }
    }

    /// The target-side Pauli `σ₁`.
    pub const fn sigma1(self) -> Pauli {
        match self {
            Clifford2QKind::Cxx | Clifford2QKind::Czx => Pauli::X,
            Clifford2QKind::Cyy | Clifford2QKind::Cxy => Pauli::Y,
            Clifford2QKind::Czz | Clifford2QKind::Cyz => Pauli::Z,
        }
    }

    /// Index of this kind within [`CLIFFORD2Q_GENERATORS`].
    pub fn index(self) -> usize {
        CLIFFORD2Q_GENERATORS
            .iter()
            .position(|&k| k == self)
            .expect("kind is always in the generator list")
    }

    /// The 4×4 unitary matrix, little-endian (control qubit = basis LSB).
    pub fn matrix4(self) -> CMatrix {
        let i1 = CMatrix::identity(2);
        let s0 = self.sigma0().to_matrix();
        let s1 = self.sigma1().to_matrix();
        // ½ (I_b ⊗ (I+σ₀)_a + σ₁_b ⊗ (I−σ₀)_a) in little-endian kron order.
        let p_plus = (&i1 + &s0).scale(Complex::from_re(0.5));
        let p_minus = (&i1 - &s0).scale(Complex::from_re(0.5));
        &i1.kron(&p_plus) + &s1.kron(&p_minus)
    }

    /// The conjugation table: for each input nibble
    /// `(x_a | z_a·2 | x_b·4 | z_b·8)` the output nibble and sign of
    /// `C P C†`.
    pub fn conjugation_table(self) -> &'static [(u8, i8); 16] {
        &conjugation_tables()[self.index()]
    }

    /// The conjugation table's nibble action as a GF(2)-linear map, with the
    /// two qubit roles optionally reversed.
    ///
    /// A Clifford acts on the binary symplectic form linearly, so output
    /// bit `j` of the nibble (`x_a, z_a, x_b, z_b` for `j = 0..4`) is the
    /// parity of the input bits selected by entry `j` of the map (see
    /// [`map_nibble`]). `linear_map(false)` reproduces
    /// `conjugation_table()[k].0` for every nibble `k`. `linear_map(true)`
    /// is the same generator applied with its control side on the qubit
    /// that bits 2–3 describe, with both input and output keeping a *fixed*
    /// `(a, b)` bit order. Each output column of a tableau is therefore the
    /// XOR of the input columns its entry selects, which lets a caller
    /// score every oriented generator on a qubit pair from the popcounts
    /// of the 16 XOR combinations of the pair's four columns.
    ///
    /// Signs are deliberately dropped: the Eq. (6) cost is coefficient-blind.
    pub fn linear_map(self, reversed: bool) -> &'static [u8; 4] {
        static MAPS: OnceLock<[[[u8; 4]; 2]; 6]> = OnceLock::new();
        let maps = MAPS.get_or_init(|| {
            let swap = |nib: u8| (nib >> 2) | ((nib & 0b11) << 2);
            let mut maps = [[[0u8; 4]; 2]; 6];
            for (ti, kind) in CLIFFORD2Q_GENERATORS.iter().enumerate() {
                let table = kind.conjugation_table();
                // A linear map is fixed by the images of the unit nibbles:
                // input bit `i` feeds output bit `j` iff image `i` has bit `j`.
                for i in 0..4 {
                    let images = [table[1 << i].0, swap(table[swap(1 << i) as usize].0)];
                    for (map, image) in maps[ti].iter_mut().zip(images) {
                        for (j, row) in map.iter_mut().enumerate() {
                            *row |= (image >> j & 1) << i;
                        }
                    }
                }
            }
            maps
        });
        &maps[self.index()][reversed as usize]
    }

    /// Conjugates the two-qubit restriction `(p_a, p_b)`, returning
    /// `(p_a', p_b', sign)` with `C (p_a ⊗ p_b) C† = sign · (p_a' ⊗ p_b')`.
    pub fn conjugate(self, pa: Pauli, pb: Pauli) -> (Pauli, Pauli, i8) {
        let nib = (pa.x_bit() as u8)
            | (pa.z_bit() as u8) << 1
            | (pb.x_bit() as u8) << 2
            | (pb.z_bit() as u8) << 3;
        let (out, sign) = self.conjugation_table()[nib as usize];
        (
            Pauli::from_xz(out & 1 == 1, out >> 1 & 1 == 1),
            Pauli::from_xz(out >> 2 & 1 == 1, out >> 3 & 1 == 1),
            sign,
        )
    }
}

/// Applies a [`Clifford2QKind::linear_map`] to a nibble: output bit `j` is
/// the parity of `nib & map[j]`.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::{map_nibble, Clifford2QKind};
///
/// // CNOT sends X⊗I (nibble 0b0001) to X⊗X (0b0101).
/// assert_eq!(map_nibble(Clifford2QKind::Czx.linear_map(false), 0b0001), 0b0101);
/// ```
#[inline]
pub fn map_nibble(map: &[u8; 4], nib: usize) -> usize {
    map.iter()
        .enumerate()
        .map(|(j, &m)| ((nib & m as usize).count_ones() as usize & 1) << j)
        .sum()
}

impl fmt::Display for Clifford2QKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C({},{})", self.sigma0(), self.sigma1())
    }
}

/// A 2Q Clifford generator applied to a concrete qubit pair `(a, b)`.
///
/// `a` is the control-side qubit (where `σ₀` lives) and `b` the target side.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::{Clifford2Q, Clifford2QKind};
///
/// let cnot = Clifford2Q::new(Clifford2QKind::Czx, 0, 1);
/// assert_eq!(cnot.to_string(), "C(Z,X)[0,1]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clifford2Q {
    /// Which generator.
    pub kind: Clifford2QKind,
    /// Control-side qubit.
    pub a: usize,
    /// Target-side qubit.
    pub b: usize,
}

impl Clifford2Q {
    /// Creates a generator instance on qubits `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(kind: Clifford2QKind, a: usize, b: usize) -> Self {
        assert_ne!(a, b, "clifford2q needs two distinct qubits");
        Clifford2Q { kind, a, b }
    }

    /// Conjugates a full Pauli string: `C P C† = sign · P'`.
    ///
    /// # Panics
    ///
    /// Panics if the gate's qubits lie outside the string.
    pub fn conjugate_string(&self, p: &crate::PauliString) -> (crate::PauliString, i8) {
        let (qa, qb, sign) = self.kind.conjugate(p.get(self.a), p.get(self.b));
        let mut out = p.clone();
        out.set(self.a, qa);
        out.set(self.b, qb);
        (out, sign)
    }
}

impl fmt::Display for Clifford2Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{},{}]", self.kind, self.a, self.b)
    }
}

/// Lazily derives all six conjugation tables from matrix arithmetic.
fn conjugation_tables() -> &'static [[(u8, i8); 16]; 6] {
    static TABLES: OnceLock<[[(u8, i8); 16]; 6]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let paulis = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
        let mut tables = [[(0u8, 1i8); 16]; 6];
        for (ti, kind) in CLIFFORD2Q_GENERATORS.iter().enumerate() {
            let c = kind.matrix4();
            debug_assert!(c.is_unitary(1e-12));
            for nib in 0u8..16 {
                let pa = Pauli::from_xz(nib & 1 == 1, nib >> 1 & 1 == 1);
                let pb = Pauli::from_xz(nib >> 2 & 1 == 1, nib >> 3 & 1 == 1);
                // Little-endian: qubit a is the LSB ⇒ matrix = P_b ⊗ P_a.
                let p = pb.to_matrix().kron(&pa.to_matrix());
                let conj = c.matmul(&p).matmul(&c.dagger());
                let mut found = None;
                'search: for &qa in &paulis {
                    for &qb in &paulis {
                        let cand = qb.to_matrix().kron(&qa.to_matrix());
                        for sign in [1i8, -1] {
                            let scaled = cand.scale(Complex::from_re(sign as f64));
                            if conj.approx_eq(&scaled, 1e-9) {
                                let out = (qa.x_bit() as u8)
                                    | (qa.z_bit() as u8) << 1
                                    | (qb.x_bit() as u8) << 2
                                    | (qb.z_bit() as u8) << 3;
                                found = Some((out, sign));
                                break 'search;
                            }
                        }
                    }
                }
                tables[ti][nib as usize] =
                    found.expect("clifford conjugation of a pauli is a signed pauli");
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn czx_is_cnot() {
        // CNOT in little-endian (control = qubit 0 = LSB):
        // |00>->|00>, |01>->|11>, |10>->|10>, |11>->|01>
        let m = Clifford2QKind::Czx.matrix4();
        let one = Complex::ONE;
        assert_eq!(m[(0, 0)], one);
        assert_eq!(m[(3, 1)], one);
        assert_eq!(m[(2, 2)], one);
        assert_eq!(m[(1, 3)], one);
    }

    #[test]
    fn generators_are_hermitian_and_unitary() {
        for kind in CLIFFORD2Q_GENERATORS {
            let m = kind.matrix4();
            assert!(m.is_unitary(1e-12), "{kind} not unitary");
            assert!(m.approx_eq(&m.dagger(), 1e-12), "{kind} not hermitian");
        }
    }

    #[test]
    fn conjugation_is_involutive() {
        // Hermitian C means conjugating twice restores the input with sign +1.
        for kind in CLIFFORD2Q_GENERATORS {
            for &pa in &Pauli::ALL {
                for &pb in &Pauli::ALL {
                    let (qa, qb, s1) = kind.conjugate(pa, pb);
                    let (ra, rb, s2) = kind.conjugate(qa, qb);
                    assert_eq!((ra, rb, s1 * s2), (pa, pb, 1), "{kind} on {pa}{pb}");
                }
            }
        }
    }

    #[test]
    fn cnot_update_rule_matches_fig2() {
        // Fig. 2(c): C(Z,X) gives x_b ← x_b ⊕ x_a and z_a ← z_a ⊕ z_b.
        for nib in 0u8..16 {
            let (xa, za, xb, zb) = (nib & 1, nib >> 1 & 1, nib >> 2 & 1, nib >> 3 & 1);
            let pa = Pauli::from_xz(xa == 1, za == 1);
            let pb = Pauli::from_xz(xb == 1, zb == 1);
            let (qa, qb, _) = Clifford2QKind::Czx.conjugate(pa, pb);
            assert_eq!(qa.x_bit() as u8, xa, "x_a unchanged");
            assert_eq!(qa.z_bit() as u8, za ^ zb, "z_a ← z_a ⊕ z_b");
            assert_eq!(qb.x_bit() as u8, xb ^ xa, "x_b ← x_b ⊕ x_a");
            assert_eq!(qb.z_bit() as u8, zb, "z_b unchanged");
        }
    }

    #[test]
    fn cxx_update_rule_matches_fig2() {
        // Fig. 2(d): C(X,X) gives x_a ← x_a ⊕ z_b and x_b ← x_b ⊕ z_a.
        for nib in 0u8..16 {
            let (xa, za, xb, zb) = (nib & 1, nib >> 1 & 1, nib >> 2 & 1, nib >> 3 & 1);
            let pa = Pauli::from_xz(xa == 1, za == 1);
            let pb = Pauli::from_xz(xb == 1, zb == 1);
            let (qa, qb, _) = Clifford2QKind::Cxx.conjugate(pa, pb);
            assert_eq!(qa.x_bit() as u8, xa ^ zb, "x_a ← x_a ⊕ z_b");
            assert_eq!(qa.z_bit() as u8, za, "z_a unchanged");
            assert_eq!(qb.x_bit() as u8, xb ^ za, "x_b ← x_b ⊕ z_a");
            assert_eq!(qb.z_bit() as u8, zb, "z_b unchanged");
        }
    }

    #[test]
    fn cxy_equals_hs_cnot_hsdg() {
        // Fig. 1(b): C(X,Y) = (H ⊗ S) CNOT (H ⊗ S†), verified as matrices
        // (little-endian kron order: qubit a = LSB ⇒ A⊗B on (a,b) is B_m ⊗ A_m).
        let h = CMatrix::from_rows(&[
            &[Complex::from_re(1.0), Complex::from_re(1.0)],
            &[Complex::from_re(1.0), Complex::from_re(-1.0)],
        ])
        .scale(Complex::from_re(std::f64::consts::FRAC_1_SQRT_2));
        let s = CMatrix::from_rows(&[&[Complex::ONE, Complex::ZERO], &[Complex::ZERO, Complex::I]]);
        let hs = s.kron(&h); // H on qubit a, S on qubit b
        let hsdg = s.dagger().kron(&h);
        let built = hs.matmul(&Clifford2QKind::Czx.matrix4()).matmul(&hsdg);
        let cxy = Clifford2QKind::Cxy.matrix4();
        // Equal up to a global phase ⇒ unit overlap.
        assert!((built.unitary_overlap(&cxy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_points_of_generators() {
        // C(σ0, σ1) commutes with σ0⊗I, I⊗σ1 and σ0⊗σ1.
        for kind in CLIFFORD2Q_GENERATORS {
            let s0 = kind.sigma0();
            let s1 = kind.sigma1();
            assert_eq!(kind.conjugate(s0, Pauli::I), (s0, Pauli::I, 1));
            assert_eq!(kind.conjugate(Pauli::I, s1), (Pauli::I, s1, 1));
            assert_eq!(kind.conjugate(s0, s1), (s0, s1, 1));
        }
    }

    #[test]
    fn linear_map_reproduces_the_conjugation_table() {
        // All 16 inputs × 12 oriented generators. The reversed orientation
        // keeps the fixed (a, b) bit order while the control moves to b:
        // swap the halves, look up the forward table, swap back.
        let swap = |nib: usize| (nib >> 2) | ((nib & 0b11) << 2);
        for kind in CLIFFORD2Q_GENERATORS {
            let table = kind.conjugation_table();
            for nib in 0..16 {
                let forward = map_nibble(kind.linear_map(false), nib);
                assert_eq!(forward, table[nib].0 as usize, "{kind} nibble {nib}");
                let reversed = map_nibble(kind.linear_map(true), nib);
                let want = swap(table[swap(nib)].0 as usize);
                assert_eq!(reversed, want, "{kind} reversed, nibble {nib}");
            }
        }
    }

    #[test]
    fn reversed_linear_map_swaps_the_qubit_roles() {
        // Conjugating (p_b, p_a) and re-encoding in (a, b) order.
        for kind in CLIFFORD2Q_GENERATORS {
            let map = kind.linear_map(true);
            for nib in 0u8..16 {
                let pa = Pauli::from_xz(nib & 1 == 1, nib >> 1 & 1 == 1);
                let pb = Pauli::from_xz(nib >> 2 & 1 == 1, nib >> 3 & 1 == 1);
                let (qb, qa, _) = kind.conjugate(pb, pa);
                let want = (qa.x_bit() as usize)
                    | (qa.z_bit() as usize) << 1
                    | (qb.x_bit() as usize) << 2
                    | (qb.z_bit() as usize) << 3;
                assert_eq!(map_nibble(map, nib as usize), want, "{kind} nibble {nib}");
            }
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(Clifford2QKind::Cxy.to_string(), "C(X,Y)");
        assert_eq!(
            Clifford2Q::new(Clifford2QKind::Cyy, 3, 5).to_string(),
            "C(Y,Y)[3,5]"
        );
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn same_qubit_pair_panics() {
        let _ = Clifford2Q::new(Clifford2QKind::Czx, 2, 2);
    }
}
