//! Multi-qubit Pauli strings over variable-width packed bit masks.

use crate::mask::QubitMask;
use crate::Pauli;
use phoenix_mathkit::{CMatrix, Complex};
use std::fmt;
use std::str::FromStr;

/// An `n`-qubit Pauli string stored as a pair of packed bit masks in the
/// binary symplectic encoding (`X → [1|0]`, `Z → [0|1]`, `Y → [1|1]`).
///
/// Qubit `q` corresponds to bit `q`; the textual label lists qubit 0 first,
/// matching the paper's `σ₀ ⊗ ⋯ ⊗ σ_{n−1}` ordering. Masks are stored
/// inline (no heap allocation) for `n ≤ 128` and spill to heap word arrays
/// beyond — see [`QubitMask`].
///
/// # Examples
///
/// ```
/// use phoenix_pauli::{Pauli, PauliString};
///
/// let p: PauliString = "XIZ".parse()?;
/// assert_eq!(p.get(0), Pauli::X);
/// assert_eq!(p.get(2), Pauli::Z);
/// assert_eq!(p.weight(), 2);
/// # Ok::<(), phoenix_pauli::ParsePauliStringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PauliString {
    n: u32,
    x: QubitMask,
    z: QubitMask,
}

/// The maximum register width the compiler accepts. This is a sanity bound
/// against absurd allocations, not a representation limit: masks are packed
/// `u64` word arrays that scale to any width.
pub const MAX_QUBITS: usize = 1 << 16;

/// A requested register width exceeded [`MAX_QUBITS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthError {
    /// The offending width.
    pub num_qubits: usize,
}

impl fmt::Display for WidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register width {} exceeds the supported maximum of {MAX_QUBITS} qubits",
            self.num_qubits
        )
    }
}

impl std::error::Error for WidthError {}

impl PauliString {
    /// Creates the `n`-qubit identity string.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`; use [`PauliString::try_identity`] for a
    /// typed error.
    pub fn identity(n: usize) -> Self {
        Self::try_identity(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PauliString::identity`].
    ///
    /// # Errors
    ///
    /// Returns [`WidthError`] if `n > MAX_QUBITS`.
    pub fn try_identity(n: usize) -> Result<Self, WidthError> {
        if n > MAX_QUBITS {
            return Err(WidthError { num_qubits: n });
        }
        Ok(PauliString {
            n: n as u32,
            x: QubitMask::zeros(n),
            z: QubitMask::zeros(n),
        })
    }

    /// Creates a string from raw symplectic masks over the low 128 qubits.
    /// Wider strings are built with [`PauliString::from_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS` or if a mask has bits at or above `n`.
    pub fn from_masks(n: usize, x: u128, z: u128) -> Self {
        Self::from_packed(n, QubitMask::from_u128(x), QubitMask::from_u128(z))
    }

    /// Creates a string from packed symplectic masks.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS` or if a mask has bits at or above `n`;
    /// use [`PauliString::try_from_packed`] for a typed error.
    pub fn from_packed(n: usize, x: QubitMask, z: QubitMask) -> Self {
        Self::try_from_packed(n, x, z).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PauliString::from_packed`]: out-of-range widths and masks
    /// with support at or above `n` come back as a [`WidthError`] instead
    /// of a panic, so `CompileRequest::run` callers get an error on bad
    /// input.
    ///
    /// # Errors
    ///
    /// Returns [`WidthError`] if `n > MAX_QUBITS` or a mask has bits at or
    /// above `n` (the error carries the smallest width that would fit).
    pub fn try_from_packed(n: usize, x: QubitMask, z: QubitMask) -> Result<Self, WidthError> {
        if n > MAX_QUBITS {
            return Err(WidthError { num_qubits: n });
        }
        let top = x.max_bit().max(z.max_bit());
        if let Some(top) = top {
            if top >= n {
                return Err(WidthError {
                    num_qubits: top + 1,
                });
            }
        }
        Ok(PauliString { n: n as u32, x, z })
    }

    /// Creates an `n`-qubit string that is `p` on qubit `q` and identity
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n` or `n > MAX_QUBITS`.
    pub fn single(n: usize, q: usize, p: Pauli) -> Self {
        let mut s = PauliString::identity(n);
        s.set(q, p);
        s
    }

    /// Creates an `n`-qubit string from sparse `(qubit, Pauli)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn from_sparse(n: usize, pairs: &[(usize, Pauli)]) -> Self {
        let mut s = PauliString::identity(n);
        for &(q, p) in pairs {
            s.set(q, p);
        }
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n as usize
    }

    /// The X-block bit mask.
    #[inline]
    pub fn x_mask(&self) -> &QubitMask {
        &self.x
    }

    /// The Z-block bit mask.
    #[inline]
    pub fn z_mask(&self) -> &QubitMask {
        &self.z
    }

    /// The Pauli acting on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[inline]
    pub fn get(&self, q: usize) -> Pauli {
        assert!(q < self.n as usize, "qubit {q} out of range");
        Pauli::from_xz(self.x.bit(q), self.z.bit(q))
    }

    /// Sets the Pauli acting on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= self.num_qubits()`.
    #[inline]
    pub fn set(&mut self, q: usize, p: Pauli) {
        assert!(q < self.n as usize, "qubit {q} out of range");
        self.x.assign_bit(q, p.x_bit());
        self.z.assign_bit(q, p.z_bit());
    }

    /// Number of qubits acted on non-trivially (word-parallel popcount).
    #[inline]
    pub fn weight(&self) -> usize {
        self.x.or_count(&self.z) as usize
    }

    /// Whether the string is the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.z.is_zero()
    }

    /// Bit mask of the non-trivially acted qubits.
    #[inline]
    pub fn support_mask(&self) -> QubitMask {
        &self.x | &self.z
    }

    /// The non-trivially acted qubits in increasing order.
    pub fn support(&self) -> Vec<usize> {
        self.support_mask().to_indices()
    }

    /// Whether two strings commute (symplectic inner product is even),
    /// computed word-parallel over the packed masks.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn commutes(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "qubit counts must match");
        !QubitMask::symplectic_parity(&self.x, &self.z, &other.x, &other.z)
    }

    /// Multiplies two strings, returning `(product, k)` with
    /// `self · other = i^k · product`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn mul(&self, other: &PauliString) -> (PauliString, u8) {
        assert_eq!(self.n, other.n, "qubit counts must match");
        let mut x3 = self.x.clone();
        x3.xor_with(&other.x);
        let mut z3 = self.z.clone();
        z3.xor_with(&other.z);
        // Per-qubit phase exponents, summed mod 4 (see Pauli::mul).
        let k = self.x.and_count(&self.z) as i64
            + other.x.and_count(&other.z) as i64
            + 2 * self.z.and_count(&other.x) as i64
            - x3.and_count(&z3) as i64;
        (
            PauliString {
                n: self.n,
                x: x3,
                z: z3,
            },
            k.rem_euclid(4) as u8,
        )
    }

    /// Restricts the string to the qubits in `keep` (in the given order),
    /// producing a `keep.len()`-qubit string.
    ///
    /// # Panics
    ///
    /// Panics if any index in `keep` is out of range.
    pub fn restrict(&self, keep: &[usize]) -> PauliString {
        let mut out = PauliString::identity(keep.len());
        for (new_q, &old_q) in keep.iter().enumerate() {
            out.set(new_q, self.get(old_q));
        }
        out
    }

    /// Embeds this string into a larger register, mapping local qubit `i`
    /// onto global qubit `placement[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `placement.len() != self.num_qubits()` or any target index
    /// is out of range.
    pub fn embed(&self, n: usize, placement: &[usize]) -> PauliString {
        assert_eq!(
            placement.len(),
            self.num_qubits(),
            "placement must cover every local qubit"
        );
        let mut out = PauliString::identity(n);
        for (i, &q) in placement.iter().enumerate() {
            out.set(q, self.get(i));
        }
        out
    }

    /// Dense `2ⁿ × 2ⁿ` matrix representation (little-endian qubit order:
    /// qubit 0 is the least-significant bit of the basis index).
    ///
    /// Intended for verification on small `n`; cost is `O(4ⁿ)`.
    pub fn to_matrix(&self) -> CMatrix {
        let n = self.num_qubits();
        let dim = 1usize << n;
        let mut m = CMatrix::zeros(dim, dim);
        let (x, z) = (self.x.low_u128(), self.z.low_u128());
        // P|b⟩ = phase(b) |b ⊕ x⟩ with phase from Z and Y parts.
        for b in 0..dim {
            let target = b ^ (x as usize);
            // Z contributes (-1)^{b·z}; Y contributes an extra i per Y with x-flip.
            let zpar = ((b as u128) & z).count_ones() % 2;
            let ycnt = (x & z).count_ones() % 4;
            // pauli(x,z) = i^{x z} X^x Z^z acting on |b>: Z first then X.
            let mut phase = if zpar == 1 {
                -Complex::ONE
            } else {
                Complex::ONE
            };
            for _ in 0..ycnt {
                phase *= Complex::I;
            }
            m[(target, b)] = phase;
        }
        m
    }

    /// The textual label, qubit 0 first.
    pub fn label(&self) -> String {
        (0..self.num_qubits())
            .map(|q| self.get(q).to_char())
            .collect()
    }
}

/// Error returned when parsing a [`PauliString`] label fails: a character
/// outside `I`, `X`, `Y`, `Z` (either case), or a label wider than
/// [`MAX_QUBITS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliStringError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    /// The first character that is not a Pauli letter.
    Char(char),
    /// The label's width, over [`MAX_QUBITS`].
    Width(usize),
}

impl fmt::Display for ParsePauliStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Char(c) => write!(
                f,
                "invalid pauli character {c:?}; expected one of I, X, Y, Z"
            ),
            ParseErrorKind::Width(n) => write!(
                f,
                "pauli string of {n} qubits exceeds the supported maximum of {MAX_QUBITS} qubits"
            ),
        }
    }
}

impl std::error::Error for ParsePauliStringError {}

/// The symplectic `(x, z)` bits of one label byte, `None` unless it is a
/// Pauli letter (`Pauli::from_char` accepts either case).
#[inline]
fn label_bits(b: u8) -> Option<(u64, u64)> {
    match b {
        b'I' | b'i' => Some((0, 0)),
        b'X' | b'x' => Some((1, 0)),
        b'Y' | b'y' => Some((1, 1)),
        b'Z' | b'z' => Some((0, 1)),
        _ => None,
    }
}

/// Packs `label` into the `x` and `z` words, 64 qubits a word; `false` if
/// a byte is not a Pauli letter.
fn pack_label(label: &[u8], x: &mut [u64], z: &mut [u64]) -> bool {
    for (w, chunk) in label.chunks(64).enumerate() {
        let (mut xw, mut zw) = (0u64, 0u64);
        for (j, &b) in chunk.iter().enumerate() {
            let Some((xb, zb)) = label_bits(b) else {
                return false;
            };
            xw |= xb << j;
            zw |= zb << j;
        }
        x[w] = xw;
        z[w] = zw;
    }
    true
}

impl FromStr for PauliString {
    type Err = ParsePauliStringError;

    /// Parses a label, qubit 0 first, in one pass over its bytes; masks of
    /// up to 128 qubits are built on the stack.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // A valid label is ASCII, so its width is its byte length; on an
        // invalid one the first offending character is the error.
        let invalid = || ParsePauliStringError {
            kind: ParseErrorKind::Char(
                s.chars()
                    .find(|&c| Pauli::from_char(c).is_none())
                    .unwrap_or_default(),
            ),
        };
        let bytes = s.as_bytes();
        let n = bytes.len();
        if n > MAX_QUBITS {
            return Err(if bytes.iter().all(|&b| label_bits(b).is_some()) {
                ParsePauliStringError {
                    kind: ParseErrorKind::Width(n),
                }
            } else {
                invalid()
            });
        }
        let (x, z) = if n <= 128 {
            let (mut x, mut z) = ([0u64; 2], [0u64; 2]);
            if !pack_label(bytes, &mut x, &mut z) {
                return Err(invalid());
            }
            let wide =
                |w: [u64; 2]| QubitMask::from_u128(u128::from(w[1]) << 64 | u128::from(w[0]));
            (wide(x), wide(z))
        } else {
            let words = crate::mask::words_for(n);
            let (mut x, mut z) = (vec![0u64; words], vec![0u64; words]);
            if !pack_label(bytes, &mut x, &mut z) {
                return Err(invalid());
            }
            (QubitMask::from_words(x), QubitMask::from_words(z))
        };
        Ok(PauliString { n: n as u32, x, z })
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for label in ["XIZY", "IIII", "Y", "ZZXXYYII"] {
            let p: PauliString = label.parse().unwrap();
            assert_eq!(p.label(), label);
            assert_eq!(p.to_string(), label);
        }
    }

    #[test]
    fn parse_rejects_bad_char() {
        let err = "XQZ".parse::<PauliString>().unwrap_err();
        assert!(err.to_string().contains("'Q'"));
    }

    #[test]
    fn parse_names_the_first_bad_character_non_ascii_included() {
        for (label, bad) in [
            ("XéQ", "'é'"),
            ("zQ", "'Q'"),
            ("ZZ\u{1F600}", "'\u{1F600}'"),
        ] {
            let err = label.parse::<PauliString>().unwrap_err().to_string();
            assert!(err.contains(bad), "{label}: {err}");
        }
        // Lower case is accepted, as `Pauli::from_char` accepts it.
        assert_eq!("xyzi".parse::<PauliString>().unwrap().label(), "XYZI");
        assert!("".parse::<PauliString>().unwrap().is_identity());
    }

    #[test]
    fn parse_matches_building_one_qubit_at_a_time() {
        let letters = ['I', 'X', 'Y', 'Z', 'x', 'z'];
        for n in [1, 63, 64, 65, 127, 128, 129, 200, 300] {
            let label: String = (0..n)
                .map(|q| letters[(q * 7 + n) % letters.len()])
                .collect();
            let mut want = PauliString::identity(n);
            for (q, c) in label.chars().enumerate() {
                want.set(q, Pauli::from_char(c).unwrap());
            }
            let got: PauliString = label.parse().unwrap();
            assert_eq!(got, want, "n = {n}");
            assert_eq!(got.x_mask().words(), want.x_mask().words(), "n = {n}");
            assert_eq!(got.z_mask().words(), want.z_mask().words(), "n = {n}");
        }
    }

    #[test]
    fn parse_rejects_labels_wider_than_max_qubits() {
        assert_eq!(
            "Z".repeat(MAX_QUBITS)
                .parse::<PauliString>()
                .unwrap()
                .num_qubits(),
            MAX_QUBITS
        );
        let err = "Z"
            .repeat(MAX_QUBITS + 1)
            .parse::<PauliString>()
            .unwrap_err();
        assert!(err.to_string().contains("65537 qubits"), "{err}");
        // A label of at most MAX_QUBITS characters but more bytes is judged
        // by its characters.
        let wide = format!("{}é", "Z".repeat(MAX_QUBITS - 1));
        let err = wide.parse::<PauliString>().unwrap_err();
        assert!(err.to_string().contains("'é'"), "{err}");
    }

    #[test]
    fn weight_and_support() {
        let p: PauliString = "XIZIY".parse().unwrap();
        assert_eq!(p.weight(), 3);
        assert_eq!(p.support(), vec![0, 2, 4]);
        assert!(!p.is_identity());
        assert!(PauliString::identity(5).is_identity());
    }

    #[test]
    fn multiplication_matches_matrices() {
        let cases = [("XY", "YX"), ("ZZ", "XI"), ("XZ", "ZX"), ("YY", "XZ")];
        for (a, b) in cases {
            let pa: PauliString = a.parse().unwrap();
            let pb: PauliString = b.parse().unwrap();
            let (prod, k) = pa.mul(&pb);
            let phase = [Complex::ONE, Complex::I, -Complex::ONE, -Complex::I][k as usize];
            let lhs = pa.to_matrix().matmul(&pb.to_matrix());
            let rhs = prod.to_matrix().scale(phase);
            assert!(lhs.approx_eq(&rhs, 1e-14), "{a}·{b}");
        }
    }

    #[test]
    fn commutation_matches_matrices() {
        let labels = ["XX", "XZ", "ZZ", "YI", "IY", "YZ", "XY"];
        for a in labels {
            for b in labels {
                let pa: PauliString = a.parse().unwrap();
                let pb: PauliString = b.parse().unwrap();
                let ab = pa.to_matrix().matmul(&pb.to_matrix());
                let ba = pb.to_matrix().matmul(&pa.to_matrix());
                assert_eq!(pa.commutes(&pb), ab.approx_eq(&ba, 1e-14), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn single_qubit_matrix_is_pauli_matrix() {
        for &p in &Pauli::ALL {
            let s = PauliString::single(1, 0, p);
            assert!(s.to_matrix().approx_eq(&p.to_matrix(), 1e-15));
        }
    }

    #[test]
    fn two_qubit_matrix_is_kron() {
        // Little-endian: qubit 0 is the LSB, so "XZ" = Z ⊗ X as a matrix.
        let s: PauliString = "XZ".parse().unwrap();
        let expect = Pauli::Z.to_matrix().kron(&Pauli::X.to_matrix());
        assert!(s.to_matrix().approx_eq(&expect, 1e-15));
    }

    #[test]
    fn restrict_and_embed_roundtrip() {
        let p: PauliString = "IXIZY".parse().unwrap();
        let keep = p.support();
        let small = p.restrict(&keep);
        assert_eq!(small.label(), "XZY");
        let back = small.embed(5, &keep);
        assert_eq!(back, p);
    }

    #[test]
    fn masks_are_consistent() {
        let p: PauliString = "XYZI".parse().unwrap();
        assert_eq!(p.x_mask().try_to_u128(), Some(0b0011));
        assert_eq!(p.z_mask().try_to_u128(), Some(0b0110));
        let q = PauliString::from_masks(4, 0b0011, 0b0110);
        assert_eq!(p, q);
    }

    #[test]
    fn wide_strings_work_beyond_128_qubits() {
        let n = 500;
        let mut p = PauliString::identity(n);
        p.set(0, Pauli::X);
        p.set(499, Pauli::Y);
        p.set(250, Pauli::Z);
        assert_eq!(p.weight(), 3);
        assert_eq!(p.support(), vec![0, 250, 499]);
        assert_eq!(p.get(499), Pauli::Y);
        let mut q = PauliString::identity(n);
        q.set(499, Pauli::Z);
        // Y on qubit 499 vs Z on qubit 499: anticommute.
        assert!(!p.commutes(&q));
        let (prod, _) = p.mul(&q);
        assert_eq!(prod.get(499), Pauli::X);
    }

    #[test]
    fn try_constructors_reject_bad_widths() {
        assert!(PauliString::try_identity(MAX_QUBITS).is_ok());
        let err = PauliString::try_identity(MAX_QUBITS + 1).unwrap_err();
        assert_eq!(err.num_qubits, MAX_QUBITS + 1);
        assert!(err.to_string().contains("exceeds"));
        // Support above n is rejected, reporting the needed width.
        let err =
            PauliString::try_from_packed(3, QubitMask::single(5), QubitMask::zeros(3)).unwrap_err();
        assert_eq!(err.num_qubits, 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = PauliString::identity(3);
        let _ = p.get(3);
    }
}
