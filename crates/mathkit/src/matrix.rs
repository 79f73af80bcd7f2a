//! Dense complex matrices.

use crate::Complex;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// `CMatrix` provides the operations the PHOENIX stack needs for ground-truth
/// verification and algorithmic-error analysis: products, Kronecker products,
/// adjoints, traces, norms, and the matrix exponential.
///
/// # Examples
///
/// ```
/// use phoenix_mathkit::{CMatrix, Complex};
///
/// let z = CMatrix::from_rows(&[
///     &[Complex::ONE, Complex::ZERO],
///     &[Complex::ZERO, -Complex::ONE],
/// ]);
/// assert!(z.is_unitary(1e-12));
/// assert!((z.trace() - Complex::ZERO).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[Complex]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        // ikj loop order: stream over rhs rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == Complex::ZERO {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        let mut out = vec![Complex::ZERO; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks(self.cols)) {
            *o = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
        out
    }

    /// Conjugate transpose `self†`.
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Kronecker product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Multiplies every entry by the complex scalar `s`.
    pub fn scale(&self, s: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Maximum absolute row sum (induced 1-norm of the transpose); used to
    /// pick the scaling exponent for [`expm`](Self::expm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|z| z.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns true when `self† self ≈ I` within `tol` (entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.dagger()
            .matmul(self)
            .approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Matrix exponential `e^{self}` by scaling-and-squaring with a Taylor
    /// series, accurate to near machine precision for well-conditioned
    /// inputs (anti-Hermitian generators in particular).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn expm(&self) -> CMatrix {
        assert_eq!(self.rows, self.cols, "expm requires a square matrix");
        let n = self.rows;
        // Scale so the norm is below 1/2, then square back up.
        let norm = self.norm_inf();
        let s = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let a = self.scale(Complex::from_re(1.0 / f64::powi(2.0, s as i32)));

        // Taylor series: converges fast since ||a|| <= 1/2.
        let mut result = CMatrix::identity(n);
        let mut term = CMatrix::identity(n);
        for k in 1..=24u32 {
            term = term.matmul(&a).scale(Complex::from_re(1.0 / k as f64));
            result = &result + &term;
            if term.norm_inf() < 1e-18 {
                break;
            }
        }
        for _ in 0..s {
            result = result.matmul(&result);
        }
        result
    }

    /// Hilbert–Schmidt inner-product fidelity-style overlap `|Tr(A† B)| / n`.
    ///
    /// Used by the algorithmic-error analysis: `infidelity = 1 - overlap`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or the matrices are not square.
    pub fn unitary_overlap(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        assert_eq!(self.rows, self.cols, "overlap requires square matrices");
        let mut tr = Complex::ZERO;
        for i in 0..self.rows {
            for k in 0..self.cols {
                tr += self[(k, i)].conj() * other[(k, i)];
            }
        }
        tr.abs() / self.rows as f64
    }
}

/// The product `a · b` of two row-major 4×4 complex matrices held on the
/// stack.
///
/// It performs [`CMatrix::matmul`]'s float operations in the same order
/// (ikj loops, exactly-zero left entries skipped), so both give the same
/// bits, signs of zeros included.
pub fn matmul4(a: &[Complex; 16], b: &[Complex; 16]) -> [Complex; 16] {
    let mut out = [Complex::ZERO; 16];
    for i in 0..4 {
        for k in 0..4 {
            let x = a[i * 4 + k];
            if x == Complex::ZERO {
                continue;
            }
            for j in 0..4 {
                out[i * 4 + j] += x * b[k * 4 + j];
            }
        }
    }
    out
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{}\t", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[
            &[Complex::ZERO, Complex::ONE],
            &[Complex::ONE, Complex::ZERO],
        ])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_rows(&[
            &[Complex::ONE, Complex::ZERO],
            &[Complex::ZERO, -Complex::ONE],
        ])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i2 = CMatrix::identity(2);
        assert!(x.matmul(&i2).approx_eq(&x, 0.0));
        assert!(i2.matmul(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra_via_matmul() {
        let x = pauli_x();
        let z = pauli_z();
        // XZ = -iY, so (XZ)^2 = -I
        let xz = x.matmul(&z);
        let sq = xz.matmul(&xz);
        assert!(sq.approx_eq(&CMatrix::identity(2).scale(-Complex::ONE), 1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz.cols(), 4);
        assert_eq!(xz[(0, 2)], Complex::ONE);
        assert_eq!(xz[(1, 3)], -Complex::ONE);
        assert_eq!(xz[(0, 0)], Complex::ZERO);
    }

    #[test]
    fn dagger_of_product_reverses() {
        let x = pauli_x();
        let z = pauli_z();
        let a = x.matmul(&z);
        assert!(a.dagger().approx_eq(&z.dagger().matmul(&x.dagger()), 1e-15));
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = CMatrix::zeros(3, 3);
        assert!(z.expm().approx_eq(&CMatrix::identity(3), 1e-15));
    }

    #[test]
    fn expm_matches_rotation() {
        // exp(-i θ/2 X) = cos(θ/2) I - i sin(θ/2) X
        let theta: f64 = 1.234;
        let gen = pauli_x().scale(Complex::new(0.0, -theta / 2.0));
        let u = gen.expm();
        let expect = &CMatrix::identity(2).scale(Complex::from_re((theta / 2.0).cos()))
            + &pauli_x().scale(Complex::new(0.0, -(theta / 2.0).sin()));
        assert!(u.approx_eq(&expect, 1e-13));
        assert!(u.is_unitary(1e-13));
    }

    #[test]
    fn expm_large_norm_uses_squaring() {
        // exp(-i π X) = -I
        let gen = pauli_x().scale(Complex::new(0.0, -std::f64::consts::PI));
        let u = gen.expm();
        assert!(u.approx_eq(&CMatrix::identity(2).scale(-Complex::ONE), 1e-12));
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let x = pauli_x();
        let v = vec![Complex::new(0.3, 0.1), Complex::new(-0.2, 0.5)];
        let got = x.matvec(&v);
        assert_eq!(got, vec![v[1], v[0]]);
    }

    #[test]
    fn overlap_of_identical_unitaries_is_one() {
        let x = pauli_x();
        assert!((x.unitary_overlap(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn overlap_is_phase_invariant() {
        let x = pauli_x();
        let y = x.scale(Complex::cis(0.83));
        assert!((x.unitary_overlap(&y) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn norms_behave() {
        let z = pauli_z();
        assert_eq!(z.norm_inf(), 1.0);
        assert!((z.norm_fro() - 2f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn matmul4_matches_matmul_bit_for_bit() {
        // Signed zeros on both sides, and an infinity on the right: a
        // skipped zero left entry keeps `0·∞ = NaN` out of the result.
        let entry = |k: usize| match k % 5 {
            0 => Complex::new(-0.0, 0.5 - k as f64),
            1 => Complex::ZERO,
            2 => Complex::new(0.25 * k as f64, -0.0),
            3 => -Complex::ZERO,
            _ => Complex::new(-1.5, 0.75),
        };
        let a: [Complex; 16] = std::array::from_fn(entry);
        let mut b: [Complex; 16] = std::array::from_fn(|k| entry(k + 3));
        b[6] = Complex::new(f64::INFINITY, 1.0);
        let dense = |m: &[Complex; 16]| CMatrix::from_fn(4, 4, |i, j| m[i * 4 + j]);
        let want = dense(&a).matmul(&dense(&b));
        let got = matmul4(&a, &b);
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for (k, z) in got.iter().enumerate() {
            let w = want[(k / 4, k % 4)];
            assert!(
                same(z.re, w.re) && same(z.im, w.im),
                "entry {k}: {z} vs {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
