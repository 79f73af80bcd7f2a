//! Differential property tests pinning the word-parallel packed-mask
//! kernels against scalar per-qubit references, across register widths
//! straddling every representation boundary (inline single-word, inline
//! two-word, heap-backed).
//!
//! Each kernel under test (commutation, conjugation, weight, nibble
//! extraction) is recomputed qubit-by-qubit through the public per-qubit
//! API, so a word-packing bug (shift off-by-one, missed carry across a
//! word boundary, trailing-word garbage) shows up as a divergence from the
//! scalar answer.

use phoenix_pauli::{
    fold_conjugation_sign, Bsf, BsfRow, Clifford2Q, Pauli, PauliString, QubitMask,
    CLIFFORD2Q_GENERATORS,
};
use proptest::prelude::*;

/// Widths covering both inline words, the heap spill, and the word
/// boundaries on either side.
const WIDTHS: [usize; 14] = [1, 2, 3, 5, 8, 63, 64, 65, 127, 128, 129, 192, 300, 512];

/// Raw generator material for one wide Pauli string: a width selector plus
/// sparse `(site, pauli)` pairs (sites reduced modulo the width).
type RawString = (usize, Vec<(usize, usize)>);

fn raw_string() -> impl Strategy<Value = RawString> {
    (
        0usize..WIDTHS.len(),
        proptest::collection::vec((0usize..4096, 1usize..4), 0..12),
    )
}

/// Materializes raw generator output through the per-qubit `set` API
/// (never through mask words).
fn build(n: usize, sites: &[(usize, usize)]) -> PauliString {
    let mut p = PauliString::identity(n);
    for &(q, k) in sites {
        p.set(q % n, [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][k]);
    }
    p
}

/// Scalar reference: symplectic commutation by per-qubit anticommutation
/// counting.
fn commutes_scalar(a: &PauliString, b: &PauliString) -> bool {
    let mut anti = 0usize;
    for q in 0..a.num_qubits() {
        let (pa, pb) = (a.get(q), b.get(q));
        if pa != Pauli::I && pb != Pauli::I && pa != pb {
            anti += 1;
        }
    }
    anti.is_multiple_of(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commutation_matches_scalar_reference(
        (sel, sa) in raw_string(),
        sb in proptest::collection::vec((0usize..4096, 1usize..4), 0..12)
    ) {
        let n = WIDTHS[sel];
        let a = build(n, &sa);
        let b = build(n, &sb);
        prop_assert_eq!(a.commutes(&b), commutes_scalar(&a, &b));
    }

    #[test]
    fn weight_matches_scalar_reference((sel, sites) in raw_string()) {
        let n = WIDTHS[sel];
        let p = build(n, &sites);
        let scalar = (0..n).filter(|&q| p.get(q) != Pauli::I).count();
        prop_assert_eq!(p.weight(), scalar);
    }

    #[test]
    fn conjugation_matches_narrow_window(
        (sel, sites) in raw_string(),
        (a_raw, b_raw, kind) in (0usize..4096, 0usize..4096, 0usize..6)
    ) {
        // Conjugating by a 2Q Clifford on qubits (a, b) must act on the
        // wide string exactly as it acts on the 2-qubit window (a, b) of a
        // narrow string, leaving every other site untouched.
        let n = WIDTHS[sel].max(2);
        let p = build(n, &sites);
        let a = a_raw % n;
        let b_try = b_raw % n;
        let b = if b_try == a { (a + 1) % n } else { b_try };
        let cliff = Clifford2Q::new(CLIFFORD2Q_GENERATORS[kind], a, b);
        let (wide, sign) = cliff.conjugate_string(&p);

        let mut narrow = PauliString::identity(2);
        narrow.set(0, p.get(a));
        narrow.set(1, p.get(b));
        let narrow_cliff = Clifford2Q::new(CLIFFORD2Q_GENERATORS[kind], 0, 1);
        let (narrow_out, narrow_sign) = narrow_cliff.conjugate_string(&narrow);

        prop_assert_eq!(sign, narrow_sign);
        prop_assert_eq!(wide.get(a), narrow_out.get(0));
        prop_assert_eq!(wide.get(b), narrow_out.get(1));
        for q in 0..n {
            if q != a && q != b {
                prop_assert_eq!(wide.get(q), p.get(q), "site {} moved", q);
            }
        }
    }

    #[test]
    fn nibble_matches_per_qubit_paulis(
        (sel, sites) in raw_string(),
        (a_raw, b_raw) in (0usize..4096, 0usize..4096)
    ) {
        let n = WIDTHS[sel].max(2);
        let p = build(n, &sites);
        let a = a_raw % n;
        let b_try = b_raw % n;
        let b = if b_try == a { (a + 1) % n } else { b_try };
        let row = BsfRow::from_packed(p.x_mask().clone(), p.z_mask().clone(), 1.0);
        let nib = row.nibble(a, b);
        // Nibble layout: `x_a | z_a·2 | x_b·4 | z_b·8`.
        let pauli_of = |x: bool, z: bool| match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        };
        prop_assert_eq!(pauli_of(nib & 1 != 0, nib >> 1 & 1 != 0), p.get(a));
        prop_assert_eq!(pauli_of(nib >> 2 & 1 != 0, nib >> 3 & 1 != 0), p.get(b));
    }

    #[test]
    fn tableau_conjugation_preserves_sign_folding(
        sel in 0usize..WIDTHS.len(),
        raws in proptest::collection::vec(
            (proptest::collection::vec((0usize..4096, 1usize..4), 0..8), -1.0f64..1.0),
            1..5,
        ),
        (a_raw, b_raw, kind) in (0usize..4096, 0usize..4096, 0usize..6)
    ) {
        // Folding a conjugation sign into the coefficient is equivalent to
        // tracking it separately — pin the fold helper against the tableau,
        // at any width and any qubit pair.
        let n = WIDTHS[sel].max(2);
        let a = a_raw % n;
        let b_try = b_raw % n;
        let b = if b_try == a { (a + 1) % n } else { b_try };
        let terms: Vec<(PauliString, f64)> =
            raws.iter().map(|(s, c)| (build(n, s), *c)).collect();
        let mut bsf = Bsf::from_terms(n, terms.iter().cloned()).unwrap();
        let cliff = Clifford2Q::new(CLIFFORD2Q_GENERATORS[kind], a, b);
        bsf.apply_clifford2q(cliff);
        for ((p, c), row) in terms.iter().zip(bsf.rows()) {
            let (conj, sign) = cliff.conjugate_string(p);
            prop_assert_eq!(conj.x_mask(), row.x_mask());
            prop_assert_eq!(conj.z_mask(), row.z_mask());
            prop_assert!((fold_conjugation_sign(*c, sign) - row.coeff()).abs() < 1e-12);
        }
    }

    #[test]
    fn mask_kernels_match_per_bit_reference(
        sel in 0usize..WIDTHS.len(),
        xs in proptest::collection::vec(0usize..4096, 0..16),
        zs in proptest::collection::vec(0usize..4096, 0..16)
    ) {
        let n = WIDTHS[sel];
        let mut x = QubitMask::zeros(n);
        let mut z = QubitMask::zeros(n);
        for &q in &xs { x.set_bit(q % n); }
        for &q in &zs { z.set_bit(q % n); }
        let and_ref = (0..n).filter(|&q| x.bit(q) && z.bit(q)).count() as u32;
        let or_ref = (0..n).filter(|&q| x.bit(q) || z.bit(q)).count() as u32;
        prop_assert_eq!(x.and_count(&z), and_ref);
        prop_assert_eq!(x.or_count(&z), or_ref);
        let par_ref = (0..n).filter(|&q| x.bit(q) && z.bit(q)).count() % 2 == 1;
        prop_assert_eq!(
            QubitMask::symplectic_parity(&x, &QubitMask::zeros(n), &QubitMask::zeros(n), &z),
            par_ref
        );
        let ones: Vec<usize> = x.iter_ones().collect();
        let ones_ref: Vec<usize> = (0..n).filter(|&q| x.bit(q)).collect();
        prop_assert_eq!(ones, ones_ref);
    }
}
