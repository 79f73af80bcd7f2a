//! Cache keys: the angle-erased canonical IR and the group shape.
//!
//! The structure phase of parametric compilation (DESIGN.md §2.10) reads no
//! angle: what it reads of each term is its Pauli-string mask pair
//! `(x, z)`. Two programs with the same ordered mask sequence over the same
//! register compile to the same skeleton circuit, so the [`CanonicalIr`] —
//! those masks packed into words, in term order — is the content address
//! of a cached structure artifact. Stage 2 keys each IR group by a
//! [`GroupShape`]: the group's ordered masks relabelled onto its support
//! ranks, so groups that differ only by an order-preserving qubit
//! relabelling (and their coefficients) share one key.
//!
//! A key is its contents: equality compares the width, the row count and
//! every mask word, so no two different programs or shapes share a key.
//! Maps over keys hash them with [`WordHasher`], one multiply-rotate step
//! per word.

use crate::mask::{QubitMask, WORD_BITS};
use crate::PauliString;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hash of the cache keys: one multiply-rotate step (FxHash's) per
/// 64-bit word, so a key of `k` words hashes in `k` steps. It is not
/// randomised; a forced collision costs a full comparison, never a wrong
/// hit, since keys compare in full.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // A product mixes its high bits best; maps pick buckets from the
        // low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A hash map over cache keys, hashed with [`WordHasher`].
pub type WordHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The canonical angle-erased form of a program: the [`GroupShape`] of its
/// whole register, whose ranks are the qubits themselves. Each term keeps
/// its `(x, z)` mask words in term order; coefficients are dropped.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::{CanonicalIr, PauliString};
///
/// let terms = |labels: &[&str], c: f64| -> Vec<(PauliString, f64)> {
///     labels.iter().map(|l| (l.parse().unwrap(), c)).collect()
/// };
/// let ir = CanonicalIr::from_terms(2, &terms(&["XZ", "YY"], 0.5));
/// assert_eq!(ir, CanonicalIr::from_terms(2, &terms(&["XZ", "YY"], -3.0)));
/// assert_ne!(ir, CanonicalIr::from_terms(2, &terms(&["YY", "XZ"], 0.5)));
/// assert_eq!((ir.num_qubits(), ir.num_terms()), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalIr(GroupShape);

impl CanonicalIr {
    /// Canonicalizes `terms` over `n` qubits, erasing coefficients. Each
    /// term's qubits `0…n−1` are read, so the terms should have `n` qubits.
    pub fn from_terms(n: usize, terms: &[(PauliString, f64)]) -> Self {
        let wpr = n.div_ceil(WORD_BITS);
        let mut words = Vec::with_capacity(2 * wpr * terms.len());
        for (p, _) in terms {
            for mask in [p.x_mask(), p.z_mask()] {
                words.extend((0..wpr).map(|w| mask.word(w)));
            }
        }
        CanonicalIr(GroupShape {
            width: n,
            rows: terms.len(),
            words,
        })
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.0.width
    }

    /// Number of terms (identity terms included).
    pub fn num_terms(&self) -> usize {
        self.0.rows
    }
}

/// The relabelling-invariant key of one IR group: every row's `(x, z)`
/// masks moved onto the group's support ranks `0…s−1` (support qubits in
/// ascending order), row order kept, coefficients dropped.
///
/// Algorithm 1 reads only the ordered row masks, and every tie-break it
/// makes follows row order or ascending qubit order, so two groups of equal
/// shape get the same choices up to the order-preserving map
/// `rank → support[rank]` (DESIGN.md §2.2.2). One compile over `s` qubits
/// therefore serves every group of the shape.
///
/// Equality compares the width, the row count and every mask word.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::canon::GroupShape;
/// use phoenix_pauli::{PauliString, QubitMask};
///
/// let group = |labels: &[&str], c: f64| -> Vec<(PauliString, f64)> {
///     labels.iter().map(|l| (l.parse().unwrap(), c)).collect()
/// };
/// // Qubits {0, 2} and {1, 3}: the same rows after relabelling.
/// let a = GroupShape::from_terms(&QubitMask::from_u128(0b0101), &group(&["XIZI", "YIYI"], 0.5));
/// let b = GroupShape::from_terms(&QubitMask::from_u128(0b1010), &group(&["IXIZ", "IYIY"], -2.0));
/// assert_eq!(a, b);
/// assert_eq!(a.width(), 2);
/// assert_eq!(a.strings(), ["XZ".parse().unwrap(), "YY".parse().unwrap()]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupShape {
    width: usize,
    rows: usize,
    /// Per row: `width.div_ceil(64)` rank-space X words, then as many Z words.
    words: Vec<u64>,
}

impl GroupShape {
    /// Keys `terms`, all of which act inside `support`.
    ///
    /// # Panics
    ///
    /// Panics if a term acts on a qubit outside `support`.
    pub fn from_terms(support: &QubitMask, terms: &[(PauliString, f64)]) -> Self {
        let width = support.count_ones() as usize;
        let wpr = width.div_ceil(WORD_BITS);
        let mut words = vec![0u64; 2 * wpr * terms.len()];
        for (i, (p, _)) in terms.iter().enumerate() {
            let row = &mut words[2 * wpr * i..2 * wpr * (i + 1)];
            let (xs, zs) = row.split_at_mut(wpr);
            let (x, z) = (p.x_mask(), p.z_mask());
            let nwords = x.words().len().max(z.words().len());
            let mut rank = 0usize;
            for wi in 0..nwords.max(support.words().len()) {
                let (sw, xw, zw) = (support.word(wi), x.word(wi), z.word(wi));
                assert_eq!((xw | zw) & !sw, 0, "term acts outside the group support");
                // Software `pext`: the support bits of this word, in order,
                // land on the next ranks.
                let mut bits = sw;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let (w, r) = (rank / WORD_BITS, rank % WORD_BITS);
                    xs[w] |= (xw >> b & 1) << r;
                    zs[w] |= (zw >> b & 1) << r;
                    rank += 1;
                }
            }
        }
        GroupShape {
            width,
            rows: terms.len(),
            words,
        }
    }

    /// Number of support qubits `s` (the rank-space register width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The rank-space rows as `s`-qubit strings, in row order.
    pub fn strings(&self) -> Vec<PauliString> {
        let wpr = self.width.div_ceil(WORD_BITS);
        (0..self.rows)
            .map(|i| {
                let row = &self.words[2 * wpr * i..2 * wpr * (i + 1)];
                let (x, z) = row.split_at(wpr);
                PauliString::from_packed(
                    self.width,
                    QubitMask::from_words(x.to_vec()),
                    QubitMask::from_words(z.to_vec()),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(l: &str) -> PauliString {
        l.parse().unwrap()
    }

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (ps(l), 0.1 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn ir_ignores_coefficients() {
        let a = CanonicalIr::from_terms(2, &[(ps("XZ"), 0.5)]);
        let b = CanonicalIr::from_terms(2, &[(ps("XZ"), -3.25)]);
        assert_eq!(a, b);
    }

    #[test]
    fn ir_sees_width_count_and_order() {
        let one = CanonicalIr::from_terms(3, &terms(&["XYZ"]));
        let twice = CanonicalIr::from_terms(3, &terms(&["XYZ", "XYZ"]));
        assert_ne!(one, twice);
        assert_ne!(
            CanonicalIr::from_terms(3, &[]),
            CanonicalIr::from_terms(5, &[])
        );
        let ab = CanonicalIr::from_terms(2, &terms(&["XZ", "YY"]));
        let ba = CanonicalIr::from_terms(2, &terms(&["YY", "XZ"]));
        assert_ne!(ab, ba);
    }

    #[test]
    fn ir_is_the_shape_of_the_whole_register() {
        for n in [1, 63, 64, 65, 128, 129, 200] {
            let mut p = PauliString::identity(n);
            p.set(0, crate::Pauli::Y);
            p.set(n - 1, crate::Pauli::Z);
            let t = [
                (p, 0.5),
                (PauliString::single(n, n / 2, crate::Pauli::X), 1.0),
            ];
            let shape = GroupShape::from_terms(&QubitMask::ones(n), &t);
            assert_eq!(CanonicalIr::from_terms(n, &t).0, shape, "n = {n}");
        }
    }

    #[test]
    fn word_hasher_reads_a_word_slice_word_by_word() {
        let words = [7u64, u64::MAX, 0, 1 << 63];
        let mut sliced = WordHasher::default();
        std::hash::Hash::hash_slice(&words, &mut sliced);
        let mut stepped = WordHasher::default();
        words.iter().for_each(|&w| stepped.write_u64(w));
        assert_eq!(sliced.finish(), stepped.finish());
    }

    /// The shape of `labels` (all on one support) with coefficients `c`.
    fn shape(labels: &[&str], c: f64) -> GroupShape {
        let t: Vec<(PauliString, f64)> = labels.iter().map(|l| (ps(l), c)).collect();
        let mut support = QubitMask::zeros(t[0].0.num_qubits());
        for (p, _) in &t {
            support.or_with(&p.support_mask());
        }
        GroupShape::from_terms(&support, &t)
    }

    #[test]
    fn group_shape_is_coefficient_blind() {
        let a = shape(&["XZI", "YYI"], 0.25);
        let b = shape(&["XZI", "YYI"], -0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn group_shape_is_relabel_invariant() {
        // Any order-preserving placement of the same rows keys the same.
        let narrow = shape(&["XZY", "ZIX", "YYI"], 1.0);
        assert_eq!(shape(&["IXIZYI", "IZIIXI", "IYIYII"], 2.0), narrow);
        // Across inline words, heap words and both word seams.
        let sites = [63, 64, 199];
        let wide = |labels: &[&str]| -> GroupShape {
            let t: Vec<(PauliString, f64)> = labels
                .iter()
                .map(|l| (ps(l).embed(200, &sites), 0.5))
                .collect();
            let support = t.iter().fold(QubitMask::zeros(200), |mut m, (p, _)| {
                m.or_with(&p.support_mask());
                m
            });
            GroupShape::from_terms(&support, &t)
        };
        let w = wide(&["XZY", "ZIX", "YYI"]);
        assert_eq!(w, narrow);
        assert_eq!(w.width(), 3);
        let back: Vec<PauliString> = w.strings().iter().map(|p| p.embed(200, &sites)).collect();
        assert_eq!(back[0], ps("XZY").embed(200, &sites));
        assert_eq!(back[2], ps("YYI").embed(200, &sites));
    }

    #[test]
    fn group_shape_sees_row_order_and_letters() {
        let ab = shape(&["XZ", "ZX"], 1.0);
        assert_ne!(ab, shape(&["ZX", "XZ"], 1.0));
        assert_ne!(ab, shape(&["XZ", "ZY"], 1.0));
        assert_ne!(ab, shape(&["XZ"], 1.0));
        assert_ne!(ab, shape(&["XZ", "ZX", "ZX"], 1.0));
        // The relabelling keeps qubit order: swapping two qubits gives a
        // different shape.
        assert_ne!(shape(&["XZ", "YI"], 1.0), shape(&["ZX", "IY"], 1.0));
    }

    #[test]
    #[should_panic(expected = "outside the group support")]
    fn group_shape_rejects_terms_off_the_support() {
        GroupShape::from_terms(&QubitMask::from_u128(0b01), &[(ps("XX"), 1.0)]);
    }
}
