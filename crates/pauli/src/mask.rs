//! Variable-width packed qubit bit masks.
//!
//! Every hot kernel of the compiler — symplectic commutation parity, support
//! popcounts, nibble-class extraction, Clifford conjugation, cache keys —
//! operates on per-qubit bit masks. [`QubitMask`] packs those bits into
//! `u64` words in the bitboard idiom (popcount, masked shifts, word-parallel
//! AND/OR/XOR), replacing the former fixed `u128` representation that capped
//! programs at 128 qubits.
//!
//! Storage is **inline** (`[u64; 2]`, allocation-free) for registers up to
//! 128 qubits — today's workloads stay on exactly the code path they had
//! with `u128`, bit for bit — and spills to a heap word array beyond, so
//! 500–1000+ qubit Trotter programs compile without any per-bit scalar
//! loops.
//!
//! Semantics: a `QubitMask` is a *set of qubit indices*. Word count is a
//! capacity detail, not part of the value — `Eq`, `Ord` and `Hash` ignore
//! trailing zero words, and `Ord` matches the numeric order of the old
//! `u128` masks (most-significant word first), so every ordering-sensitive
//! consumer (term canonicalization, group indexing, tie-breaking sorts)
//! behaves identically at `n ≤ 128`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Words stored inline (without heap allocation): masks over up to 128
/// qubits — the former `u128` regime — never allocate.
pub const INLINE_WORDS: usize = 2;

#[derive(Clone)]
enum Repr {
    Inline([u64; 2]),
    Heap(Box<[u64]>),
}

/// A packed, variable-width set of qubit indices.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::QubitMask;
///
/// let mut m = QubitMask::zeros(300);
/// m.set_bit(0);
/// m.set_bit(299);
/// assert_eq!(m.count_ones(), 2);
/// assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 299]);
/// assert!(m.bit(299) && !m.bit(150));
/// ```
#[derive(Clone)]
pub struct QubitMask {
    repr: Repr,
}

/// Number of words needed to hold `nbits` bits (at least the inline count).
#[inline]
pub fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS).max(INLINE_WORDS)
}

impl QubitMask {
    /// The empty mask with capacity for `nbits` bits.
    pub fn zeros(nbits: usize) -> Self {
        let w = words_for(nbits);
        if w <= INLINE_WORDS {
            QubitMask {
                repr: Repr::Inline([0; 2]),
            }
        } else {
            QubitMask {
                repr: Repr::Heap(vec![0u64; w].into_boxed_slice()),
            }
        }
    }

    /// The mask with the low `nbits` bits set — the variable-width
    /// generalization of `(1 << n) - 1`, well-defined at every word
    /// boundary (`n ∈ {0, 63, 64, 127, 128, …}`) with no shift overflow.
    pub fn ones(nbits: usize) -> Self {
        let mut m = QubitMask::zeros(nbits);
        let words = m.words_mut();
        let full = nbits / WORD_BITS;
        for w in &mut words[..full] {
            *w = u64::MAX;
        }
        let rem = nbits % WORD_BITS;
        if rem != 0 {
            words[full] = (1u64 << rem) - 1;
        }
        m
    }

    /// A mask from the low 128 bits of a `u128` (inline, allocation-free).
    pub fn from_u128(v: u128) -> Self {
        QubitMask {
            repr: Repr::Inline([v as u64, (v >> 64) as u64]),
        }
    }

    /// A mask with exactly bit `q` set.
    pub fn single(q: usize) -> Self {
        let mut m = QubitMask::zeros(q + 1);
        m.set_bit(q);
        m
    }

    /// A mask from little-endian words.
    pub fn from_words(words: Vec<u64>) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; 2];
            inline[..words.len()].copy_from_slice(&words);
            QubitMask {
                repr: Repr::Inline(inline),
            }
        } else {
            QubitMask {
                repr: Repr::Heap(words.into_boxed_slice()),
            }
        }
    }

    /// The stored words, little-endian (word 0 holds qubits 0–63).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(w) => w,
        }
    }

    /// Word `i`, zero beyond the stored capacity.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words().get(i).copied().unwrap_or(0)
    }

    /// Number of bits this mask can hold without growing.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words().len() * WORD_BITS
    }

    /// The low 128 bits as a `u128` (bits above 128, if any, are ignored —
    /// callers in dense-simulation paths only operate at small widths).
    #[inline]
    pub fn low_u128(&self) -> u128 {
        let w = self.words();
        (w[0] as u128) | ((w[1] as u128) << 64)
    }

    /// The value as a `u128`, or `None` if any bit at index ≥ 128 is set.
    pub fn try_to_u128(&self) -> Option<u128> {
        if self.words()[INLINE_WORDS..].iter().any(|&w| w != 0) {
            return None;
        }
        Some(self.low_u128())
    }

    /// Whether bit `q` is set (false beyond capacity).
    #[inline]
    pub fn bit(&self, q: usize) -> bool {
        self.words()
            .get(q / WORD_BITS)
            .is_some_and(|w| w >> (q % WORD_BITS) & 1 == 1)
    }

    /// Sets bit `q`, growing the word array if needed.
    #[inline]
    pub fn set_bit(&mut self, q: usize) {
        let w = q / WORD_BITS;
        if w >= self.words().len() {
            self.grow(w + 1);
        }
        self.words_mut()[w] |= 1u64 << (q % WORD_BITS);
    }

    /// Clears bit `q` (no-op beyond capacity).
    #[inline]
    pub fn clear_bit(&mut self, q: usize) {
        let w = q / WORD_BITS;
        if let Some(word) = self.words_mut().get_mut(w) {
            *word &= !(1u64 << (q % WORD_BITS));
        }
    }

    /// Sets bit `q` to `value`.
    #[inline]
    pub fn assign_bit(&mut self, q: usize, value: bool) {
        if value {
            self.set_bit(q);
        } else {
            self.clear_bit(q);
        }
    }

    fn grow(&mut self, words: usize) {
        let mut v = self.words().to_vec();
        v.resize(words, 0);
        self.repr = Repr::Heap(v.into_boxed_slice());
    }

    /// Population count, word-parallel.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The highest set bit index, if any.
    pub fn max_bit(&self) -> Option<usize> {
        let words = self.words();
        for (i, &w) in words.iter().enumerate().rev() {
            if w != 0 {
                return Some(i * WORD_BITS + (63 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Whether the two masks share any set bit — `(a & b) ≠ 0` without
    /// materializing the intersection.
    #[inline]
    pub fn intersects(&self, other: &QubitMask) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether every set bit of `self` is set in `other`.
    #[inline]
    pub fn is_subset(&self, other: &QubitMask) -> bool {
        let (a, b) = (self.words(), other.words());
        a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
            && a[b.len().min(a.len())..].iter().all(|&x| x == 0)
    }

    /// `popcount(self & other)` without materializing the intersection.
    #[inline]
    pub fn and_count(&self, other: &QubitMask) -> u32 {
        self.words()
            .iter()
            .zip(other.words())
            .map(|(&a, &b)| (a & b).count_ones())
            .sum()
    }

    /// `popcount(self | other)` without materializing the union.
    #[inline]
    pub fn or_count(&self, other: &QubitMask) -> u32 {
        let (a, b) = (self.words(), other.words());
        let short = a.len().min(b.len());
        let mut c = 0u32;
        for i in 0..short {
            c += (a[i] | b[i]).count_ones();
        }
        c + a[short..].iter().map(|w| w.count_ones()).sum::<u32>()
            + b[short..].iter().map(|w| w.count_ones()).sum::<u32>()
    }

    /// `popcount(a | b | c | d)` — the fused union popcount of the Eq. (6)
    /// pairwise support sum, one pass over the words.
    #[inline]
    pub fn or4_count(a: &QubitMask, b: &QubitMask, c: &QubitMask, d: &QubitMask) -> u32 {
        let n = a
            .words()
            .len()
            .max(b.words().len())
            .max(c.words().len())
            .max(d.words().len());
        let mut count = 0u32;
        for i in 0..n {
            count += (a.word(i) | b.word(i) | c.word(i) | d.word(i)).count_ones();
        }
        count
    }

    /// The parity of `popcount(x1 & z2) + popcount(z1 & x2)` — `true` means
    /// *odd* symplectic product, i.e. the strings **anticommute**. This is
    /// the word-parallel commutation kernel.
    #[inline]
    pub fn symplectic_parity(
        x1: &QubitMask,
        z1: &QubitMask,
        x2: &QubitMask,
        z2: &QubitMask,
    ) -> bool {
        (x1.and_count(z2) + z1.and_count(x2)) % 2 == 1
    }

    /// In-place union.
    #[inline]
    pub fn or_with(&mut self, other: &QubitMask) {
        if other.words().len() > self.words().len() {
            self.grow(other.words().len());
        }
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    #[inline]
    pub fn and_with(&mut self, other: &QubitMask) {
        let ow = other.words();
        for (i, a) in self.words_mut().iter_mut().enumerate() {
            *a &= ow.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place symmetric difference.
    #[inline]
    pub fn xor_with(&mut self, other: &QubitMask) {
        if other.words().len() > self.words().len() {
            self.grow(other.words().len());
        }
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a ^= b;
        }
    }

    /// In-place `self &= !other`.
    #[inline]
    pub fn andnot_with(&mut self, other: &QubitMask) {
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// Iterator over the set bit indices in increasing order — the
    /// word-parallel replacement for per-qubit `mask >> q & 1` scans
    /// (`trailing_zeros` + clear-lowest per step).
    pub fn iter_ones(&self) -> Ones<'_> {
        let words = self.words();
        Ones {
            words,
            current: words.first().copied().unwrap_or(0),
            word_index: 0,
        }
    }

    /// The set bit indices, in increasing order.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones() as usize);
        out.extend(self.iter_ones());
        out
    }
}

/// Iterator over set bits of a [`QubitMask`].
pub struct Ones<'a> {
    words: &'a [u64],
    current: u64,
    word_index: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// Trimmed view: words with trailing zeros dropped — the canonical value
/// `Eq`/`Ord`/`Hash` operate on.
#[inline]
fn trimmed(words: &[u64]) -> &[u64] {
    let mut len = words.len();
    while len > 0 && words[len - 1] == 0 {
        len -= 1;
    }
    &words[..len]
}

impl PartialEq for QubitMask {
    fn eq(&self, other: &Self) -> bool {
        trimmed(self.words()) == trimmed(other.words())
    }
}

impl Eq for QubitMask {}

impl PartialOrd for QubitMask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QubitMask {
    /// Numeric order (most-significant word first) — identical to the
    /// `u128` ordering of the pre-packed representation at `n ≤ 128`.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (trimmed(self.words()), trimmed(other.words()));
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl Hash for QubitMask {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let t = trimmed(self.words());
        state.write_usize(t.len());
        for &w in t {
            state.write_u64(w);
        }
    }
}

fn fmt_mask(words: &[u64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "0x")?;
    let t = trimmed(words);
    if t.is_empty() {
        return write!(f, "0");
    }
    for (i, w) in t.iter().enumerate().rev() {
        if i == t.len() - 1 {
            write!(f, "{w:x}")?;
        } else {
            write!(f, "{w:016x}")?;
        }
    }
    Ok(())
}

impl fmt::Debug for QubitMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_mask(self.words(), f)
    }
}

impl fmt::Display for QubitMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_mask(self.words(), f)
    }
}

impl std::ops::BitAnd for &QubitMask {
    type Output = QubitMask;
    fn bitand(self, rhs: &QubitMask) -> QubitMask {
        let mut out = self.clone();
        out.and_with(rhs);
        out
    }
}

impl std::ops::BitOr for &QubitMask {
    type Output = QubitMask;
    fn bitor(self, rhs: &QubitMask) -> QubitMask {
        let mut out = self.clone();
        out.or_with(rhs);
        out
    }
}

impl std::ops::BitXor for &QubitMask {
    type Output = QubitMask;
    fn bitxor(self, rhs: &QubitMask) -> QubitMask {
        let mut out = self.clone();
        out.xor_with(rhs);
        out
    }
}

impl std::ops::BitAnd for QubitMask {
    type Output = QubitMask;
    fn bitand(mut self, rhs: QubitMask) -> QubitMask {
        self.and_with(&rhs);
        self
    }
}

impl std::ops::BitOr for QubitMask {
    type Output = QubitMask;
    fn bitor(mut self, rhs: QubitMask) -> QubitMask {
        self.or_with(&rhs);
        self
    }
}

impl std::ops::BitXor for QubitMask {
    type Output = QubitMask;
    fn bitxor(mut self, rhs: QubitMask) -> QubitMask {
        self.xor_with(&rhs);
        self
    }
}

impl Default for QubitMask {
    fn default() -> Self {
        QubitMask::zeros(0)
    }
}

impl From<u128> for QubitMask {
    fn from(v: u128) -> Self {
        QubitMask::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_handles_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 256, 500, 512] {
            let m = QubitMask::ones(n);
            assert_eq!(m.count_ones() as usize, n, "ones({n})");
            if n > 0 {
                assert!(m.bit(n - 1), "top bit of ones({n})");
            }
            assert!(!m.bit(n), "bit {n} of ones({n}) must be clear");
        }
    }

    #[test]
    fn ones_matches_u128_mask_below() {
        for n in [0, 1, 5, 63, 64, 100, 127, 128] {
            let reference = if n >= 128 {
                u128::MAX
            } else {
                (1u128 << n) - 1
            };
            assert_eq!(QubitMask::ones(n).try_to_u128(), Some(reference), "{n}");
        }
    }

    #[test]
    fn inline_storage_up_to_128() {
        assert!(matches!(QubitMask::zeros(128).repr, Repr::Inline(_)));
        assert!(matches!(QubitMask::zeros(129).repr, Repr::Heap(_)));
        assert!(matches!(
            QubitMask::from_u128(u128::MAX).repr,
            Repr::Inline(_)
        ));
    }

    #[test]
    fn set_bit_grows() {
        let mut m = QubitMask::zeros(4);
        m.set_bit(300);
        assert!(m.bit(300));
        assert_eq!(m.count_ones(), 1);
        m.clear_bit(300);
        assert!(m.is_zero());
    }

    #[test]
    fn eq_ignores_capacity() {
        let mut wide = QubitMask::zeros(512);
        wide.set_bit(3);
        let narrow = QubitMask::from_u128(0b1000);
        assert_eq!(wide, narrow);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |m: &QubitMask| {
            let mut s = DefaultHasher::new();
            m.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&wide), h(&narrow));
    }

    #[test]
    fn ord_matches_u128_numeric_order() {
        let vals: Vec<u128> = vec![
            0,
            1,
            2,
            3,
            u64::MAX as u128,
            1 << 64,
            (1 << 64) | 1,
            u128::MAX,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    QubitMask::from_u128(a).cmp(&QubitMask::from_u128(b)),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
        // Heap vs inline capacity does not perturb the order.
        let mut big = QubitMask::zeros(512);
        big.set_bit(1);
        assert_eq!(big.cmp(&QubitMask::from_u128(2)), Ordering::Equal);
        big.set_bit(400);
        assert_eq!(big.cmp(&QubitMask::from_u128(2)), Ordering::Greater);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut m = QubitMask::zeros(300);
        for q in [0, 63, 64, 127, 128, 255, 299] {
            m.set_bit(q);
        }
        assert_eq!(m.to_indices(), vec![0, 63, 64, 127, 128, 255, 299]);
    }

    #[test]
    fn fused_kernels_match_materialized_ops() {
        let a = QubitMask::from_u128(0b1100_1010);
        let b = QubitMask::from_u128(0b1010_0110);
        assert_eq!(a.and_count(&b), (&a & &b).count_ones());
        assert_eq!(a.or_count(&b), (&a | &b).count_ones());
        assert!(a.intersects(&b));
        let c = QubitMask::from_u128(0b0001);
        assert!(!a.intersects(&c));
        assert_eq!(
            QubitMask::or4_count(&a, &b, &c, &QubitMask::zeros(0)),
            (&(&a | &b) | &c).count_ones()
        );
    }

    #[test]
    fn or_count_handles_unequal_lengths() {
        let mut long = QubitMask::zeros(512);
        long.set_bit(400);
        long.set_bit(2);
        let short = QubitMask::from_u128(0b101);
        assert_eq!(long.or_count(&short), 3);
        assert_eq!(short.or_count(&long), 3);
        assert!(!short.is_subset(&long));
        assert!(QubitMask::from_u128(0b100).is_subset(&long));
    }

    #[test]
    fn symplectic_parity_matches_scalar() {
        // X vs Z on the same qubit anticommute.
        let x = QubitMask::from_u128(1);
        let z = QubitMask::from_u128(1);
        let zero = QubitMask::zeros(1);
        assert!(QubitMask::symplectic_parity(&x, &zero, &zero, &z));
        // X vs X commute.
        assert!(!QubitMask::symplectic_parity(&x, &zero, &x, &zero));
    }

    #[test]
    fn xor_and_andnot() {
        let mut a = QubitMask::from_u128(0b1100);
        a.xor_with(&QubitMask::from_u128(0b1010));
        assert_eq!(a.try_to_u128(), Some(0b0110));
        a.andnot_with(&QubitMask::from_u128(0b0010));
        assert_eq!(a.try_to_u128(), Some(0b0100));
    }

    #[test]
    fn max_bit_and_display() {
        assert_eq!(QubitMask::zeros(64).max_bit(), None);
        assert_eq!(QubitMask::single(129).max_bit(), Some(129));
        assert_eq!(QubitMask::from_u128(0).to_string(), "0x0");
        assert_eq!(QubitMask::from_u128(0xff).to_string(), "0xff");
        let wide = QubitMask::single(64);
        assert_eq!(wide.to_string(), "0x10000000000000000");
    }

    #[test]
    fn try_to_u128_detects_overflow() {
        assert_eq!(QubitMask::single(127).try_to_u128(), Some(1u128 << 127));
        assert_eq!(QubitMask::single(128).try_to_u128(), None);
    }
}
