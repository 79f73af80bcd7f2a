//! Canonical angle-erased IR form and its incremental Zobrist hash.
//!
//! The structure phase of parametric compilation (DESIGN.md §2.10) operates
//! on programs with the rotation angles erased: what remains of each term is
//! its Pauli-string mask pair `(x, z)`. Two programs with the same mask
//! sequence over the same register compile to the same skeleton circuit, so
//! the [`CanonicalIr`] — the ordered mask list plus the register width — is
//! the content-address of a cached structure artifact.
//!
//! Hashing is Zobrist-style: every `(qubit, Pauli)` site has a fixed random
//! `u64` drawn once from a seeded [`Xoshiro256`], a term hashes to the XOR
//! of its sites, and a program accumulates the XOR of its term hashes.
//! XOR composition makes the accumulator *incremental* (inserting or
//! removing a term is one XOR) and *order-insensitive*, which is exactly
//! right for the group level: grouping partitions terms by support, so a
//! program's accumulator equals the XOR of its groups' accumulators. The
//! final digest additionally mixes the term count and register width so the
//! empty program on 3 vs 5 qubits, or `{P, P}` vs `{}`, stay distinct.
//!
//! Tables are generated in **chunks of 128 qubits**, grown lazily as wider
//! registers appear. Chunk 0 is drawn from `ZOBRIST_SEED` exactly as the
//! fixed-width implementation did, so digests for programs over at most
//! 128 qubits are stable across this representation change (persisted cache
//! artifacts keep their addresses); chunk `c > 0` is drawn from the derived
//! seed `ZOBRIST_SEED ^ mix(c)`.
//!
//! Digest equality is *not* trusted: [`CanonicalIr::eq`] compares the full
//! mask sequence, so a hash collision can only cause a spurious cache miss,
//! never a wrong hit.
//!
//! Stage 2 keys each IR group by a [`GroupShape`]: the group's ordered
//! masks relabelled onto its support ranks, so groups that differ only by
//! an order-preserving qubit relabelling (and their coefficients) share one
//! key. Its equality, too, compares every mask word.

use crate::mask::{QubitMask, WORD_BITS};
use crate::PauliString;
use phoenix_mathkit::Xoshiro256;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Seed of the Zobrist tables. Fixed so digests are stable across runs and
/// processes (cache artifacts could in principle be persisted).
const ZOBRIST_SEED: u64 = 0x5048_4F45_4E49_5821; // "PHOENIX!"

/// Qubits covered per lazily-generated table chunk.
const CHUNK_QUBITS: usize = 128;

type TableChunk = [[u64; 3]; CHUNK_QUBITS];

fn generate_chunk(c: usize) -> &'static TableChunk {
    let seed = if c == 0 {
        ZOBRIST_SEED
    } else {
        ZOBRIST_SEED ^ mix(c as u64)
    };
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut t = Box::new([[0u64; 3]; CHUNK_QUBITS]);
    for row in t.iter_mut() {
        for cell in row.iter_mut() {
            *cell = rng.next_u64();
        }
    }
    Box::leak(t)
}

/// The per-(qubit, Pauli) random tables for qubits
/// `[c·128, (c+1)·128)`: `[qubit % 128][X=0, Y=1, Z=2]`. Chunks are
/// generated on first use and cached for the process lifetime (leaked —
/// the total is bounded by `MAX_QUBITS / 128` chunks of 3 KiB).
fn chunk_tables(c: usize) -> &'static TableChunk {
    static CHUNKS: OnceLock<RwLock<Vec<&'static TableChunk>>> = OnceLock::new();
    let chunks = CHUNKS.get_or_init(|| RwLock::new(Vec::new()));
    if let Some(&t) = chunks.read().expect("zobrist lock").get(c) {
        return t;
    }
    let mut w = chunks.write().expect("zobrist lock");
    while w.len() <= c {
        let next = w.len();
        w.push(generate_chunk(next));
    }
    w[c]
}

/// The Zobrist `u64` for Pauli site `(qubit, idx)` with `X=0, Y=1, Z=2`.
#[cfg(test)]
fn site(q: usize, idx: usize) -> u64 {
    chunk_tables(q / CHUNK_QUBITS)[q % CHUNK_QUBITS][idx]
}

/// SplitMix64-style finalizer: diffuses the XOR accumulator so structured
/// mask patterns do not produce structured digests.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The Zobrist hash of one term: XOR of the `(qubit, Pauli)` table entries
/// over the string's support, accumulated word-parallel (one
/// `trailing_zeros` loop per 64-qubit word). The identity string hashes to
/// zero.
pub fn term_hash(p: &PauliString) -> u64 {
    // A word's 64 qubits never straddle two table chunks, so each nonzero
    // word takes the chunk lock once rather than once per site.
    const _: () = assert!(CHUNK_QUBITS.is_multiple_of(WORD_BITS));
    let mut h = 0u64;
    let (x, z) = (p.x_mask(), p.z_mask());
    let nwords = x.words().len().max(z.words().len());
    for wi in 0..nwords {
        let (xw, zw) = (x.word(wi), z.word(wi));
        let mut support = xw | zw;
        if support == 0 {
            continue;
        }
        let q0 = wi * WORD_BITS;
        let table = chunk_tables(q0 / CHUNK_QUBITS);
        while support != 0 {
            let b = support.trailing_zeros() as usize;
            support &= support - 1;
            // X=0, Y=1, Z=2 (Y has both bits set).
            let idx = match (xw >> b & 1 == 1, zw >> b & 1 == 1) {
                (true, false) => 0,
                (true, true) => 1,
                (false, true) => 2,
                (false, false) => unreachable!("bit came from the support mask"),
            };
            h ^= table[q0 % CHUNK_QUBITS + b][idx];
        }
    }
    h
}

/// An incremental, order-insensitive Zobrist accumulator over a multiset of
/// terms. Insertion and removal are the same XOR, so maintaining the hash
/// of an evolving program costs O(weight) per update.
///
/// # Examples
///
/// ```
/// use phoenix_pauli::canon::ZobristAcc;
/// use phoenix_pauli::PauliString;
///
/// let a: PauliString = "XZ".parse().unwrap();
/// let b: PauliString = "YY".parse().unwrap();
/// let mut fwd = ZobristAcc::new();
/// fwd.insert(&a);
/// fwd.insert(&b);
/// let mut rev = ZobristAcc::new();
/// rev.insert(&b);
/// rev.insert(&a);
/// assert_eq!(fwd.digest(2), rev.digest(2)); // order-insensitive
/// fwd.remove(&b);
/// let mut solo = ZobristAcc::new();
/// solo.insert(&a);
/// assert_eq!(fwd.digest(2), solo.digest(2)); // XOR-composable
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZobristAcc {
    acc: u64,
    count: u64,
}

impl ZobristAcc {
    /// The empty accumulator.
    pub fn new() -> Self {
        ZobristAcc::default()
    }

    /// Folds a term in.
    pub fn insert(&mut self, p: &PauliString) {
        self.acc ^= term_hash(p);
        self.count = self.count.wrapping_add(1);
    }

    /// Folds a term out (the inverse of [`ZobristAcc::insert`]).
    pub fn remove(&mut self, p: &PauliString) {
        self.acc ^= term_hash(p);
        self.count = self.count.wrapping_sub(1);
    }

    /// XORs another accumulator in — the group-level composition law:
    /// a program's accumulator equals its groups' accumulators combined.
    pub fn combine(&mut self, other: &ZobristAcc) {
        self.acc ^= other.acc;
        self.count = self.count.wrapping_add(other.count);
    }

    /// Number of inserted terms.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no terms were inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The finalized digest for a program over `n` qubits.
    pub fn digest(&self, n: usize) -> u64 {
        mix(self.acc ^ mix(self.count) ^ mix((n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }
}

/// The canonical angle-erased form of a program: the ordered `(x, z)` mask
/// sequence of its terms plus the register width, with a precomputed
/// Zobrist digest.
///
/// `Hash` writes only the digest (cheap bucketing); `Eq` compares the full
/// mask sequence, so digest collisions degrade to cache misses rather than
/// wrong hits.
#[derive(Debug, Clone)]
pub struct CanonicalIr {
    n: usize,
    masks: Vec<(QubitMask, QubitMask)>,
    digest: u64,
}

impl CanonicalIr {
    /// Canonicalizes `terms` over `n` qubits, erasing coefficients.
    pub fn from_terms(n: usize, terms: &[(PauliString, f64)]) -> Self {
        let mut acc = ZobristAcc::new();
        let masks = terms
            .iter()
            .map(|(p, _)| {
                acc.insert(p);
                (p.x_mask().clone(), p.z_mask().clone())
            })
            .collect();
        CanonicalIr {
            n,
            masks,
            digest: acc.digest(n),
        }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of terms (identity terms included).
    pub fn num_terms(&self) -> usize {
        self.masks.len()
    }

    /// The finalized Zobrist digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl PartialEq for CanonicalIr {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.n == other.n && self.masks == other.masks
    }
}

impl Eq for CanonicalIr {}

impl Hash for CanonicalIr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
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
/// `Hash` writes only a precomputed digest; `Eq` compares the width and
/// every mask word, so a digest collision can never produce a wrong hit.
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
#[derive(Debug, Clone)]
pub struct GroupShape {
    width: usize,
    rows: usize,
    /// Per row: `width.div_ceil(64)` rank-space X words, then as many Z words.
    words: Vec<u64>,
    digest: u64,
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
        let mut h = mix(((width as u64) << 32) ^ terms.len() as u64);
        for &w in &words {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        GroupShape {
            width,
            rows: terms.len(),
            words,
            digest: mix(h),
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

impl PartialEq for GroupShape {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
            && self.width == other.width
            && self.rows == other.rows
            && self.words == other.words
    }
}

impl Eq for GroupShape {}

impl Hash for GroupShape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
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
    fn identity_hashes_to_zero() {
        assert_eq!(term_hash(&PauliString::identity(5)), 0);
    }

    #[test]
    fn term_hash_distinguishes_paulis_and_sites() {
        let h = [
            term_hash(&ps("XI")),
            term_hash(&ps("YI")),
            term_hash(&ps("ZI")),
            term_hash(&ps("IX")),
        ];
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j]);
            }
        }
    }

    #[test]
    fn chunk0_digests_are_stable() {
        // Golden digest values produced by the fixed-width (u128)
        // implementation: the chunk-0 table must reproduce them exactly,
        // or every persisted cache address for n ≤ 128 silently changes.
        let mut rng = Xoshiro256::seed_from_u64(ZOBRIST_SEED);
        assert_eq!(site(0, 0), rng.next_u64());
        assert_eq!(site(0, 1), rng.next_u64());
        assert_eq!(site(0, 2), rng.next_u64());
        assert_eq!(site(1, 0), rng.next_u64());
    }

    #[test]
    fn wide_sites_are_distinct_across_chunks() {
        // Qubit 128 lives in chunk 1; its sites must not collide with the
        // start of chunk 0 (a fresh identical seed would alias them).
        assert_ne!(site(128, 0), site(0, 0));
        assert_ne!(site(129, 1), site(1, 1));
        let mut wide = PauliString::identity(200);
        wide.set(150, crate::Pauli::X);
        let mut narrow = PauliString::identity(200);
        narrow.set(22, crate::Pauli::X); // 150 % 128 = 22
        assert_ne!(term_hash(&wide), term_hash(&narrow));
    }

    #[test]
    fn digest_ignores_coefficients() {
        let a = CanonicalIr::from_terms(2, &[(ps("XZ"), 0.5)]);
        let b = CanonicalIr::from_terms(2, &[(ps("XZ"), -3.25)]);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_mixes_width_and_count() {
        let one = CanonicalIr::from_terms(3, &terms(&["XYZ"]));
        let twice = CanonicalIr::from_terms(3, &terms(&["XYZ", "XYZ"]));
        assert_ne!(one.digest(), twice.digest());
        let empty3 = CanonicalIr::from_terms(3, &[]);
        let empty5 = CanonicalIr::from_terms(5, &[]);
        assert_ne!(empty3.digest(), empty5.digest());
    }

    #[test]
    fn eq_is_order_sensitive_but_digest_is_not() {
        let ab = CanonicalIr::from_terms(2, &terms(&["XZ", "YY"]));
        let ba = CanonicalIr::from_terms(2, &terms(&["YY", "XZ"]));
        assert_eq!(ab.digest(), ba.digest());
        assert_ne!(ab, ba);
    }

    #[test]
    fn accumulator_composes_over_a_partition() {
        let all = ["XZI", "YYI", "IIZ", "IIX"];
        let mut whole = ZobristAcc::new();
        for l in all {
            whole.insert(&ps(l));
        }
        let mut left = ZobristAcc::new();
        left.insert(&ps("XZI"));
        left.insert(&ps("YYI"));
        let mut right = ZobristAcc::new();
        right.insert(&ps("IIZ"));
        right.insert(&ps("IIX"));
        let mut combined = left;
        combined.combine(&right);
        assert_eq!(combined.digest(3), whole.digest(3));
    }

    #[test]
    fn insert_remove_roundtrip_wide() {
        let mut wide = PauliString::identity(400);
        wide.set(5, crate::Pauli::Y);
        wide.set(201, crate::Pauli::Z);
        wide.set(399, crate::Pauli::X);
        let mut acc = ZobristAcc::new();
        acc.insert(&ps("XY").embed(400, &[0, 1]));
        let before = acc;
        acc.insert(&wide);
        acc.remove(&wide);
        assert_eq!(acc, before);
        assert!(!acc.is_empty());
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut acc = ZobristAcc::new();
        acc.insert(&ps("XY"));
        let before = acc;
        acc.insert(&ps("ZZ"));
        acc.remove(&ps("ZZ"));
        assert_eq!(acc, before);
        assert!(!acc.is_empty());
        assert_eq!(acc.len(), 1);
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
        assert_eq!(a.digest, b.digest);
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
        assert_eq!(w.digest, narrow.digest);
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
    fn group_shape_equality_compares_full_masks() {
        let a = shape(&["XZ", "YY"], 1.0);
        let mut forged = shape(&["XZ", "YZ"], 1.0);
        forged.digest = a.digest;
        assert_ne!(a, forged, "a shared digest must not make shapes equal");
    }

    #[test]
    #[should_panic(expected = "outside the group support")]
    fn group_shape_rejects_terms_off_the_support() {
        GroupShape::from_terms(&QubitMask::from_u128(0b01), &[(ps("XX"), 1.0)]);
    }
}
