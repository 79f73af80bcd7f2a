//! Allocation-free incremental evaluation of the Eq. (6) cost for the
//! Algorithm 1 candidate search, on bit-sliced row sets.
//!
//! The naive search scores each `Clifford2Q` candidate by conjugating a full
//! copy of the tableau (`bsf.conjugated(cand)`) and re-running the O(R²)
//! pairwise sweep of [`cost_bsf`] — a heap allocation plus quadratic work
//! for every one of the ~`6·s²·2` candidates of an epoch. This module
//! replaces that with a few shared popcounts per qubit pair and O(1) table
//! arithmetic per candidate, using four structural facts:
//!
//! 1. **Locality of conjugation.** A `Clifford2Q` on qubits `(a, b)` only
//!    rewrites bits `a` and `b` of each row ([`Bsf::apply_clifford2q`]), so
//!    every component of Eq. (6) splits into a part over the *other* bits —
//!    invariant under all 12 candidates of the pair — plus a part derivable
//!    from the pair's four columns `(x_a, z_a, x_b, z_b)`.
//!
//! 2. **Column decomposition of the pairwise sums.** For any bit `q` with
//!    column count `c_q` (rows having the bit set),
//!    `Σ_{i<j} [q ∈ m_i ∨ m_j] = C(R,2) − C(R−c_q,2)`, so the pairwise
//!    union-popcount sums of Eq. (6) are per-bit functions of column
//!    counts: no row pair is ever enumerated.
//!
//! 3. **Linearity.** Each oriented generator maps a row's nibble by an
//!    invertible GF(2)-linear map ([`Clifford2QKind::linear_map`]; signs
//!    are dropped, as Eq. (6) ignores them). Every output column is
//!    therefore `combo[m]`, the XOR of the input columns a fixed 4-bit `m`
//!    selects, and its count is one of 15 popcounts shared by all
//!    candidates of the pair. The support counts follow from
//!    `|A ∪ B| = (|A| + |B| + |A ⊕ B|) / 2`, where `A ⊕ B` is again a
//!    combo, so they need no popcount of their own.
//!
//! 4. **Nonlocality by rest weight.** Split the rows by their weight
//!    outside the pair into R0, R1 and R2 (0, 1 and ≥ 2). An R2 row stays
//!    nonlocal under every candidate. Each map is a bijection that sends
//!    only nibble 0 to 0, so an R1 row stays nonlocal exactly when its
//!    input nibble is nonzero. Only R0 rows depend on the candidate:
//!    `|R0 ∩ A ∩ B| = |R0 ∩ A| + |R0 ∩ B| − |R0 ∩ nonzero|`, which takes
//!    15 popcounts over R0, skipped when R0 is empty.
//!
//! Concretely, [`CostEvaluator::prepare`] transposes the tableau once per
//! epoch into column-major row bitsets of `⌈R/64⌉` words: an X and a Z
//! column per support qubit, indexed by support rank (so cost follows the
//! group's support, not the register width), plus the rows of weight
//! exactly 0, 1, 2 and 3, from which each pair's R0 and R1 are a few word
//! operations. All scratch lives on the stack or in buffers reused across
//! epochs — the scan allocates nothing.
//!
//! **Exactness:** every quantity is assembled as the same integers the
//! naive path counts, then combined with the identical float expression, so
//! costs are bit-identical and — with the tie-breaking described on
//! [`CostEvaluator::best_candidate`] — the argmin is the identical
//! candidate. Debug builds cross-check the winner against the naive path.
//!
//! [`Clifford2QKind::linear_map`]: phoenix_pauli::Clifford2QKind::linear_map

use std::sync::Arc;

#[cfg(debug_assertions)]
use crate::cost::cost_bsf;
use crate::par;
use phoenix_pauli::{map_nibble, nibble_weight, Bsf, Clifford2Q, CLIFFORD2Q_GENERATORS};

/// The shared popcounts of one qubit pair `(a, b)`, from which every
/// oriented candidate on it is scored. Lives on the stack.
struct PairCounts {
    /// `|combo[m]|` for every 4-bit `m` over `(x_a, z_a, x_b, z_b)`:
    /// the rows in which the `m`-selected input bits have odd parity.
    pop: [u32; 16],
    /// `|R0 ∩ combo[m]|` (all zero when R0 is empty).
    pop_r0: [u32; 16],
    /// `|R0 ∩ nonzero|`: rest-weight-0 rows with a nonzero nibble.
    r0_nonzero: u32,
    /// Rows nonlocal under every candidate: `|R2| + |R1 ∩ nonzero|`.
    fixed_nonlocal: u32,
    /// `Σ_{i<j} ‖(s_i ∨ s_j) \ {a,b}‖` — support-union pairs off the pair.
    rest_s: u64,
    /// Same for the X blocks.
    rest_x: u64,
    /// Same for the Z blocks.
    rest_z: u64,
    /// Total weight contributed by qubits outside `{a, b}`.
    w_rest: u64,
}

impl PairCounts {
    /// `|combo[m1] ∪ combo[m2]|`, by `|A ∪ B| = (|A| + |B| + |A ⊕ B|) / 2`.
    #[inline]
    fn union(&self, m1: usize, m2: usize) -> u32 {
        (self.pop[m1] + self.pop[m2] + self.pop[m1 ^ m2]) / 2
    }

    /// `|R0 ∩ (combo[m1] ∪ combo[m2])|`, by the same identity.
    #[inline]
    fn union_r0(&self, m1: usize, m2: usize) -> u32 {
        (self.pop_r0[m1] + self.pop_r0[m2] + self.pop_r0[m1 ^ m2]) / 2
    }
}

/// The 16 XOR combinations of one word of the pair's four columns:
/// `combo[m]` XORs the columns whose bit is set in `m`.
#[inline]
fn combos(xa: u64, za: u64, xb: u64, zb: u64) -> [u64; 16] {
    let mut c = [0u64; 16];
    for (bit, col) in [xa, za, xb, zb].into_iter().enumerate() {
        let half = 1 << bit;
        for m in 0..half {
            c[half + m] = c[m] ^ col;
        }
    }
    c
}

/// Number of set bits of a row bitset.
fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Index of the heaviest row (the last one among equals), the row the
/// guaranteed-progress fallback reduces.
///
/// # Panics
///
/// Panics if the tableau is empty.
pub(crate) fn heaviest_row(bsf: &Bsf) -> usize {
    bsf.rows()
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.weight())
        .map(|(i, _)| i)
        .expect("nonempty tableau")
}

/// Incremental evaluator for the Eq. (6) cost under 2Q Clifford candidates.
///
/// Usage: call [`prepare`](CostEvaluator::prepare) after every tableau
/// mutation, then any number of [`current_cost`](CostEvaluator::current_cost)
/// / [`candidate_cost`](CostEvaluator::candidate_cost) /
/// [`best_candidate`](CostEvaluator::best_candidate) /
/// [`progress_candidate`](CostEvaluator::progress_candidate) queries.
/// Buffers are reused across `prepare` calls, so one evaluator per worker
/// allocates only while its tableaux keep growing.
///
/// # Examples
///
/// ```
/// use phoenix_core::cost::cost_bsf;
/// use phoenix_core::CostEvaluator;
/// use phoenix_pauli::{Bsf, Clifford2Q, Clifford2QKind, PauliString};
///
/// let bsf = Bsf::from_terms(3, vec![("ZYY".parse::<PauliString>()?, 1.0)])?;
/// let mut eval = CostEvaluator::new();
/// eval.prepare(&bsf);
/// let cand = Clifford2Q::new(Clifford2QKind::Cxy, 1, 2);
/// assert_eq!(eval.candidate_cost(&bsf, cand), cost_bsf(&bsf.conjugated(cand)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostEvaluator {
    /// Number of rows of the prepared tableau.
    rows: u64,
    /// Words per row bitset: `⌈R/64⌉`.
    words: usize,
    /// Qubits with any support, ascending (the candidate pair universe); a
    /// qubit's position here is its *rank*.
    support: Vec<usize>,
    /// Column-major row bitsets. Rank `r`'s X column is the `words` words
    /// at `2·r·words`, its Z column the next `words`. A trailing all-zero
    /// pair at rank `support.len()` stands for every qubit off the support.
    cols: Vec<u64>,
    /// Row bitsets of the rows of weight exactly 0, 1, 2 and 3.
    weight_rows: Vec<u64>,
    /// The support as mask words (scratch of `prepare`).
    support_words: Vec<u64>,
    /// Rank of the first support qubit in each support word.
    word_rank: Vec<usize>,
    /// `Σ_q (C(R,2) − C(R−c_q^s,2))` — the full pairwise support sum.
    sum_s: u64,
    /// Same for the X blocks.
    sum_x: u64,
    /// Same for the Z blocks.
    sum_z: u64,
    /// The paper's `w_tot` (Eq. (4)).
    w_tot: u64,
    /// The paper's `n_n.l.` — rows of weight > 1.
    n_nl: u64,
}

/// `C(k, 2)` in u64.
#[inline]
fn pairs2(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

impl CostEvaluator {
    /// An empty evaluator; call [`prepare`](CostEvaluator::prepare) before
    /// querying.
    pub fn new() -> Self {
        CostEvaluator::default()
    }

    /// Transposes `bsf` into the column and weight-class row bitsets and
    /// rebuilds the Eq. (6) partial sums: one word-parallel pass for the
    /// support, then one over the rows' set bits. Must be called after
    /// every tableau mutation and before any query.
    pub fn prepare(&mut self, bsf: &Bsf) {
        let rows = bsf.rows();
        let words = rows.len().div_ceil(64);
        self.rows = rows.len() as u64;
        self.words = words;

        self.support_words.clear();
        for row in rows {
            for mask in [row.x_mask(), row.z_mask()] {
                let w = mask.words();
                if self.support_words.len() < w.len() {
                    self.support_words.resize(w.len(), 0);
                }
                for (s, &m) in self.support_words.iter_mut().zip(w) {
                    *s |= m;
                }
            }
        }
        self.support.clear();
        self.word_rank.clear();
        for (wi, &word) in self.support_words.iter().enumerate() {
            self.word_rank.push(self.support.len());
            let mut bits = word;
            while bits != 0 {
                self.support.push(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }

        let s = self.support.len();
        self.cols.clear();
        self.cols.resize(2 * (s + 1) * words, 0);
        self.weight_rows.clear();
        self.weight_rows.resize(4 * words, 0);
        self.n_nl = 0;
        for (i, row) in rows.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for (block, mask) in [row.x_mask(), row.z_mask()].into_iter().enumerate() {
                for (wi, &m) in mask.words().iter().enumerate() {
                    let mut bits = m;
                    while bits != 0 {
                        let low = bits & bits.wrapping_neg();
                        let rank = self.word_rank[wi]
                            + (self.support_words[wi] & (low - 1)).count_ones() as usize;
                        self.cols[(2 * rank + block) * words + word] |= bit;
                        bits ^= low;
                    }
                }
            }
            let w = row.weight();
            if w < 4 {
                self.weight_rows[w * words + word] |= bit;
            }
            if w > 1 {
                self.n_nl += 1;
            }
        }

        self.sum_s = 0;
        self.sum_x = 0;
        self.sum_z = 0;
        for rank in 0..s {
            let (x, z) = self.columns(rank);
            let (cx, cz) = (popcount(x), popcount(z));
            let cs: u32 = x.iter().zip(z).map(|(x, z)| (x | z).count_ones()).sum();
            self.sum_s += self.union_pairs(cs);
            self.sum_x += self.union_pairs(cx);
            self.sum_z += self.union_pairs(cz);
        }
        self.w_tot = s as u64;
    }

    /// The paper's `w_tot` (Eq. (4)) of the prepared tableau.
    pub fn total_weight(&self) -> usize {
        self.support.len()
    }

    /// Pairs of rows whose union has a bit with column count `c`:
    /// `C(R,2) − C(R−c,2)`.
    #[inline]
    fn union_pairs(&self, c: u32) -> u64 {
        pairs2(self.rows) - pairs2(self.rows - c as u64)
    }

    /// The X and Z columns of support rank `rank` (all zero for
    /// `rank == support.len()`).
    #[inline]
    fn columns(&self, rank: usize) -> (&[u64], &[u64]) {
        let x = 2 * rank * self.words;
        (
            &self.cols[x..x + self.words],
            &self.cols[x + self.words..x + 2 * self.words],
        )
    }

    /// Support rank of qubit `q`, or the all-zero rank if `q` is off the
    /// support.
    fn rank(&self, q: usize) -> usize {
        self.support.binary_search(&q).unwrap_or(self.support.len())
    }

    /// The Eq. (6) cost of the prepared tableau, bit-identical to
    /// [`cost_bsf`] on it.
    pub fn current_cost(&self) -> f64 {
        let n_nl = self.n_nl as f64;
        self.w_tot as f64 * n_nl * n_nl + self.sum_s as f64 + 0.5 * (self.sum_x + self.sum_z) as f64
    }

    /// Builds the shared counts of the pair of support ranks `(ra, rb)`,
    /// qubit `a` having the lower index: O(⌈R/64⌉) word operations.
    fn pair_counts(&self, ra: usize, rb: usize) -> PairCounts {
        let ((xa, za), (xb, zb)) = (self.columns(ra), self.columns(rb));
        let w = self.words;
        let classes = &self.weight_rows;
        let mut pop = [0u32; 16];
        let mut pop_r0 = [0u32; 16];
        let (mut low_rest, mut r1_nonzero, mut r0_nonzero) = (0u32, 0u32, 0u32);
        for i in 0..w {
            let combo = combos(xa[i], za[i], xb[i], zb[i]);
            for m in 1..16 {
                pop[m] += combo[m].count_ones();
            }
            let (sa, sb) = (xa[i] | za[i], xb[i] | zb[i]);
            let nonzero = sa | sb;
            // Rows by pair weight: 0 (`!nonzero`), 1 (`sa ^ sb`), 2 (`sa & sb`).
            let by_pair = [!nonzero, sa ^ sb, sa & sb];
            let class = |k: usize| classes[k * w + i];
            let r0 = (class(0) & by_pair[0]) | (class(1) & by_pair[1]) | (class(2) & by_pair[2]);
            let r1 = (class(1) & by_pair[0]) | (class(2) & by_pair[1]) | (class(3) & by_pair[2]);
            low_rest += (r0 | r1).count_ones();
            r1_nonzero += (r1 & nonzero).count_ones();
            if r0 != 0 {
                r0_nonzero += (r0 & nonzero).count_ones();
                for m in 1..16 {
                    pop_r0[m] += (combo[m] & r0).count_ones();
                }
            }
        }
        // The input columns are combos 1, 2, 4 and 8.
        let mut counts = PairCounts {
            pop,
            pop_r0,
            r0_nonzero,
            fixed_nonlocal: self.rows as u32 - low_rest + r1_nonzero,
            rest_s: 0,
            rest_x: self.sum_x - self.union_pairs(pop[1]) - self.union_pairs(pop[4]),
            rest_z: self.sum_z - self.union_pairs(pop[2]) - self.union_pairs(pop[8]),
            w_rest: 0,
        };
        let (sa, sb) = (counts.union(1, 2), counts.union(4, 8));
        counts.rest_s = self.sum_s - self.union_pairs(sa) - self.union_pairs(sb);
        counts.w_rest = self.w_tot - (sa > 0) as u64 - (sb > 0) as u64;
        counts
    }

    /// The counts of the pair of *qubits* `(a, b)`, either order.
    fn pair_counts_of(&self, a: usize, b: usize) -> PairCounts {
        let (a, b) = (a.min(b), a.max(b));
        self.pair_counts(self.rank(a), self.rank(b))
    }

    /// Scores one oriented candidate — its linear map rows
    /// `(x_a, z_a, x_b, z_b)` — against a pair's counts in O(1),
    /// assembling the exact integers of [`cost_bsf`].
    #[inline]
    fn score(&self, p: &PairCounts, map: &[u8; 4]) -> f64 {
        let [xa, za, xb, zb] = map.map(usize::from);
        let (cax, caz, cbx, cbz) = (p.pop[xa], p.pop[za], p.pop[xb], p.pop[zb]);
        let (cas, cbs) = (p.union(xa, za), p.union(xb, zb));
        let n_nl = p.fixed_nonlocal + p.union_r0(xa, za) + p.union_r0(xb, zb) - p.r0_nonzero;
        let pair_support = p.rest_s + self.union_pairs(cas) + self.union_pairs(cbs);
        let pair_blocks = p.rest_x
            + p.rest_z
            + self.union_pairs(cax)
            + self.union_pairs(cbx)
            + self.union_pairs(caz)
            + self.union_pairs(cbz);
        let w_tot = p.w_rest + (cas > 0) as u64 + (cbs > 0) as u64;
        let n_nl = n_nl as f64;
        w_tot as f64 * n_nl * n_nl + pair_support as f64 + 0.5 * pair_blocks as f64
    }

    /// The linear map of `cand` in the fixed (lower qubit, higher qubit)
    /// bit order of [`pair_counts_of`](CostEvaluator::pair_counts_of).
    fn map_of(cand: Clifford2Q) -> &'static [u8; 4] {
        cand.kind.linear_map(cand.a > cand.b)
    }

    /// The Eq. (6) cost of `bsf.conjugated(cand)`, bit-identical to
    /// `cost_bsf(&bsf.conjugated(cand))` — without materializing the
    /// conjugated tableau.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if [`prepare`](CostEvaluator::prepare) was
    /// not called for this exact tableau.
    pub fn candidate_cost(&self, bsf: &Bsf, cand: Clifford2Q) -> f64 {
        debug_assert_eq!(self.rows as usize, bsf.rows().len(), "prepare() is stale");
        self.score(&self.pair_counts_of(cand.a, cand.b), Self::map_of(cand))
    }

    /// The total weight `w_tot` of `bsf.conjugated(cand)`, for the
    /// prepared `bsf`, without materializing the conjugated tableau.
    pub fn total_weight_after(&self, cand: Clifford2Q) -> usize {
        let p = self.pair_counts_of(cand.a, cand.b);
        let [xa, za, xb, zb] = Self::map_of(cand).map(usize::from);
        (p.w_rest + (p.union(xa, za) > 0) as u64 + (p.union(xb, zb) > 0) as u64) as usize
    }

    /// The greedy choice of Algorithm 1: the generator/qubit-pair/orientation
    /// minimizing Eq. (6) on the conjugated tableau.
    ///
    /// Ties are broken exactly as the naive kind-major scan does — by the
    /// lexicographic visiting order (generator index, support-pair rank,
    /// orientation) — so the returned candidate is *identical* to the naive
    /// path's, not merely equally good.
    pub fn best_candidate(&self, bsf: &Bsf) -> Option<(Clifford2Q, f64)> {
        self.best_candidate_scan(bsf, 1)
    }

    /// [`best_candidate`](CostEvaluator::best_candidate) with the pair scan
    /// split into `threads` pair ranges run by at most `threads` threads of
    /// the crate's worker pool, the caller first (`0` = one per core, `1` =
    /// inline). Each range reduces to a local minimum under the same total
    /// order, so the result is identical for every thread count.
    pub fn best_candidate_scan(&self, bsf: &Bsf, threads: usize) -> Option<(Clifford2Q, f64)> {
        self.best_candidate_scan_capped(bsf, threads, usize::MAX)
    }

    /// [`best_candidate_scan`](CostEvaluator::best_candidate_scan) restricted
    /// to the first `max_pairs` support-pair ranks — the breadth knob of the
    /// anytime deepening schedule. `usize::MAX` scans every pair and is
    /// bit-identical to the uncapped scan; smaller caps visit a prefix of the
    /// same canonical `(generator, pair rank, orientation)` order, so the
    /// result is still deterministic for every thread count.
    pub fn best_candidate_scan_capped(
        &self,
        bsf: &Bsf,
        threads: usize,
        max_pairs: usize,
    ) -> Option<(Clifford2Q, f64)> {
        debug_assert_eq!(self.rows as usize, bsf.rows().len(), "prepare() is stale");
        let threads = par::resolve_threads(threads);
        let num_pairs = (pairs2(self.support.len() as u64) as usize).min(max_pairs);
        let best = if threads <= 1 || num_pairs < 2 * threads {
            self.scan_pair_range(0, num_pairs)
        } else {
            let threads = threads.min(num_pairs);
            let chunk = num_pairs.div_ceil(threads);
            // Pool threads outlive this borrow, so the chunks scan a shared
            // copy of the prepared tables.
            let eval = Arc::new(self.clone());
            par::map(
                threads,
                threads,
                || (),
                move |_, t| eval.scan_pair_range(t * chunk, ((t + 1) * chunk).min(num_pairs)),
            )
            .into_iter()
            .flatten()
            .min_by(|x, y| {
                (x.0, x.1)
                    .partial_cmp(&(y.0, y.1))
                    .expect("Eq. (6) costs are never NaN")
            })
        };
        let result = best.map(|(cost, _, cand)| (cand, cost));
        #[cfg(debug_assertions)]
        if let Some((cand, cost)) = result {
            debug_assert_eq!(
                cost.to_bits(),
                cost_bsf(&bsf.conjugated(cand)).to_bits(),
                "incremental cost diverged from the naive path for {cand}"
            );
        }
        result
    }

    /// Scans support-pair ranks `lo..hi` over all generators/orientations,
    /// returning the local minimum keyed by
    /// `(cost, (generator index, pair rank, orientation))`.
    #[allow(clippy::type_complexity)]
    fn scan_pair_range(
        &self,
        lo: usize,
        hi: usize,
    ) -> Option<(f64, (usize, usize, usize), Clifford2Q)> {
        let maps: [[u8; 4]; 12] =
            std::array::from_fn(|i| *CLIFFORD2Q_GENERATORS[i / 2].linear_map(i % 2 == 1));
        let mut best: Option<(f64, (usize, usize, usize), Clifford2Q)> = None;
        let s = self.support.len();
        let mut rank = 0usize;
        for ra in 0..s {
            for rb in ra + 1..s {
                let pair_rank = rank;
                rank += 1;
                if pair_rank < lo {
                    continue;
                }
                if pair_rank >= hi {
                    return best;
                }
                let counts = self.pair_counts(ra, rb);
                for (k, &kind) in CLIFFORD2Q_GENERATORS.iter().enumerate() {
                    let orientations = if kind.sigma0() == kind.sigma1() { 1 } else { 2 };
                    for o in 0..orientations {
                        let cost = self.score(&counts, &maps[2 * k + o]);
                        let key = (k, pair_rank, o);
                        if best
                            .as_ref()
                            .is_none_or(|&(bc, bk, _)| cost < bc || (cost == bc && key < bk))
                        {
                            let (a, b) = (self.support[ra], self.support[rb]);
                            let (x, y) = if o == 0 { (a, b) } else { (b, a) };
                            best = Some((cost, key, Clifford2Q::new(kind, x, y)));
                        }
                    }
                }
            }
        }
        best
    }

    /// The guaranteed-progress fallback: strictly reduce the heaviest row's
    /// weight, breaking ties by Eq. (6) and then by the naive visiting
    /// order. Identical to the naive path's choice.
    ///
    /// # Panics
    ///
    /// Panics if the tableau is empty or no weight-reducing Clifford exists
    /// (impossible for rows of weight ≥ 2).
    pub fn progress_candidate(&self, bsf: &Bsf) -> Clifford2Q {
        self.reduce_row(bsf, heaviest_row(bsf))
    }

    /// The Clifford that strictly reduces the weight of row `row`, breaking
    /// ties by the reduced weight, then Eq. (6), then the naive visiting
    /// order. Identical to [`reduce_row_naive`](crate::simplify::reduce_row_naive).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or has weight < 2.
    pub fn reduce_row(&self, bsf: &Bsf, row: usize) -> Clifford2Q {
        let target = &bsf.rows()[row];
        let old_w = target.weight();
        type Entry = ((usize, f64), (usize, usize, usize), Clifford2Q);
        let mut best: Option<Entry> = None;
        let mut pair_rank = 0usize;
        let support = target.support_mask().to_indices();
        for (ai, &a) in support.iter().enumerate() {
            for &b in &support[ai + 1..] {
                let counts = self.pair_counts_of(a, b);
                let nib = target.nibble(a, b);
                let rest_w = old_w - nibble_weight(nib);
                for (k, &kind) in CLIFFORD2Q_GENERATORS.iter().enumerate() {
                    // The naive fallback tries both orientations even for
                    // symmetric generators; mirror that exactly.
                    for o in 0..2 {
                        let map = kind.linear_map(o == 1);
                        let w = rest_w + nibble_weight(map_nibble(map, nib));
                        if w >= old_w {
                            continue;
                        }
                        let cost = self.score(&counts, map);
                        let val = (w, cost);
                        let key = (k, pair_rank, o);
                        if best
                            .as_ref()
                            .is_none_or(|&(bv, bk, _)| val < bv || (val == bv && key < bk))
                        {
                            let (x, y) = if o == 0 { (a, b) } else { (b, a) };
                            best = Some((val, key, Clifford2Q::new(kind, x, y)));
                        }
                    }
                }
                pair_rank += 1;
            }
        }
        let cand = best
            .expect("a weight-reducing clifford always exists for weight ≥ 2 rows")
            .2;
        #[cfg(debug_assertions)]
        debug_assert!(
            bsf.conjugated(cand).rows()[row].weight() < old_w,
            "progress candidate {cand} failed to reduce row {row}"
        );
        cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost_bsf;
    use phoenix_pauli::PauliString;

    fn bsf(labels: &[&str]) -> Bsf {
        let n = labels[0].len();
        Bsf::from_terms(
            n,
            labels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.parse::<PauliString>().unwrap(), 0.1 * (i + 1) as f64)),
        )
        .unwrap()
    }

    fn all_candidates(n: usize) -> Vec<Clifford2Q> {
        let mut out = Vec::new();
        for kind in CLIFFORD2Q_GENERATORS {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        out.push(Clifford2Q::new(kind, a, b));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn candidate_cost_matches_naive_on_fig1b() {
        let bsf = bsf(&["ZYY", "ZZY", "XYY", "XZY"]);
        let mut eval = CostEvaluator::new();
        eval.prepare(&bsf);
        for cand in all_candidates(3) {
            assert_eq!(
                eval.candidate_cost(&bsf, cand).to_bits(),
                cost_bsf(&bsf.conjugated(cand)).to_bits(),
                "{cand}"
            );
        }
    }

    #[test]
    fn current_cost_matches_naive() {
        for labels in [
            vec!["ZYY", "ZZY", "XYY", "XZY"],
            vec!["XXXX", "YYII", "ZZZZ", "XYZX"],
            vec!["XZZY", "YIZZ"],
            vec!["ZIIII"],
        ] {
            let b = bsf(&labels);
            let mut eval = CostEvaluator::new();
            eval.prepare(&b);
            assert_eq!(eval.current_cost().to_bits(), cost_bsf(&b).to_bits());
        }
    }

    #[test]
    fn empty_tableau_costs_zero_and_has_no_candidates() {
        let b = Bsf::new(4);
        let mut eval = CostEvaluator::new();
        eval.prepare(&b);
        assert_eq!(eval.current_cost(), 0.0);
        assert!(eval.best_candidate(&b).is_none());
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let b = bsf(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX", "IXYZX"]);
        let mut eval = CostEvaluator::new();
        eval.prepare(&b);
        let seq = eval.best_candidate(&b);
        for threads in [2, 3, 8] {
            assert_eq!(
                eval.best_candidate_scan(&b, threads),
                seq,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn capped_scan_is_a_prefix_of_the_full_scan() {
        let b = bsf(&["XXYYZ", "YZXZI", "ZZZXX", "XYIYX", "IXYZX"]);
        let mut eval = CostEvaluator::new();
        eval.prepare(&b);
        // The uncapped cap is bit-identical to the legacy full scan.
        assert_eq!(
            eval.best_candidate_scan_capped(&b, 1, usize::MAX),
            eval.best_candidate(&b)
        );
        // A capped scan equals the sequential minimum over the pair-rank
        // prefix, for every thread count.
        for cap in [1usize, 2, 4, 7] {
            let seq = eval.best_candidate_scan_capped(&b, 1, cap);
            assert!(seq.is_some(), "cap {cap}");
            for threads in [2, 3, 8] {
                assert_eq!(
                    eval.best_candidate_scan_capped(&b, threads, cap),
                    seq,
                    "cap {cap}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn prepare_is_reusable_across_mutations() {
        let mut b = bsf(&["ZYY", "ZZY", "XYY", "XZY"]);
        let mut eval = CostEvaluator::new();
        eval.prepare(&b);
        let (cand, _) = eval.best_candidate(&b).unwrap();
        b.apply_clifford2q(cand);
        eval.prepare(&b);
        assert_eq!(eval.current_cost().to_bits(), cost_bsf(&b).to_bits());
    }
}
