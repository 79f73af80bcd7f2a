//! Stage 3: Tetris-like IR group ordering (§IV-C).
//!
//! Simplified groups are abstracted into Tetris-block-like shapes; assembly
//! greedily minimizes a uniform cost combining
//!
//! 1. the **depth overhead** of abutting the candidate block against the
//!    already-assembled circuit — how many 2Q layers the block adds when it
//!    slides into the assembled frontier (the endian-vector picture of
//!    Fig. 3: a block whose left endian meshes with the frontier's right
//!    endian adds fewer layers);
//! 2. a credit for Hermitian Clifford2Q pairs cancelling across the seam
//!    (Fig. 4(a)), including extra credit when the cancellation clears a
//!    whole facing layer;
//! 3. in hardware-aware mode, division by the interaction-graph similarity
//!    factor of Eq. (7) (Fig. 4(b)).
//!
//! *Transcription note:* the paper's printed formula reads
//! `cost = SUM(e_r + e_l')` to be minimized, but taken literally that
//! prefers colliding blocks over side-by-side packing, contradicting the
//! stated goal of minimizing circuit depth (and the depth-optimal QAOA
//! claim of §V-E). We therefore implement the quantity the endian vectors
//! are introduced to measure — the depth increase of the assembly — which
//! reproduces the paper's reported behaviour.
//!
//! Groups are pre-sorted by descending width, then assembled with a bounded
//! lookahead window.

use phoenix_circuit::interaction::{head_edges, tail_edges};
use phoenix_circuit::{Circuit, Gate};
use phoenix_pauli::{Clifford2Q, QubitMask};
use std::collections::{BTreeSet, VecDeque};

#[cfg(test)]
mod legacy;

/// Ordering parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderOptions {
    /// How many upcoming groups are scored against the last assembled one.
    pub lookahead: usize,
    /// Whether to apply the Eq. (7) routing-similarity factor.
    pub routing_aware: bool,
}

impl Default for OrderOptions {
    fn default() -> Self {
        OrderOptions {
            lookahead: 10,
            routing_aware: false,
        }
    }
}

/// The per-qubit 2Q-layer frontier of an assembled prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    layers: Vec<usize>,
    depth: usize,
}

impl Frontier {
    /// An empty frontier over `n` qubits.
    pub fn new(n: usize) -> Self {
        Frontier {
            layers: vec![0; n],
            depth: 0,
        }
    }

    /// Current 2Q depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes every 2Q gate of `c` onto the frontier.
    pub fn push(&mut self, c: &Circuit) {
        for g in c.gates() {
            if let (a, Some(b)) = g.qubits() {
                let layer = self.layers[a].max(self.layers[b]) + 1;
                self.layers[a] = layer;
                self.layers[b] = layer;
                self.depth = self.depth.max(layer);
            }
        }
    }

    /// 2Q layers that pushing the group of `shape` would add (ASAP
    /// scheduling), from its depth profile alone: the deepest layer the
    /// group reaches is `max_q f[q] + L_q`, so the depth grows by
    /// `max(depth, max_q f[q] + L_q) − depth`.
    fn layers_added(&self, shape: &Shape) -> usize {
        let reach = shape
            .profile
            .iter()
            .map(|&(q, l)| self.layers[q] + l)
            .max()
            .unwrap_or(0);
        self.depth.max(reach) - self.depth
    }
}

/// The Tetris shape of one group (§IV-C): everything the assembly cost
/// reads from a group, computed once per ordering instead of once per
/// window candidate.
#[derive(Debug)]
struct Shape {
    /// The 2Q depth profile: `(q, L_q)` for every qubit `q` of the 2Q
    /// support in ascending order, where `L_q` is the longest chain of 2Q
    /// gates (each sharing a qubit with the one before) that starts at
    /// `q`'s first 2Q gate.
    profile: Vec<(usize, usize)>,
    /// Clifford2Qs reachable from the left end without crossing any other
    /// gate on their qubits.
    leading: Vec<Clifford2Q>,
    /// The same from the right end.
    trailing: Vec<Clifford2Q>,
    /// The first 2Q layer from the left end; `None` marks a 2Q gate that
    /// is not a Clifford2Q.
    head_layer: Vec<Option<Clifford2Q>>,
    /// The first 2Q layer from the right end.
    tail_layer: Vec<Option<Clifford2Q>>,
    /// Routing-aware only: hop counts between the 2Q support's qubits in
    /// the head and tail interaction graphs, row-major in support order
    /// ([`hop_table`]).
    head_hops: Vec<u32>,
    tail_hops: Vec<u32>,
}

impl Shape {
    /// The shape of `c`. `chain` is a zeroed scratch row over at least
    /// `c`'s qubits and is left zeroed.
    fn new(c: &Circuit, routing_aware: bool, chain: &mut [usize]) -> Self {
        // Backward longest-path pass: after it, chain[q] is the longest 2Q
        // chain starting at q's first 2Q gate.
        let mut support = QubitMask::zeros(c.num_qubits());
        for g in c.gates().iter().rev() {
            if let (a, Some(b)) = g.qubits() {
                let len = chain[a].max(chain[b]) + 1;
                chain[a] = len;
                chain[b] = len;
                support.set_bit(a);
                support.set_bit(b);
            }
        }
        let support = support.to_indices();
        let (head_hops, tail_hops) = if routing_aware {
            (
                hop_table(&support, &head_edges(c)),
                hop_table(&support, &tail_edges(c)),
            )
        } else {
            Default::default()
        };
        let profile = support
            .into_iter()
            .map(|q| (q, std::mem::take(&mut chain[q])))
            .collect();
        Shape {
            profile,
            leading: frontier_cliffords(c.gates().iter()),
            trailing: frontier_cliffords(c.gates().iter().rev()),
            head_layer: facing_layer(c.gates().iter()),
            tail_layer: facing_layer(c.gates().iter().rev()),
            head_hops,
            tail_hops,
        }
    }
}

/// Marks a qubit outside a group's 2Q support.
const ABSENT: usize = usize::MAX;
/// Marks a pair of support qubits that an interaction graph does not
/// connect.
const UNREACHABLE: u32 = u32::MAX;

/// Hop counts between the qubits of `support` (ascending) in the graph of
/// `edges`, which lie on `support`: row-major over support positions,
/// [`UNREACHABLE`] where the graph has no path.
fn hop_table(support: &[usize], edges: &BTreeSet<(usize, usize)>) -> Vec<u32> {
    let k = support.len();
    let pos = |q: usize| {
        support
            .binary_search(&q)
            .expect("interaction edges lie on the 2Q support")
    };
    let mut adj = vec![Vec::new(); k];
    for &(a, b) in edges {
        adj[pos(a)].push(pos(b));
        adj[pos(b)].push(pos(a));
    }
    let mut hops = vec![UNREACHABLE; k * k];
    let mut queue = Vec::with_capacity(k);
    for (s, row) in hops.chunks_exact_mut(k.max(1)).enumerate() {
        row[s] = 0;
        queue.clear();
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &adj[u] {
                if row[v] == UNREACHABLE {
                    row[v] = row[u] + 1;
                    queue.push(v);
                }
            }
        }
    }
    hops
}

/// Buffers reused across candidate evaluations.
#[derive(Default)]
struct Scratch {
    /// Which trailing Cliffords of the previous group are already matched.
    used: Vec<bool>,
    /// Every Clifford2Q matched across the seam, from both sides.
    matched: Vec<Clifford2Q>,
    /// Union of the two groups' 2Q supports, ascending, as each qubit's
    /// position in the previous and the candidate support ([`ABSENT`] if
    /// outside).
    nodes: Vec<(usize, usize)>,
}

/// The assembling cost of placing `next` after the assembled prefix whose
/// frontier is `frontier` and whose last block is `prev`.
///
/// Lower is better; Clifford-cancellation credits can push it negative.
pub fn assembly_cost(
    frontier: &Frontier,
    prev: &Circuit,
    next: &Circuit,
    opts: &OrderOptions,
) -> f64 {
    let n = prev.num_qubits().max(next.num_qubits());
    let mut chain = vec![0; n];
    let prev = Shape::new(prev, opts.routing_aware, &mut chain);
    let next = Shape::new(next, opts.routing_aware, &mut chain);
    shape_cost(frontier, &prev, &next, opts, &mut Scratch::default())
}

/// [`assembly_cost`] on precomputed shapes.
fn shape_cost(
    frontier: &Frontier,
    prev: &Shape,
    next: &Shape,
    opts: &OrderOptions,
    scratch: &mut Scratch,
) -> f64 {
    let mut cost = frontier.layers_added(next) as f64;

    // Clifford2Q cancellation credit.
    let (m, prev_layer_cleared, next_layer_cleared) = clifford_cancellations(prev, next, scratch);
    cost -= 2.0 * m as f64;
    if prev_layer_cleared {
        cost -= 1.0;
    }
    if next_layer_cleared {
        cost -= 1.0;
    }

    if opts.routing_aware {
        let s = mean_similarity(prev, next, scratch).clamp(0.05, 1.0);
        cost = if cost >= 0.0 { cost / s } else { cost * s };
    }
    cost
}

/// Eq. (7) similarity of `prev`'s tail and `next`'s head, normalized to a
/// mean row cosine in `[0, 1]`.
///
/// The distance matrices span the union `U` of the two 2Q supports. A
/// graph's edges lie on its own group's support, so two qubits of that
/// support are as far apart as in the group's hop table, and any other
/// off-diagonal pair is unreachable, which counts as `|U|`. Every distance
/// is an integer, so the integer dot products and squared norms convert
/// to the exact `f64` sums a row-by-row float computation gives.
fn mean_similarity(prev: &Shape, next: &Shape, scratch: &mut Scratch) -> f64 {
    let nodes = &mut scratch.nodes;
    nodes.clear();
    let (p, q) = (&prev.profile, &next.profile);
    let (mut i, mut j) = (0, 0);
    while i < p.len() || j < q.len() {
        let a = p.get(i).map_or(ABSENT, |&(x, _)| x);
        let b = q.get(j).map_or(ABSENT, |&(x, _)| x);
        let x = a.min(b);
        nodes.push((
            if a == x { i } else { ABSENT },
            if b == x { j } else { ABSENT },
        ));
        i += usize::from(a == x);
        j += usize::from(b == x);
    }
    let k = nodes.len();
    if k == 0 {
        return 1.0;
    }
    let far = k as u64;
    let distance = |hops: &[u32], width: usize, x: usize, y: usize| -> u64 {
        if x == ABSENT || y == ABSENT {
            return far;
        }
        match hops[x * width + y] {
            UNREACHABLE => far,
            h => u64::from(h),
        }
    };
    let mut s = 0.0;
    for (r, &(pr, qr)) in nodes.iter().enumerate() {
        let (mut dot, mut n1, mut n2) = (0u64, 0u64, 0u64);
        for (c, &(pc, qc)) in nodes.iter().enumerate() {
            if c == r {
                continue; // zero on the diagonal
            }
            let t = distance(&prev.tail_hops, p.len(), pr, pc);
            let h = distance(&next.head_hops, q.len(), qr, qc);
            dot += t * h;
            n1 += t * t;
            n2 += h * h;
        }
        let (n1, n2) = ((n1 as f64).sqrt(), (n2 as f64).sqrt());
        if n1 > 0.0 && n2 > 0.0 {
            s += dot as f64 / (n1 * n2);
        }
    }
    s / k as f64
}

/// Counts Hermitian Clifford2Q pairs that cancel across the seam and
/// whether the cancellation clears the facing 2Q layer on either side.
fn clifford_cancellations(
    prev: &Shape,
    next: &Shape,
    scratch: &mut Scratch,
) -> (usize, bool, bool) {
    let Scratch { used, matched, .. } = scratch;
    used.clear();
    used.resize(prev.trailing.len(), false);
    matched.clear();
    for l in &next.leading {
        let hit = (0..prev.trailing.len()).find(|&p| !used[p] && cancels(&prev.trailing[p], l));
        if let Some(p) = hit {
            used[p] = true;
            matched.push(prev.trailing[p]);
            matched.push(*l);
        }
    }
    if matched.is_empty() {
        return (0, false, false);
    }
    let cleared = |layer: &[Option<Clifford2Q>]| {
        !layer.is_empty()
            && layer
                .iter()
                .all(|g| g.is_some_and(|c| matched.contains(&c)))
    };
    (
        matched.len() / 2,
        cleared(&prev.tail_layer),
        cleared(&next.head_layer),
    )
}

/// The frontier 2Q Cliffords reachable from one end without crossing any
/// other gate on their qubits.
fn frontier_cliffords<'a>(gates: impl Iterator<Item = &'a Gate>) -> Vec<Clifford2Q> {
    let mut blocked = QubitMask::default();
    let mut out = Vec::new();
    for g in gates {
        let (a, b) = g.qubits();
        let hit = blocked.bit(a) || b.is_some_and(|b| blocked.bit(b));
        if let Gate::Clifford2(c) = g {
            if !hit {
                out.push(*c);
            }
        }
        blocked.set_bit(a);
        if let Some(b) = b {
            blocked.set_bit(b);
        }
    }
    out
}

/// The first 2Q layer met from one end: the 2Q gates seen before any two
/// of them share a qubit (1Q gates are ignored). `None` marks a gate that
/// is not a Clifford2Q.
fn facing_layer<'a>(gates: impl Iterator<Item = &'a Gate>) -> Vec<Option<Clifford2Q>> {
    let mut blocked = QubitMask::default();
    let mut out = Vec::new();
    for g in gates {
        let (a, b) = g.qubits();
        let Some(b) = b else { continue };
        if blocked.bit(a) || blocked.bit(b) {
            break;
        }
        blocked.set_bit(a);
        blocked.set_bit(b);
        out.push(match g {
            Gate::Clifford2(c) => Some(*c),
            _ => None,
        });
    }
    out
}

/// Whether two Clifford2Q gates are inverse (= equal, they are Hermitian) up
/// to the qubit exchange symmetry of the `C(σ,σ)` generators.
fn cancels(a: &Clifford2Q, b: &Clifford2Q) -> bool {
    if a.kind != b.kind {
        return false;
    }
    if a.a == b.a && a.b == b.b {
        return true;
    }
    // C(σ,σ) is symmetric under qubit exchange.
    a.kind.sigma0() == a.kind.sigma1() && a.a == b.b && a.b == b.a
}

/// Orders group subcircuits: descending-width pre-sort, then greedy
/// lookahead assembly against the running frontier. Returns the permutation
/// of input indices.
pub fn order_groups(circuits: &[Circuit], opts: &OrderOptions) -> Vec<usize> {
    order_groups_interruptible(circuits, opts, &mut || false)
        .expect("a never-true interrupt cannot abort the ordering")
}

/// [`order_groups`] with a cooperative interruption point before each
/// greedy placement: when `interrupted` returns `true` the partial ordering
/// is abandoned and `None` is returned — a half-greedy permutation is never
/// delivered. The closure is the hook through which the anytime deepening
/// rounds and the ordering pass observe the budget and `CancelToken`s
/// mid-loop.
///
/// Each group's Tetris shape is computed once up front, so a window candidate
/// costs O(2Q support + frontier Cliffords) (plus O(|U|²) hop-table lookups
/// over the merged support `U` when routing-aware), independent of the
/// group's gate count.
pub fn order_groups_interruptible(
    circuits: &[Circuit],
    opts: &OrderOptions,
    interrupted: &mut dyn FnMut() -> bool,
) -> Option<Vec<usize>> {
    let width: Vec<u32> = circuits
        .iter()
        .map(|c| c.support_mask().count_ones())
        .collect();
    let mut remaining: VecDeque<usize> = (0..circuits.len()).collect();
    remaining
        .make_contiguous()
        .sort_by_key(|&i| std::cmp::Reverse(width[i]));
    let Some(first) = remaining.pop_front() else {
        return Some(Vec::new());
    };
    let n = circuits.iter().map(Circuit::num_qubits).max().unwrap_or(0);
    let mut chain = vec![0; n];
    let shapes: Vec<Shape> = circuits
        .iter()
        .map(|c| Shape::new(c, opts.routing_aware, &mut chain))
        .collect();
    let mut scratch = Scratch::default();
    let mut frontier = Frontier::new(n);
    let mut result = Vec::with_capacity(circuits.len());
    result.push(first);
    frontier.push(&circuits[first]);
    while !remaining.is_empty() {
        if interrupted() {
            return None;
        }
        let last = &shapes[*result.last().expect("result is nonempty")];
        let window = remaining.len().min(opts.lookahead.max(1));
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (w, &cand) in remaining.iter().take(window).enumerate() {
            let cost = shape_cost(&frontier, last, &shapes[cand], opts, &mut scratch);
            if cost < best_cost {
                best_cost = cost;
                best = w;
            }
        }
        let chosen = remaining.remove(best).expect("best is inside the window");
        frontier.push(&circuits[chosen]);
        result.push(chosen);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::Clifford2QKind;

    fn cnot_chain(n: usize, pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::Cnot(a, b));
        }
        c
    }

    fn frontier_of(c: &Circuit) -> Frontier {
        let mut f = Frontier::new(c.num_qubits());
        f.push(c);
        f
    }

    #[test]
    fn disjoint_blocks_pack_for_free() {
        let prev = cnot_chain(4, &[(0, 1)]);
        let next = cnot_chain(4, &[(2, 3)]);
        let c = assembly_cost(&frontier_of(&prev), &prev, &next, &OrderOptions::default());
        assert_eq!(c, 0.0, "disjoint blocks share a layer");
    }

    #[test]
    fn colliding_blocks_add_depth() {
        let prev = cnot_chain(2, &[(0, 1)]);
        let next = cnot_chain(2, &[(0, 1)]);
        let c = assembly_cost(&frontier_of(&prev), &prev, &next, &OrderOptions::default());
        assert_eq!(c, 1.0, "stacking adds one layer");
    }

    fn shape_of(c: &Circuit, routing_aware: bool) -> Shape {
        Shape::new(c, routing_aware, &mut vec![0; c.num_qubits()])
    }

    #[test]
    fn frontier_accumulates_depth() {
        let mut f = Frontier::new(3);
        f.push(&cnot_chain(3, &[(0, 1)]));
        assert_eq!(f.depth(), 1);
        assert_eq!(
            f.layers_added(&shape_of(&cnot_chain(3, &[(1, 2)]), false)),
            1
        );
        let two = shape_of(&cnot_chain(3, &[(1, 2), (0, 1)]), false);
        assert_eq!(two.profile, vec![(0, 1), (1, 2), (2, 2)]);
        assert_eq!(f.layers_added(&two), 2);
    }

    #[test]
    fn clifford_cancellation_credit_applies() {
        let cl = Clifford2Q::new(Clifford2QKind::Cxy, 0, 1);
        let mut prev = Circuit::new(3);
        prev.push(Gate::Cnot(1, 2));
        prev.push(Gate::Clifford2(cl));
        let mut next = Circuit::new(3);
        next.push(Gate::Clifford2(cl));
        next.push(Gate::Cnot(1, 2));
        let f = frontier_of(&prev);
        let with = assembly_cost(&f, &prev, &next, &OrderOptions::default());
        // Same shape without the matching Cliffords at the seam:
        let mut prev2 = Circuit::new(3);
        prev2.push(Gate::Clifford2(cl));
        prev2.push(Gate::Cnot(1, 2));
        let f2 = frontier_of(&prev2);
        let without = assembly_cost(&f2, &prev2, &next, &OrderOptions::default());
        assert!(with < without, "{with} vs {without}");
    }

    #[test]
    fn similarity_factor_ranks_interaction_shapes() {
        let prev = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let similar = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let different = cnot_chain(4, &[(0, 3), (0, 2), (1, 3)]);
        let sim = |a: &Circuit, b: &Circuit| {
            mean_similarity(
                &shape_of(a, true),
                &shape_of(b, true),
                &mut Scratch::default(),
            )
        };
        let ss = sim(&prev, &similar);
        let sd = sim(&prev, &different);
        assert!((ss - 1.0).abs() < 1e-12, "identical shape → 1, got {ss}");
        assert!(sd < ss, "rewired shape must be less similar: {sd}");
    }

    #[test]
    fn routing_awareness_neutral_at_unit_similarity() {
        let prev = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = frontier_of(&prev);
        let on = assembly_cost(
            &f,
            &prev,
            &prev,
            &OrderOptions {
                lookahead: 10,
                routing_aware: true,
            },
        );
        let off = assembly_cost(&f, &prev, &prev, &OrderOptions::default());
        assert_eq!(on, off);
    }

    #[test]
    fn qaoa_edges_pack_in_parallel() {
        // Disjoint ZZ blocks must interleave into few layers.
        let blocks: Vec<Circuit> = [(0, 1), (2, 3), (1, 2), (3, 0)]
            .iter()
            .map(|&(a, b)| cnot_chain(4, &[(a, b)]))
            .collect();
        let perm = order_groups(&blocks, &OrderOptions::default());
        let mut assembled = Circuit::new(4);
        for i in perm {
            assembled.append(&blocks[i]);
        }
        assert_eq!(assembled.depth_2q(), 2, "ring packs into 2 layers");
    }

    #[test]
    fn order_groups_is_a_permutation() {
        let circuits: Vec<Circuit> = vec![
            cnot_chain(4, &[(0, 1)]),
            cnot_chain(4, &[(2, 3)]),
            cnot_chain(4, &[(0, 1), (1, 2)]),
            Circuit::new(4),
        ];
        let perm = order_groups(&circuits, &OrderOptions::default());
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Widest group first.
        assert_eq!(perm[0], 2);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(order_groups(&[], &OrderOptions::default()).is_empty());
    }

    #[test]
    fn interruptible_ordering_matches_and_aborts() {
        let circuits: Vec<Circuit> = vec![
            cnot_chain(4, &[(0, 1)]),
            cnot_chain(4, &[(2, 3)]),
            cnot_chain(4, &[(0, 1), (1, 2)]),
            cnot_chain(4, &[(1, 2)]),
        ];
        let opts = OrderOptions::default();
        assert_eq!(
            order_groups_interruptible(&circuits, &opts, &mut || false),
            Some(order_groups(&circuits, &opts))
        );
        // An immediately-firing interrupt abandons the ordering.
        assert_eq!(
            order_groups_interruptible(&circuits, &opts, &mut || true),
            None
        );
        // Firing after one placement also abandons it (no partial result).
        let mut calls = 0usize;
        let aborted = order_groups_interruptible(&circuits, &opts, &mut || {
            calls += 1;
            calls > 1
        });
        assert_eq!(aborted, None);
    }

    #[test]
    fn cancels_respects_symmetry() {
        let a = Clifford2Q::new(Clifford2QKind::Czz, 0, 1);
        let b = Clifford2Q::new(Clifford2QKind::Czz, 1, 0);
        assert!(cancels(&a, &b), "C(Z,Z) is exchange-symmetric");
        let c = Clifford2Q::new(Clifford2QKind::Czx, 0, 1);
        let d = Clifford2Q::new(Clifford2QKind::Czx, 1, 0);
        assert!(!cancels(&c, &d), "CNOT orientation matters");
        assert!(cancels(&c, &c));
    }

    mod equivalence {
        use super::super::legacy;
        use super::*;
        use phoenix_pauli::{Pauli, CLIFFORD2Q_GENERATORS};
        use proptest::prelude::*;

        /// A group shaped like a simplified one: Clifford2Qs, a core of 1Q
        /// and 2Q gates, then (usually) the same Cliffords mirrored.
        fn arb_group(n: usize) -> impl Strategy<Value = Circuit> {
            (
                proptest::collection::vec((0usize..6, 0usize..n, 0usize..n), 0..4),
                proptest::collection::vec((0usize..6, 0usize..n, 0usize..n), 0..8),
                0usize..4,
            )
                .prop_map(move |(cliffords, core, mirror)| {
                    let cliffords: Vec<Clifford2Q> = cliffords
                        .into_iter()
                        .filter(|&(_, a, b)| a != b)
                        .map(|(k, a, b)| Clifford2Q::new(CLIFFORD2Q_GENERATORS[k], a, b))
                        .collect();
                    let mut c = Circuit::new(n);
                    for &cl in &cliffords {
                        c.push(Gate::Clifford2(cl));
                    }
                    for (k, a, b) in core {
                        c.push(match k {
                            0 => Gate::H(a),
                            1 => Gate::Rz(a, 0.3),
                            _ if a == b => continue,
                            2 => Gate::Cnot(a, b),
                            3 => Gate::PauliRot2 {
                                a,
                                b,
                                pa: Pauli::Z,
                                pb: Pauli::X,
                                theta: 0.7,
                            },
                            _ => Gate::Clifford2(Clifford2Q::new(CLIFFORD2Q_GENERATORS[k], a, b)),
                        });
                    }
                    if mirror > 0 {
                        for &cl in cliffords.iter().rev() {
                            c.push(Gate::Clifford2(cl));
                        }
                    }
                    c
                })
        }

        fn arb_groups(n: usize) -> impl Strategy<Value = Vec<Circuit>> {
            proptest::collection::vec(arb_group(n), 0..24)
        }

        proptest! {
            #![proptest_config(ProptestConfig::default())]

            /// Summary-based ordering returns the permutation of the
            /// per-candidate rescanning ordering, with and without the
            /// Eq. (7) factor.
            #[test]
            fn ordering_matches_legacy(
                groups in arb_groups(6),
                lookahead in 0usize..12,
                routing_aware in any::<bool>(),
            ) {
                let opts = OrderOptions { lookahead, routing_aware };
                prop_assert_eq!(order_groups(&groups, &opts), legacy::order_groups(&groups, &opts));
            }

            /// Same on a narrow register, where every group collides.
            #[test]
            fn ordering_matches_legacy_on_narrow_registers(
                groups in arb_groups(3),
                lookahead in 1usize..6,
                routing_aware in any::<bool>(),
            ) {
                let opts = OrderOptions { lookahead, routing_aware };
                prop_assert_eq!(order_groups(&groups, &opts), legacy::order_groups(&groups, &opts));
            }

            /// The cached-edge Eq. (7) similarity is bit-identical to the
            /// one rebuilt from the circuits.
            #[test]
            fn similarity_matches_legacy(prev in arb_group(7), next in arb_group(7)) {
                let cached = mean_similarity(
                    &shape_of(&prev, true),
                    &shape_of(&next, true),
                    &mut Scratch::default(),
                );
                let rebuilt = legacy::mean_similarity(&prev, &next);
                prop_assert_eq!(cached.to_bits(), rebuilt.to_bits());
            }

            /// Depth-profile identity: `max(depth, max_q f[q] + L_q) − depth`
            /// is exactly the depth `Frontier::push` adds.
            #[test]
            fn depth_profile_matches_push(prefix in arb_groups(5), next in arb_group(5)) {
                let mut f = Frontier::new(5);
                for g in &prefix {
                    f.push(g);
                }
                let predicted = f.layers_added(&shape_of(&next, false));
                let before = f.depth();
                f.push(&next);
                prop_assert_eq!(predicted, f.depth() - before);
            }
        }
    }
}
