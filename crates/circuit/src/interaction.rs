//! Qubit interaction graphs, head/tail subgraphs, distance matrices, and the
//! routing-similarity factor of Eq. (7).
//!
//! Two subcircuits whose qubit-interaction behaviour is similar need less
//! mapping-transition overhead between them (Fig. 4(b) of the paper). The
//! similarity is measured as the summed row-wise cosine similarity of the
//! *distance matrices* of the preceding subcircuit's **tail** interaction
//! graph and the succeeding subcircuit's **head** interaction graph.

use crate::Circuit;
use phoenix_pauli::QubitMask;
use std::collections::BTreeSet;

/// The set of unordered qubit pairs coupled by any 2Q gate.
pub fn interaction_edges(c: &Circuit) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    for g in c.gates() {
        if let (a, Some(b)) = g.qubits() {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    edges
}

/// Bit mask of qubits touched by 2Q gates.
pub fn support_2q(c: &Circuit) -> QubitMask {
    let mut m = QubitMask::zeros(c.num_qubits());
    for g in c.gates() {
        if let (a, Some(b)) = g.qubits() {
            m.set_bit(a);
            m.set_bit(b);
        }
    }
    m
}

/// The *head* interaction graph: scanning from the left, 2Q gates are
/// incorporated until every (2Q-active) qubit has been acted upon.
pub fn head_edges(c: &Circuit) -> BTreeSet<(usize, usize)> {
    scan_edges(c.gates().iter(), support_2q(c))
}

/// The *tail* interaction graph: as [`head_edges`] but scanning from the
/// right.
pub fn tail_edges(c: &Circuit) -> BTreeSet<(usize, usize)> {
    scan_edges(c.gates().iter().rev(), support_2q(c))
}

fn scan_edges<'a>(
    gates: impl Iterator<Item = &'a crate::Gate>,
    target: QubitMask,
) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    let mut covered = QubitMask::zeros(0);
    for g in gates {
        if covered == target {
            break;
        }
        if let (a, Some(b)) = g.qubits() {
            edges.insert((a.min(b), a.max(b)));
            covered.set_bit(a);
            covered.set_bit(b);
        }
    }
    edges
}

/// All-pairs shortest-path matrix of the interaction graph restricted to
/// `nodes` (matrix index = position in `nodes`). Unreachable pairs get
/// distance `nodes.len()`.
pub fn distance_matrix<'a>(
    nodes: &[usize],
    edges: impl IntoIterator<Item = &'a (usize, usize)>,
) -> Vec<Vec<f64>> {
    let mut d = DistanceMatrix::default();
    d.compute(nodes, edges);
    d.rows().map(<[f64]>::to_vec).collect()
}

/// A [`distance_matrix`] kept row-major in reusable buffers, so that
/// recomputing it (once per ordering candidate) allocates nothing once the
/// buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct DistanceMatrix {
    k: usize,
    /// Row-major `k × k` distances.
    d: Vec<f64>,
    /// Edges between nodes, as node positions.
    local: Vec<(usize, usize)>,
    /// Adjacency in compressed rows: node `i`'s neighbours are
    /// `adj[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    adj: Vec<usize>,
    /// BFS queue and hop counts.
    queue: Vec<usize>,
    hops: Vec<usize>,
}

impl DistanceMatrix {
    /// Recomputes the matrix for `nodes` and `edges`, as
    /// [`distance_matrix`] does.
    pub fn compute<'a>(
        &mut self,
        nodes: &[usize],
        edges: impl IntoIterator<Item = &'a (usize, usize)>,
    ) {
        let k = nodes.len();
        self.k = k;
        let pos = |q: usize| nodes.iter().position(|&n| n == q);
        self.local.clear();
        for &(a, b) in edges {
            if let (Some(i), Some(j)) = (pos(a), pos(b)) {
                self.local.push((i, j));
            }
        }
        self.start.clear();
        self.start.resize(k + 1, 0);
        for &(i, j) in &self.local {
            self.start[i + 1] += 1;
            self.start[j + 1] += 1;
        }
        for i in 0..k {
            self.start[i + 1] += self.start[i];
        }
        self.adj.clear();
        self.adj.resize(self.start[k], 0);
        // `hops` doubles as the per-row fill cursor here.
        self.hops.clear();
        self.hops.extend_from_slice(&self.start[..k]);
        for &(i, j) in &self.local {
            self.adj[self.hops[i]] = j;
            self.hops[i] += 1;
            self.adj[self.hops[j]] = i;
            self.hops[j] += 1;
        }
        self.d.clear();
        self.d.resize(k * k, k as f64);
        for s in 0..k {
            let row = &mut self.d[s * k..(s + 1) * k];
            row[s] = 0.0;
            self.hops.clear();
            self.hops.resize(k, usize::MAX);
            self.hops[s] = 0;
            self.queue.clear();
            self.queue.push(s);
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                for &v in &self.adj[self.start[u]..self.start[u + 1]] {
                    if self.hops[v] == usize::MAX {
                        self.hops[v] = self.hops[u] + 1;
                        row[v] = self.hops[v] as f64;
                        self.queue.push(v);
                    }
                }
            }
        }
    }

    /// The rows, in node order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.d.chunks_exact(self.k.max(1))
    }
}

/// The similarity factor `s` of Eq. (7): the sum over rows of the cosine
/// similarity between corresponding rows of two distance matrices.
///
/// Rows with zero norm (isolated vertices in 1×1 graphs) are skipped.
///
/// # Panics
///
/// Panics if the matrices have different dimensions.
pub fn similarity(d1: &[Vec<f64>], d2: &[Vec<f64>]) -> f64 {
    assert_eq!(d1.len(), d2.len(), "distance matrices must align");
    row_cosine_sum(d1.iter().map(Vec::as_slice), d2.iter().map(Vec::as_slice))
}

/// [`similarity`] of two [`DistanceMatrix`]es.
///
/// # Panics
///
/// Panics if the matrices have different dimensions.
pub fn matrix_similarity(d1: &DistanceMatrix, d2: &DistanceMatrix) -> f64 {
    assert_eq!(d1.k, d2.k, "distance matrices must align");
    row_cosine_sum(d1.rows(), d2.rows())
}

fn row_cosine_sum<'a>(
    rows1: impl Iterator<Item = &'a [f64]>,
    rows2: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let mut s = 0.0;
    for (r1, r2) in rows1.zip(rows2) {
        assert_eq!(r1.len(), r2.len(), "distance matrices must align");
        let dot: f64 = r1.iter().zip(r2).map(|(a, b)| a * b).sum();
        let n1: f64 = r1.iter().map(|a| a * a).sum::<f64>().sqrt();
        let n2: f64 = r2.iter().map(|a| a * a).sum::<f64>().sqrt();
        if n1 > 0.0 && n2 > 0.0 {
            s += dot / (n1 * n2);
        }
    }
    s
}

/// Convenience: the Eq. (7) similarity between the tail of `prev` and the
/// head of `next`, computed over the union of their 2Q supports.
pub fn routing_similarity(prev: &Circuit, next: &Circuit) -> f64 {
    let union = support_2q(prev) | support_2q(next);
    let nodes: Vec<usize> = union.to_indices();
    if nodes.is_empty() {
        return 1.0;
    }
    let d1 = distance_matrix(&nodes, &tail_edges(prev));
    let d2 = distance_matrix(&nodes, &head_edges(next));
    similarity(&d1, &d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    fn chain(n: usize, pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::Cnot(a, b));
        }
        c
    }

    #[test]
    fn interaction_edges_dedup() {
        let c = chain(3, &[(0, 1), (1, 0), (1, 2)]);
        let e = interaction_edges(&c);
        assert_eq!(e.len(), 2);
        assert!(e.contains(&(0, 1)));
        assert!(e.contains(&(1, 2)));
    }

    #[test]
    fn head_stops_once_covered() {
        // First two gates already cover {0,1,2}; the (0,2) edge is not in
        // the head graph.
        let c = chain(3, &[(0, 1), (1, 2), (0, 2)]);
        let h = head_edges(&c);
        assert_eq!(h.len(), 2);
        assert!(!h.contains(&(0, 2)));
        let t = tail_edges(&c);
        assert!(t.contains(&(0, 2)));
        assert!(t.contains(&(1, 2)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn distance_matrix_of_path() {
        let c = chain(3, &[(0, 1), (1, 2)]);
        let d = distance_matrix(&[0, 1, 2], &interaction_edges(&c));
        assert_eq!(d[0][2], 2.0);
        assert_eq!(d[0][1], 1.0);
        assert_eq!(d[1][1], 0.0);
    }

    #[test]
    fn disconnected_distance_is_large() {
        let c = chain(4, &[(0, 1), (2, 3)]);
        let d = distance_matrix(&[0, 1, 2, 3], &interaction_edges(&c));
        assert_eq!(d[0][2], 4.0);
    }

    #[test]
    fn identical_circuits_have_max_similarity() {
        let a = chain(3, &[(0, 1), (1, 2)]);
        let s_same = routing_similarity(&a, &a);
        let b = chain(3, &[(0, 2), (0, 1)]);
        let s_diff = routing_similarity(&a, &b);
        assert!(
            s_same >= s_diff,
            "identical interaction should be at least as similar: {s_same} vs {s_diff}"
        );
        // Self-similarity of an aligned pair is the row count.
        assert!((s_same - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_circuits_are_trivially_similar() {
        let a = Circuit::new(2);
        assert_eq!(routing_similarity(&a, &a), 1.0);
    }
}
