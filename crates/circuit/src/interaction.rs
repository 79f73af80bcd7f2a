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
use std::collections::{BTreeSet, VecDeque};

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
    let k = nodes.len();
    let pos = |q: usize| nodes.iter().position(|&n| n == q);
    let mut adj = vec![Vec::new(); k];
    for &(a, b) in edges {
        if let (Some(i), Some(j)) = (pos(a), pos(b)) {
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    let mut d = vec![vec![k as f64; k]; k];
    for (s, row) in d.iter_mut().enumerate() {
        row[s] = 0.0;
        let mut queue = VecDeque::from([s]);
        let mut hops = vec![usize::MAX; k];
        hops[s] = 0;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if hops[v] == usize::MAX {
                    hops[v] = hops[u] + 1;
                    row[v] = hops[v] as f64;
                    queue.push_back(v);
                }
            }
        }
    }
    d
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
    let mut s = 0.0;
    for (r1, r2) in d1.iter().zip(d2) {
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
