//! Head and tail interaction graphs, the inputs of the routing-similarity
//! factor of Eq. (7).
//!
//! Two subcircuits whose qubit-interaction behaviour is similar need less
//! mapping-transition overhead between them (Fig. 4(b) of the paper). The
//! similarity compares the preceding subcircuit's **tail** interaction
//! graph with the succeeding subcircuit's **head** interaction graph;
//! ordering (`phoenix-core`) scores it from hop tables it builds over
//! these edges.

use crate::Circuit;
use phoenix_pauli::QubitMask;
use std::collections::BTreeSet;

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
}
