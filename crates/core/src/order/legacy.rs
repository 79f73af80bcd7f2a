//! Test-only reference: the per-candidate ordering that rescanned both
//! groups' gates for every window candidate. The summary-based ordering of
//! the parent module must return the same permutation.

use super::{cancels, OrderOptions};
use phoenix_circuit::interaction::{head_edges, support_2q, tail_edges};
use phoenix_circuit::{Circuit, Gate};
use phoenix_pauli::{Clifford2Q, QubitMask};
use std::collections::{BTreeSet, VecDeque};

/// The per-qubit 2Q-layer frontier, with the trial-push depth probe.
struct Frontier {
    layers: Vec<usize>,
    depth: usize,
}

impl Frontier {
    fn push(&mut self, c: &Circuit) {
        for g in c.gates() {
            if let (a, Some(b)) = g.qubits() {
                let layer = self.layers[a].max(self.layers[b]) + 1;
                self.layers[a] = layer;
                self.layers[b] = layer;
                self.depth = self.depth.max(layer);
            }
        }
    }

    fn depth_added(&self, c: &Circuit) -> usize {
        let mut touched = QubitMask::zeros(self.layers.len());
        let mut trial = vec![0usize; self.layers.len()];
        let mut depth = self.depth;
        for g in c.gates() {
            if let (a, Some(b)) = g.qubits() {
                let la = if touched.bit(a) {
                    trial[a]
                } else {
                    self.layers[a]
                };
                let lb = if touched.bit(b) {
                    trial[b]
                } else {
                    self.layers[b]
                };
                let layer = la.max(lb) + 1;
                trial[a] = layer;
                trial[b] = layer;
                touched.set_bit(a);
                touched.set_bit(b);
                depth = depth.max(layer);
            }
        }
        depth - self.depth
    }
}

fn assembly_cost(frontier: &Frontier, prev: &Circuit, next: &Circuit, opts: &OrderOptions) -> f64 {
    let mut cost = frontier.depth_added(next) as f64;
    let (m, prev_layer_cleared, next_layer_cleared) = clifford_cancellations(prev, next);
    cost -= 2.0 * m as f64;
    if prev_layer_cleared {
        cost -= 1.0;
    }
    if next_layer_cleared {
        cost -= 1.0;
    }
    if opts.routing_aware {
        let s = mean_similarity(prev, next).clamp(0.05, 1.0);
        cost = if cost >= 0.0 { cost / s } else { cost * s };
    }
    cost
}

pub(super) fn mean_similarity(prev: &Circuit, next: &Circuit) -> f64 {
    let mut union = support_2q(prev);
    union.or_with(&support_2q(next));
    let nodes: Vec<usize> = union.to_indices();
    if nodes.is_empty() {
        return 1.0;
    }
    let d1 = distance_matrix(&nodes, &tail_edges(prev));
    let d2 = distance_matrix(&nodes, &head_edges(next));
    similarity(&d1, &d2) / nodes.len() as f64
}

fn clifford_cancellations(prev: &Circuit, next: &Circuit) -> (usize, bool, bool) {
    let mut trailing = frontier_cliffords(prev.gates().iter().rev());
    let leading = frontier_cliffords(next.gates().iter());
    let mut matched = 0usize;
    let mut matched_gates: Vec<Clifford2Q> = Vec::new();
    for l in &leading {
        if let Some(pos) = trailing.iter().position(|t| cancels(t, l)) {
            matched_gates.push(trailing.remove(pos));
            matched_gates.push(*l);
            matched += 1;
        }
    }
    if matched == 0 {
        return (0, false, false);
    }
    let prev_cleared = layer_cleared(prev.gates().iter().rev(), &matched_gates);
    let next_cleared = layer_cleared(next.gates().iter(), &matched_gates);
    (matched, prev_cleared, next_cleared)
}

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

fn layer_cleared<'a>(gates: impl Iterator<Item = &'a Gate>, cancelled: &[Clifford2Q]) -> bool {
    let mut blocked = QubitMask::default();
    let mut all_cancelled = true;
    let mut saw_2q = false;
    for g in gates {
        let (a, b) = g.qubits();
        let Some(b) = b else { continue };
        if blocked.bit(a) || blocked.bit(b) {
            break;
        }
        blocked.set_bit(a);
        blocked.set_bit(b);
        saw_2q = true;
        let in_layer_cancelled =
            matches!(g, Gate::Clifford2(c) if cancelled.iter().any(|m| m == c));
        all_cancelled &= in_layer_cancelled;
    }
    saw_2q && all_cancelled
}

pub(super) fn order_groups(circuits: &[Circuit], opts: &OrderOptions) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..circuits.len()).collect();
    remaining.sort_by_key(|&i| std::cmp::Reverse(circuits[i].support_mask().count_ones()));
    if remaining.is_empty() {
        return remaining;
    }
    let n = circuits.iter().map(Circuit::num_qubits).max().unwrap_or(0);
    let mut frontier = Frontier {
        layers: vec![0; n],
        depth: 0,
    };
    let mut result = vec![remaining.remove(0)];
    frontier.push(&circuits[result[0]]);
    while !remaining.is_empty() {
        let last = *result.last().expect("result is nonempty");
        let window = remaining.len().min(opts.lookahead.max(1));
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (w, &cand) in remaining.iter().take(window).enumerate() {
            let cost = assembly_cost(&frontier, &circuits[last], &circuits[cand], opts);
            if cost < best_cost {
                best_cost = cost;
                best = w;
            }
        }
        let chosen = remaining.remove(best);
        frontier.push(&circuits[chosen]);
        result.push(chosen);
    }
    result
}

fn distance_matrix(nodes: &[usize], edges: &BTreeSet<(usize, usize)>) -> Vec<Vec<f64>> {
    let k = nodes.len();
    let pos = |q: usize| nodes.iter().position(|&n| n == q);
    let mut adj = vec![Vec::new(); k];
    for &(a, b) in edges {
        if let (Some(i), Some(j)) = (pos(a), pos(b)) {
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    let far = k as f64;
    let mut d = vec![vec![far; k]; k];
    for (s, row) in d.iter_mut().enumerate() {
        row[s] = 0.0;
        let mut queue = VecDeque::from([s]);
        let mut dist = vec![usize::MAX; k];
        dist[s] = 0;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    row[v] = dist[v] as f64;
                    queue.push_back(v);
                }
            }
        }
    }
    d
}

fn similarity(d1: &[Vec<f64>], d2: &[Vec<f64>]) -> f64 {
    let mut s = 0.0;
    for (r1, r2) in d1.iter().zip(d2) {
        let dot: f64 = r1.iter().zip(r2).map(|(a, b)| a * b).sum();
        let n1: f64 = r1.iter().map(|a| a * a).sum::<f64>().sqrt();
        let n2: f64 = r2.iter().map(|a| a * a).sum::<f64>().sqrt();
        if n1 > 0.0 && n2 > 0.0 {
            s += dot / (n1 * n2);
        }
    }
    s
}
