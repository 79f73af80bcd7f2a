//! The coupling graph type and standard topology constructors.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// An undirected device coupling graph with precomputed all-pairs
/// shortest-path distances, stored as one row-major table.
///
/// # Examples
///
/// ```
/// use phoenix_topology::CouplingGraph;
///
/// let line = CouplingGraph::line(5);
/// assert_eq!(line.distance(0, 4), 4);
/// assert!(line.contains_edge(2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    n: usize,
    edges: BTreeSet<(usize, usize)>,
    adj: Vec<Vec<usize>>,
    /// `dist[a * n + b]` is the distance from `a` to `b`.
    dist: Vec<u32>,
}

/// Distance value for unreachable pairs.
const UNREACHABLE: u32 = u32::MAX / 2;

impl CouplingGraph {
    /// Builds a graph from an edge list.
    ///
    /// Edges are stored undirected and deduplicated; self-loops are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `≥ n` or is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut set = BTreeSet::new();
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} qubits");
            assert_ne!(a, b, "self-loop on qubit {a}");
            set.insert((a.min(b), a.max(b)));
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &set {
            adj[a].push(b);
            adj[b].push(a);
        }
        let dist = all_pairs_bfs(n, &adj);
        CouplingGraph {
            n,
            edges: set,
            adj,
            dist,
        }
    }

    /// Fully connected topology (logical-level compilation).
    pub fn all_to_all(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        CouplingGraph::from_edges(n, edges)
    }

    /// A linear chain `0 — 1 — ⋯ — n−1`.
    pub fn line(n: usize) -> Self {
        CouplingGraph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    /// A ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        CouplingGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// A `rows × cols` rectangular grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        CouplingGraph::from_edges(rows * cols, edges)
    }

    /// A generic heavy-hex lattice: `rows` horizontal chains of `row_len`
    /// qubits, with degree-2 connector qubits between neighbouring rows at
    /// every fourth column, offset by two columns on alternating row pairs
    /// (IBM's heavy-hexagon pattern).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `row_len == 0`.
    pub fn heavy_hex(rows: usize, row_len: usize) -> Self {
        assert!(
            rows > 0 && row_len > 0,
            "heavy-hex needs positive dimensions"
        );
        let row_cols: Vec<(usize, usize)> = (0..rows).map(|_| (0, row_len)).collect();
        heavy_hex_from_rows(&row_cols)
    }

    /// The 65-qubit heavy-hex coupling graph shaped like IBM's Manhattan
    /// processor: row lengths `[10, 11, 11, 11, 10]` with three connector
    /// qubits between each pair of neighbouring rows.
    pub fn manhattan65() -> Self {
        // (first column, last column + 1) per row; the top row misses the
        // last column and the bottom row the first, as on the device.
        let rows = [(0usize, 10usize), (0, 11), (0, 11), (0, 11), (1, 11)];
        let g = heavy_hex_from_rows(&rows);
        debug_assert_eq!(g.num_qubits(), 65);
        g
    }

    /// A 27-qubit heavy-hex graph shaped like IBM's Falcon processors:
    /// three 7-qubit rows, two connectors per seam, plus the two pendant
    /// qubits hanging off the top and bottom rows.
    pub fn falcon27() -> Self {
        let core = heavy_hex_from_rows(&[(0usize, 7usize), (0, 7), (0, 7)]);
        let n = core.num_qubits(); // 25
        let mut edges: Vec<(usize, usize)> = core.edges().iter().copied().collect();
        // Pendants: row 0 col 3 is id 3; row 2 col 3 is id 17.
        edges.push((3, n));
        edges.push((17, n + 1));
        let g = CouplingGraph::from_edges(n + 2, edges);
        debug_assert_eq!(g.num_qubits(), 27);
        g
    }

    /// A 127-qubit heavy-hex graph shaped like IBM's Eagle processors
    /// (seven rows of width ≤15 with four connectors per seam).
    pub fn eagle127() -> Self {
        let rows = [
            (0usize, 14usize),
            (0, 15),
            (0, 15),
            (0, 15),
            (0, 15),
            (0, 15),
            (1, 15),
        ];
        let g = heavy_hex_from_rows(&rows);
        debug_assert_eq!(g.num_qubits(), 127);
        g
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The undirected edge set (pairs with `a < b`).
    #[inline]
    pub fn edges(&self) -> &BTreeSet<(usize, usize)> {
        &self.edges
    }

    /// Neighbours of qubit `q`, or `None` if `q` is not a qubit of this
    /// graph.
    #[inline]
    pub fn neighbors(&self, q: usize) -> Option<&[usize]> {
        self.adj.get(q).map(Vec::as_slice)
    }

    /// Whether qubits `a` and `b` are directly coupled.
    pub fn contains_edge(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Shortest-path distance in edges; a large sentinel (`> num_qubits`)
    /// for disconnected pairs.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        self.distances_from(a)[b]
    }

    /// The distances from qubit `p` to every qubit: entry `q` is
    /// [`distance(p, q)`](CouplingGraph::distance).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn distances_from(&self, p: usize) -> &[u32] {
        assert!(p < self.n, "qubit {p} out of range for {} qubits", self.n);
        &self.dist[p * self.n..(p + 1) * self.n]
    }

    /// Whether every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        self.n <= 1 || self.distances_from(0).iter().all(|&d| d < UNREACHABLE)
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// A shortest path from `a` to `b` (inclusive of both endpoints).
    ///
    /// Returns `None` if the qubits are disconnected.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if self.distance(a, b) >= UNREACHABLE {
            return None;
        }
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let next = *self.adj[cur]
                .iter()
                .find(|&&v| self.distance(v, b) + 1 == self.distance(cur, b))
                .expect("distance table is consistent");
            path.push(next);
            cur = next;
        }
        Some(path)
    }
}

/// Builds a heavy-hex lattice from per-row `(first_col, end_col)` spans.
fn heavy_hex_from_rows(rows: &[(usize, usize)]) -> CouplingGraph {
    // Assign indices row by row, then connectors between rows.
    let mut index = Vec::new(); // (row, col) -> id via map
    use std::collections::BTreeMap;
    let mut id_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (r, &(c0, c1)) in rows.iter().enumerate() {
        for c in c0..c1 {
            id_of.insert((r, c), index.len());
            index.push((r, c));
        }
    }
    let mut edges = Vec::new();
    // Horizontal chains.
    for (r, &(c0, c1)) in rows.iter().enumerate() {
        for c in c0..c1.saturating_sub(1) {
            edges.push((id_of[&(r, c)], id_of[&(r, c + 1)]));
        }
    }
    // Connectors: between row r and r+1 at columns ≡ 2·(r mod 2) (mod 4),
    // where both rows own the column.
    let mut next_id = index.len();
    for r in 0..rows.len().saturating_sub(1) {
        let offset = 2 * (r % 2);
        let (a0, a1) = rows[r];
        let (b0, b1) = rows[r + 1];
        let lo = a0.max(b0);
        let hi = a1.min(b1);
        for c in lo..hi {
            if c % 4 == offset {
                let conn = next_id;
                next_id += 1;
                edges.push((id_of[&(r, c)], conn));
                edges.push((conn, id_of[&(r + 1, c)]));
            }
        }
    }
    CouplingGraph::from_edges(next_id, edges)
}

/// The row-major all-pairs distance table: one BFS per source row.
fn all_pairs_bfs(n: usize, adj: &[Vec<usize>]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; n * n];
    // `chunks_mut` rejects a chunk size of 0; an empty graph has no rows.
    for (s, row) in dist.chunks_mut(n.max(1)).enumerate() {
        row[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if row[v] == UNREACHABLE {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

impl fmt::Display for CouplingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coupling graph: {} qubits, {} edges",
            self.n,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_has_unit_distances() {
        let g = CouplingGraph::all_to_all(6);
        assert_eq!(g.edges().len(), 15);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(g.distance(a, b), u32::from(a != b));
            }
        }
    }

    #[test]
    fn line_distances_are_index_differences() {
        let g = CouplingGraph::line(8);
        assert_eq!(g.distance(0, 7), 7);
        assert_eq!(g.distance(3, 5), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_wraps() {
        let g = CouplingGraph::ring(8);
        assert_eq!(g.distance(0, 7), 1);
        assert_eq!(g.distance(0, 4), 4);
    }

    #[test]
    fn grid_shape() {
        let g = CouplingGraph::grid(3, 4);
        assert_eq!(g.num_qubits(), 12);
        assert_eq!(g.distance(0, 11), 5); // manhattan distance
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn manhattan65_is_heavy_hex_shaped() {
        let g = CouplingGraph::manhattan65();
        assert_eq!(g.num_qubits(), 65);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
        // 3 connectors per row pair × 4 pairs.
        let degree2_connectors = g.num_qubits() - 53;
        assert_eq!(degree2_connectors, 12);
        // Heavy-hex edge count: 52 horizontal + 24 connector edges.
        assert_eq!(g.edges().len(), 72);
    }

    #[test]
    fn falcon27_shape() {
        let g = CouplingGraph::falcon27();
        assert_eq!(g.num_qubits(), 27);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
        // The two added pendants plus the two connector-less row corners.
        let pendants = (0..27)
            .filter(|&q| g.neighbors(q).is_some_and(|nb| nb.len() == 1))
            .count();
        assert_eq!(pendants, 4);
    }

    #[test]
    fn eagle127_shape() {
        let g = CouplingGraph::eagle127();
        assert_eq!(g.num_qubits(), 127);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn generic_heavy_hex_connected_and_sparse() {
        let g = CouplingGraph::heavy_hex(5, 11);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
        assert!(g.num_qubits() > 55);
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let g = CouplingGraph::manhattan65();
        let p = g.shortest_path(0, 64).expect("connected");
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 64);
        assert_eq!(p.len() as u32, g.distance(0, 64) + 1);
        for w in p.windows(2) {
            assert!(g.contains_edge(w[0], w[1]));
        }
    }

    /// Breadth-first distances from `s`, read from the neighbour lists
    /// alone; `None` where `s` cannot reach.
    fn bfs(g: &CouplingGraph, s: usize) -> Vec<Option<u32>> {
        let mut dist = vec![None; g.num_qubits()];
        dist[s] = Some(0);
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u).unwrap() {
                if dist[v].is_none() {
                    dist[v] = dist[u].map(|d| d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Every family the device registry builds (an ion trap is
    /// all-to-all): each row of the flat table holds that qubit's
    /// distances.
    #[test]
    fn rows_hold_every_registry_familys_distances() {
        let families = [
            CouplingGraph::line(12),
            CouplingGraph::ring(12),
            CouplingGraph::grid(3, 4),
            CouplingGraph::heavy_hex(3, 5),
            CouplingGraph::falcon27(),
            CouplingGraph::manhattan65(),
            CouplingGraph::eagle127(),
            CouplingGraph::all_to_all(12),
        ];
        for g in &families {
            let n = g.num_qubits();
            for p in 0..n {
                let row = g.distances_from(p);
                assert_eq!(row.len(), n, "{g}");
                for (q, want) in bfs(g, p).into_iter().enumerate() {
                    assert_eq!(row[q], g.distance(p, q), "{g}: {p}-{q}");
                    assert_eq!(Some(row[q]), want, "{g}: {p}-{q}");
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CouplingGraph::from_edges(5, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert!(g.shortest_path(0, 3).is_none());
        assert_eq!(g.shortest_path(2, 3), Some(vec![2, 3]));
        assert!(g.distance(0, 3) > 5);
        for p in 0..5 {
            for (q, reach) in bfs(&g, p).into_iter().enumerate() {
                let want = reach.unwrap_or(UNREACHABLE);
                assert_eq!(g.distances_from(p)[q], want, "{p}-{q}");
                assert_eq!(g.shortest_path(p, q).is_some(), reach.is_some());
            }
        }
    }

    #[test]
    fn empty_and_one_qubit_graphs_build() {
        let empty = CouplingGraph::from_edges(0, []);
        assert_eq!(empty.num_qubits(), 0);
        assert!(empty.is_connected());
        let one = CouplingGraph::from_edges(1, []);
        assert_eq!(one.distances_from(0), [0]);
        assert!(one.is_connected());
        assert_eq!(one.shortest_path(0, 0), Some(vec![0]));
        assert_eq!(CouplingGraph::line(1), one);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_empty_graph_has_no_rows() {
        let _ = CouplingGraph::from_edges(0, []).distances_from(0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = CouplingGraph::from_edges(2, [(1, 1)]);
    }

    #[test]
    fn display_summarizes() {
        let g = CouplingGraph::line(3);
        assert_eq!(g.to_string(), "coupling graph: 3 qubits, 2 edges");
    }
}
