//! The SABRE-style swap router.
//!
//! A routing costs time in proportion to the gates it emits and the SWAP
//! candidates it scores. The lowered circuit is read once into [`Tables`],
//! which a layout search shares across all its routings; the drain visits
//! only the queue positions that can run a gate; the lookahead set is a
//! slice of the 2Q gates; a candidate SWAP is scored from the distances
//! of the pairs that touch the two qubits it moves; and a SWAP step after
//! a drain that ran nothing keeps the previous step's front, lookahead set
//! and distance sums, updating the sums for the two moved qubits only.
//! Every output, float ties included, equals a full rescan's:
//! `tests/sabre_equivalence.rs` compares the two (DESIGN.md §2.5.1).

use crate::Layout;
use phoenix_circuit::{Circuit, Gate};
use phoenix_topology::CouplingGraph;
use std::fmt;

/// Tuning knobs for the router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterOptions {
    /// Size of the lookahead (extended) gate set.
    pub extended_set_size: usize,
    /// Relative weight of the extended set in the swap score.
    pub extended_weight: f64,
    /// Per-swap decay added to recently moved qubits (discourages
    /// ping-ponging); reset every [`RouterOptions::decay_reset`] swaps.
    pub decay: f64,
    /// Number of swaps between decay resets.
    pub decay_reset: usize,
    /// Execute distance-2 CNOTs through an ancilla-free *bridge* (4 CNOTs,
    /// no layout change — Itoko et al.) when the pair does not recur in the
    /// lookahead window; otherwise fall back to SWAPs.
    pub use_bridge: bool,
    /// Hard cap on inserted SWAPs before the router gives up with
    /// [`RouteError::SwapBudgetExceeded`] instead of looping on a
    /// pathological instance. `0` selects an automatic budget generous
    /// enough for any legitimately routable program (see
    /// [`RouterOptions::swap_budget`]).
    pub max_swaps: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            extended_set_size: 20,
            extended_weight: 0.5,
            decay: 0.001,
            decay_reset: 5,
            use_bridge: false,
            max_swaps: 0,
        }
    }
}

impl RouterOptions {
    /// The effective SWAP budget for a circuit with `num_2q` two-qubit
    /// gates on an `n_phys`-qubit device: `max_swaps` when nonzero,
    /// otherwise an automatic bound. Every 2Q gate needs at most
    /// `diameter − 1 < n_phys` swaps, so the automatic budget is only hit
    /// when routing cannot make progress (e.g. a disconnected region).
    pub fn swap_budget(&self, num_2q: usize, n_phys: usize) -> usize {
        if self.max_swaps != 0 {
            return self.max_swaps;
        }
        64usize.saturating_add(num_2q.saturating_mul(n_phys.max(1)))
    }
}

/// Why routing was rejected or abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit uses more qubits than the device offers.
    DeviceTooSmall {
        /// Logical qubits required.
        logical: usize,
        /// Physical qubits available.
        physical: usize,
    },
    /// The initial layout maps a different number of logical qubits than
    /// the circuit declares.
    LayoutMismatch {
        /// Logical qubits of the layout.
        layout: usize,
        /// Logical qubits of the circuit.
        circuit: usize,
    },
    /// The initial layout spans a different number of physical qubits than
    /// the device has.
    LayoutWidthMismatch {
        /// Physical qubits of the layout.
        layout: usize,
        /// Physical qubits of the device.
        device: usize,
    },
    /// A blocked 2Q gate has no candidate SWAP — one of its qubits sits on
    /// an isolated physical qubit.
    NoSwapCandidate {
        /// The blocked logical pair.
        pair: (usize, usize),
    },
    /// The SWAP budget ran out before all gates executed — the instance is
    /// pathological (typically a disconnected device region) or the
    /// configured [`RouterOptions::max_swaps`] was too tight.
    SwapBudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DeviceTooSmall { logical, physical } => write!(
                f,
                "device too small: {logical} logical qubits vs {physical} physical"
            ),
            RouteError::LayoutMismatch { layout, circuit } => write!(
                f,
                "layout maps {layout} logical qubits but the circuit uses {circuit}"
            ),
            RouteError::LayoutWidthMismatch { layout, device } => write!(
                f,
                "layout spans {layout} physical qubits but the device has {device}"
            ),
            RouteError::NoSwapCandidate { pair: (a, b) } => write!(
                f,
                "no swap candidate for blocked gate on logical pair ({a}, {b}); \
                 is the device region disconnected?"
            ),
            RouteError::SwapBudgetExceeded { budget } => {
                write!(
                    f,
                    "swap budget of {budget} exhausted before routing finished"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The result of routing: a physical circuit plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// Physical-indexed circuit containing the original gates (relabelled)
    /// and inserted [`Gate::Swap`]s.
    pub circuit: Circuit,
    /// Number of inserted SWAPs.
    pub num_swaps: usize,
    /// Layout before the first gate — the placement the routed circuit's
    /// semantics are defined against (logical qubit `l` enters at physical
    /// qubit `initial_layout.phys(l)`). Needed for permutation-aware
    /// equivalence checking of routed circuits.
    pub initial_layout: Layout,
    /// Layout after the last gate (logical qubit `l` ends at physical
    /// qubit `final_layout.phys(l)`).
    pub final_layout: Layout,
}

/// Routes a logical circuit onto a coupling graph starting from
/// `initial_layout`, inserting SWAPs so every 2Q gate acts on coupled
/// physical qubits.
///
/// The input is lowered to `{1Q, CNOT}` first. The algorithm is the SABRE
/// heuristic: execute the front layer greedily; when stuck, apply the swap
/// (among edges touching front-layer qubits) minimizing the summed
/// front-layer distance plus a weighted lookahead term, with a decay factor
/// discouraging repeated moves of the same qubit.
///
/// # Panics
///
/// Panics on any [`RouteError`] — use [`try_route`] for graceful rejection.
pub fn route(
    logical: &Circuit,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
) -> RoutedCircuit {
    try_route(logical, device, initial_layout, opts)
        .unwrap_or_else(|e| panic!("routing failed: {e}"))
}

/// Fallible [`route`]: rejects undersized devices, layouts whose logical
/// or physical width does not match the circuit or the device, and
/// instances whose SWAP budget runs out (disconnected regions included)
/// with a typed [`RouteError`] instead of panicking or looping.
pub fn try_route(
    logical: &Circuit,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
) -> Result<RoutedCircuit, RouteError> {
    let lowered = logical.lower_to_cnot();
    let tables = Tables::new(&lowered, false);
    route_tables(&tables, Some(lowered.gates()), device, initial_layout, opts)
}

/// Marks an absent qubit, gate or logical occupant.
const NONE: usize = usize::MAX;

/// What routing reads of one lowered circuit, in one direction. A layout
/// search builds the tables of both directions once and shares them across
/// every routing it makes.
pub(crate) struct Tables {
    /// Logical width.
    n_log: usize,
    /// Each gate's qubits; the second is [`NONE`] for a 1Q gate.
    pairs: Vec<(usize, usize)>,
    /// Qubit `q`'s gates in program order, from `queue[queue_start[q]]` up
    /// to a [`NONE`] sentinel.
    queue: Vec<usize>,
    queue_start: Vec<usize>,
    /// The 2Q gates' qubit pairs, in program order.
    two_q: Vec<(usize, usize)>,
    /// `n2q_before[g]`: how many 2Q gates precede gate `g`.
    n2q_before: Vec<usize>,
}

impl Tables {
    /// The tables of a `{1Q, CNOT}` circuit, read back to front when
    /// `reversed`.
    pub(crate) fn new(lowered: &Circuit, reversed: bool) -> Tables {
        let n_log = lowered.num_qubits();
        let mut pairs: Vec<(usize, usize)> = lowered
            .gates()
            .iter()
            .map(|g| {
                let (a, b) = g.qubits();
                (a, b.unwrap_or(NONE))
            })
            .collect();
        if reversed {
            pairs.reverse();
        }
        let mut queue_start = vec![0usize; n_log + 1];
        for &(a, b) in &pairs {
            queue_start[a + 1] += 1;
            if b != NONE {
                queue_start[b + 1] += 1;
            }
        }
        for q in 0..n_log {
            // One extra slot per queue for its sentinel.
            queue_start[q + 1] += queue_start[q] + 1;
        }
        let mut queue = vec![NONE; queue_start[n_log]];
        let mut fill = queue_start.clone();
        let mut two_q = Vec::new();
        let mut n2q_before = Vec::with_capacity(pairs.len());
        for (g, &(a, b)) in pairs.iter().enumerate() {
            n2q_before.push(two_q.len());
            queue[fill[a]] = g;
            fill[a] += 1;
            if b != NONE {
                queue[fill[b]] = g;
                fill[b] += 1;
                two_q.push((a, b));
            }
        }
        Tables {
            n_log,
            pairs,
            queue,
            queue_start,
            two_q,
            n2q_before,
        }
    }

    /// Number of 2Q gates.
    pub(crate) fn num_2q(&self) -> usize {
        self.two_q.len()
    }
}

/// A set of logical qubits taken in increasing order. While it is being
/// taken it only grows ahead of the last qubit taken.
struct QubitSet {
    words: Vec<u64>,
    /// Words below this one are empty.
    cursor: usize,
}

impl QubitSet {
    fn new(n: usize) -> QubitSet {
        QubitSet {
            words: vec![0; n.div_ceil(64)],
            cursor: 0,
        }
    }

    fn insert(&mut self, q: usize) {
        self.words[q / 64] |= 1 << (q % 64);
        self.cursor = self.cursor.min(q / 64);
    }

    fn is_empty(&self) -> bool {
        self.words[self.cursor..].iter().all(|&w| w == 0)
    }

    /// Removes and returns the smallest element.
    fn pop_first(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.cursor) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        None
    }
}

/// The mutable state of one routing.
struct Router<'a> {
    t: &'a Tables,
    device: &'a CouplingGraph,
    /// Qubit `q`'s next gate is `t.queue[head[q]]` ([`NONE`] when done).
    head: Vec<usize>,
    executed: Vec<bool>,
    /// The lowest gate not yet executed, once advanced past executed ones.
    min_pending: usize,
    l2p: Vec<usize>,
    /// Logical occupant of each physical qubit, or [`NONE`].
    p2l: Vec<usize>,
    /// The lowered gates and the routed circuit they are emitted into.
    emit: Option<(&'a [Gate], Vec<Gate>)>,
    /// Positions the current drain pass still visits, and those the next
    /// pass will.
    visit: QubitSet,
    next: QubitSet,
    /// Current drain pass; `popped[q] == pass` once queue `q` was popped in
    /// it.
    pass: usize,
    popped: Vec<usize>,
}

impl<'a> Router<'a> {
    #[inline]
    fn front(&self, q: usize) -> usize {
        self.t.queue[self.head[q]]
    }

    /// The other qubit of 2Q gate `g` at position `q`, or [`NONE`].
    #[inline]
    fn partner(&self, g: usize, q: usize) -> usize {
        let (a, b) = self.t.pairs[g];
        if a == q {
            b
        } else {
            a
        }
    }

    #[inline]
    fn distance(&self, a: usize, b: usize) -> u64 {
        u64::from(self.device.distance(self.l2p[a], self.l2p[b]))
    }

    /// Executes every gate the layout lets run, and returns whether any
    /// gate ran.
    ///
    /// The emitted order is part of the output: passes run until one
    /// executes nothing; a pass snapshots every queue front in qubit order,
    /// then executes each snapshot entry that is still ready and coupled.
    /// A 2Q gate that becomes ready during a pass therefore runs at its
    /// later snapshot position in the same pass, while a newly exposed
    /// front waits for the next pass.
    ///
    /// A pass visits only the positions that can succeed. The first pass
    /// visits what the caller put in `visit`. Every later pass visits the
    /// positions whose queue was popped in the previous pass, and the
    /// partner of each popped queue's new 2Q front. A partner whose
    /// position is still ahead and whose snapshot entry is that gate joins
    /// the current pass. Any other position would fail again: its front
    /// and its partner's front are unchanged, and so is the layout during
    /// a drain.
    fn drain(&mut self) -> bool {
        let mut any = false;
        while !self.visit.is_empty() {
            self.pass += 1;
            while let Some(q) = self.visit.pop_first() {
                if self.popped[q] == self.pass {
                    // The queue's pass-start front already ran.
                    continue;
                }
                let g = self.front(q);
                if g == NONE {
                    continue;
                }
                let (a, b) = self.t.pairs[g];
                let runs =
                    b == NONE || (self.front(self.partner(g, q)) == g && self.distance(a, b) == 1);
                if runs {
                    self.execute(g, q);
                    any = true;
                }
            }
            std::mem::swap(&mut self.visit, &mut self.next);
        }
        any
    }

    /// Emits gate `g`, run at position `q`, and pops its queues.
    fn execute(&mut self, g: usize, q: usize) {
        if let Some((gates, out)) = &mut self.emit {
            let l2p = &self.l2p;
            out.push(gates[g].map_qubits(&mut |x| l2p[x]));
        }
        self.executed[g] = true;
        let (a, b) = self.t.pairs[g];
        self.pop(a, q);
        if b != NONE {
            self.pop(b, q);
        }
    }

    /// Pops queue `x` during the visit of position `q`, and schedules the
    /// positions its new front may let run.
    fn pop(&mut self, x: usize, q: usize) {
        self.head[x] += 1;
        self.popped[x] = self.pass;
        self.next.insert(x);
        let g = self.front(x);
        if g == NONE || self.t.pairs[g].1 == NONE {
            return;
        }
        let s = self.partner(g, x);
        self.next.insert(s);
        if s > q && self.popped[s] != self.pass && self.front(s) == g {
            self.visit.insert(s);
        }
    }

    /// Puts position `x` and the partner of its 2Q front in the next
    /// drain's first pass. After the last pass of a drain every position
    /// fails; a SWAP that moves `x`, or a bridge that pops its queue, can
    /// change only the outcome of these positions.
    fn schedule(&mut self, x: usize) {
        if x == NONE {
            return;
        }
        self.visit.insert(x);
        let g = self.front(x);
        if g != NONE && self.t.pairs[g].1 != NONE {
            self.visit.insert(self.partner(g, x));
        }
    }

    /// Ready 2Q gates as `(gate, a, b)`, in the order of their first qubit.
    /// After a drain every one of them is blocked.
    fn front_layer(&self, front: &mut Vec<(usize, usize, usize)>) {
        front.clear();
        for q in 0..self.t.n_log {
            let g = self.front(q);
            if g == NONE {
                continue;
            }
            let (a, b) = self.t.pairs[g];
            if b != NONE && a == q && self.front(b) == g {
                front.push((g, a, b));
            }
        }
    }

    /// The lookahead set: the first `k` 2Q gates at or after the lowest
    /// queue front, in program order. It keeps 2Q gates past that front
    /// that already ran, as the SWAP choices always have.
    fn extended(&mut self, k: usize) -> &'a [(usize, usize)] {
        // The lowest front is the lowest gate not yet executed: every
        // earlier gate on its qubits has a lower index.
        while self.executed[self.min_pending] {
            self.min_pending += 1;
        }
        let t: &'a Tables = self.t;
        let lo = t.n2q_before[self.min_pending];
        let hi = lo.saturating_add(k).min(t.two_q.len());
        &t.two_q[lo..hi]
    }

    /// Exchanges the occupants of physical qubits `p1` and `p2`.
    fn swap(&mut self, p1: usize, p2: usize) {
        let (l1, l2) = (self.p2l[p1], self.p2l[p2]);
        self.p2l.swap(p1, p2);
        if l1 != NONE {
            self.l2p[l1] = p2;
        }
        if l2 != NONE {
            self.l2p[l2] = p1;
        }
        self.schedule(l1);
        self.schedule(l2);
    }

    /// Retires the ready 2Q gate `g` on `(a, b)` without emitting it.
    fn retire(&mut self, g: usize, a: usize, b: usize) {
        self.executed[g] = true;
        self.head[a] += 1;
        self.head[b] += 1;
        self.schedule(a);
        self.schedule(b);
    }
}

/// The distance sums of the front set (`[0]`) and the extended set
/// (`[1]`), with each pair listed under the logical qubits it touches, so a
/// candidate SWAP is scored, and a SWAP that ran is caught up with, from
/// the pairs of the two qubits it moves.
struct Sums {
    total: [u64; 2],
    /// Per logical qubit: the summed distance of the pairs touching it.
    touching: Vec<[u64; 2]>,
    /// Qubit `x`'s pairs are `links[start[x]..start[x + 1]]`, each as
    /// `(other qubit, set)`; the other qubit's position is read from the
    /// layout, so a SWAP leaves the links valid.
    start: Vec<usize>,
    links: Vec<(usize, usize)>,
}

impl Sums {
    fn new(n_log: usize) -> Sums {
        Sums {
            total: [0; 2],
            touching: vec![[0; 2]; n_log],
            start: vec![0; n_log + 1],
            links: Vec::new(),
        }
    }

    fn rebuild(
        &mut self,
        r: &Router,
        front: &[(usize, usize, usize)],
        extended: &[(usize, usize)],
    ) {
        let front = front.iter().map(|&(_, a, b)| (a, b, 0));
        let pairs = front.chain(extended.iter().map(|&(a, b)| (a, b, 1)));
        self.total = [0; 2];
        self.touching.fill([0; 2]);
        // Count each qubit's pairs, take running totals so `start[x]` ends
        // qubit `x`'s range, then fill every range back to front.
        self.start.fill(0);
        for (a, b, _) in pairs.clone() {
            self.start[a] += 1;
            self.start[b] += 1;
        }
        for x in 1..self.start.len() {
            self.start[x] += self.start[x - 1];
        }
        self.links.clear();
        self.links.resize(self.start[self.start.len() - 1], (0, 0));
        for (a, b, set) in pairs {
            let d = r.distance(a, b);
            self.total[set] += d;
            for (x, y) in [(a, b), (b, a)] {
                self.touching[x][set] += d;
                self.start[x] -= 1;
                self.links[self.start[x]] = (y, set);
            }
        }
    }

    /// The sums once logical `l` moves from `p` to its neighbour `nb`, and
    /// `nb`'s occupant `l2` (or [`NONE`]) moves to `p`. Only the pairs
    /// touching exactly one of them change; a pair joining both keeps its
    /// distance of 1.
    fn after_swap(&self, r: &Router, l: usize, p: usize, l2: usize, nb: usize) -> [u64; 2] {
        let mut moved = [0u64; 2];
        let mut joined = [0u64; 2];
        let mut old = self.touching[l];
        let from_nb = r.device.distances_from(nb);
        for &(y, set) in &self.links[self.start[l]..self.start[l + 1]] {
            if y == l2 {
                joined[set] += 1;
            } else if y != l {
                moved[set] += u64::from(from_nb[r.l2p[y]]);
            }
        }
        if l2 != NONE {
            let also = self.touching[l2];
            old = [old[0] + also[0], old[1] + also[1]];
            let from_p = r.device.distances_from(p);
            for &(y, set) in &self.links[self.start[l2]..self.start[l2 + 1]] {
                if y != l && y != l2 {
                    moved[set] += u64::from(from_p[r.l2p[y]]);
                }
            }
        }
        // `old` counts each joining pair from both of its qubits.
        [0, 1].map(|set| self.total[set] + moved[set] + 2 * joined[set] - old[set])
    }

    /// Catches up with the SWAP of physical `p1` and `p2` that just ran,
    /// with the pairs unchanged: the qubit now at `p2` came from `p1`, the
    /// one now at `p1` from `p2`.
    fn swapped(&mut self, r: &Router, p1: usize, p2: usize) {
        let (l1, l2) = (r.p2l[p2], r.p2l[p1]);
        self.moved(r, l1, p1, p2, l2);
        self.moved(r, l2, p2, p1, l1);
    }

    /// Moves the pairs of logical `l` (or none for [`NONE`]) from physical
    /// `from` to `to`, except those joining it to `other`, the qubit it
    /// swapped with, which keep their distance of 1, and those joining it
    /// to itself, which keep 0.
    fn moved(&mut self, r: &Router, l: usize, from: usize, to: usize, other: usize) {
        if l == NONE {
            return;
        }
        let (old_row, new_row) = (r.device.distances_from(from), r.device.distances_from(to));
        for &(y, set) in &self.links[self.start[l]..self.start[l + 1]] {
            if y == other || y == l {
                continue;
            }
            let py = r.l2p[y];
            let (old, new) = (u64::from(old_row[py]), u64::from(new_row[py]));
            // Each sum includes `old`, so none goes below zero.
            self.total[set] = self.total[set] + new - old;
            self.touching[l][set] = self.touching[l][set] + new - old;
            self.touching[y][set] = self.touching[y][set] + new - old;
        }
    }
}

/// Routes the circuit `t` describes from `initial_layout`. The routed
/// circuit is emitted from `gates`, the lowered gates `t` was built from
/// in forward order; with `None` it stays empty, for a backward refinement
/// routing that only needs its final layout.
pub(crate) fn route_tables(
    t: &Tables,
    gates: Option<&[Gate]>,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
) -> Result<RoutedCircuit, RouteError> {
    let n_log = t.n_log;
    let n_phys = device.num_qubits();
    if n_log > n_phys {
        return Err(RouteError::DeviceTooSmall {
            logical: n_log,
            physical: n_phys,
        });
    }
    if initial_layout.num_logical() != n_log {
        return Err(RouteError::LayoutMismatch {
            layout: initial_layout.num_logical(),
            circuit: n_log,
        });
    }
    if initial_layout.num_physical() != n_phys {
        return Err(RouteError::LayoutWidthMismatch {
            layout: initial_layout.num_physical(),
            device: n_phys,
        });
    }
    let budget = opts.swap_budget(t.num_2q(), n_phys);
    let l2p: Vec<usize> = (0..n_log)
        .map(|l| {
            initial_layout
                .phys(l)
                .expect("layout arity validated above")
        })
        .collect();
    let p2l: Vec<usize> = (0..n_phys)
        .map(|p| initial_layout.logical(p).unwrap_or(NONE))
        .collect();
    let mut r = Router {
        t,
        device,
        head: t.queue_start[..n_log].to_vec(),
        executed: vec![false; t.pairs.len()],
        min_pending: 0,
        l2p,
        p2l,
        emit: gates.map(|g| (g, Vec::with_capacity(g.len()))),
        visit: QubitSet::new(n_log),
        next: QubitSet::new(n_log),
        pass: 0,
        popped: vec![0; n_log],
    };
    let mut num_swaps = 0usize;
    let mut decay = vec![0.0f64; n_phys];
    let mut swaps_since_reset = 0usize;
    let mut last_swap: Option<(usize, usize)> = None;
    let mut front = Vec::new();
    let mut extended: &[(usize, usize)] = &[];
    let mut sums = Sums::new(n_log);
    // `scored[p] == num_swaps + 1` once every candidate at `p` was scored
    // for the coming SWAP.
    let mut scored = vec![0usize; n_phys];

    (0..n_log).for_each(|q| r.visit.insert(q));
    loop {
        // Phase 1: drain everything executable.
        if r.drain() {
            last_swap = None;
        }

        // `last_swap` survives exactly a SWAP step followed by a drain that
        // ran nothing. No queue head has moved since that step built the
        // front layer (ready-but-blocked 2Q gates), the lookahead slice and
        // the sums, so they are kept and the sums catch up with the SWAP.
        // A drain that ran a gate, a bridge and the first step clear it.
        if let Some((p1, p2)) = last_swap {
            sums.swapped(&r, p1, p2);
        } else {
            r.front_layer(&mut front);
            if front.is_empty() {
                break; // all gates executed
            }
            extended = r.extended(opts.extended_set_size);
            sums.rebuild(&r, &front, extended);
        }

        // Bridge option: a distance-2 CNOT whose pair does not recur soon
        // is cheaper as 4 CNOTs through the middle qubit than as SWAPs.
        if opts.use_bridge {
            let bridge = front.iter().find(|&&(_, a, b)| {
                r.distance(a, b) == 2
                    && extended
                        .iter()
                        .filter(|&&e| e == (a, b) || e == (b, a))
                        .count()
                        <= 1
            });
            if let Some(&(g, a, b)) = bridge {
                let (pa, pb) = (r.l2p[a], r.l2p[b]);
                let path = device
                    .shortest_path(pa, pb)
                    .expect("distance-2 pair is connected");
                let m = path[1];
                if let Some((_, out)) = &mut r.emit {
                    // CX(pa,pb) = CX(pa,m)·CX(m,pb)·CX(pa,m)·CX(m,pb) in circuit order.
                    for _ in 0..2 {
                        out.push(Gate::Cnot(pa, m));
                        out.push(Gate::Cnot(m, pb));
                    }
                }
                phoenix_obs::metrics::global()
                    .incr(phoenix_obs::metrics::MetricId::SabreBridgesTotal);
                r.retire(g, a, b);
                last_swap = None;
                continue;
            }
        }

        // Candidate swaps: device edges touching any front-layer qubit.
        // The swap that would undo the previous one is excluded to rule out
        // ping-pong livelock (it can never be the sole candidate: the edge
        // that was just swapped still offers its other-endpoint moves). An
        // edge between two front qubits was already scored from the first:
        // the same swap has the same score, which cannot win the strict `<`.
        //
        // Distances are integers, so the sums are exact and each score is
        // the same `f64` that summing every pair's distance would give.
        let mut best: Option<((usize, usize), f64)> = None;
        for &(_, a, b) in &front {
            for l in [a, b] {
                let p = r.l2p[l];
                for &nb in device.neighbors(p).unwrap_or(&[]) {
                    let edge = (p.min(nb), p.max(nb));
                    if Some(edge) == last_swap || scored[nb] == num_swaps + 1 {
                        continue;
                    }
                    let [front_new, ext_new] = sums.after_swap(&r, l, p, r.p2l[nb], nb);
                    let mut score = front_new as f64;
                    if !extended.is_empty() {
                        score += opts.extended_weight * ext_new as f64 / extended.len() as f64;
                    }
                    score *= 1.0 + decay[edge.0] + decay[edge.1];
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((edge, score));
                    }
                }
                scored[p] = num_swaps + 1;
            }
        }
        let ((p1, p2), _) = best.ok_or(RouteError::NoSwapCandidate {
            pair: (front[0].1, front[0].2),
        })?;
        if num_swaps >= budget {
            return Err(RouteError::SwapBudgetExceeded { budget });
        }
        if let Some((_, out)) = &mut r.emit {
            out.push(Gate::Swap(p1, p2));
        }
        phoenix_obs::metrics::global().incr(phoenix_obs::metrics::MetricId::SabreSwapsTotal);
        r.swap(p1, p2);
        last_swap = Some((p1, p2));
        num_swaps += 1;
        decay[p1] += opts.decay;
        decay[p2] += opts.decay;
        swaps_since_reset += 1;
        if swaps_since_reset >= opts.decay_reset {
            decay.iter_mut().for_each(|d| *d = 0.0);
            swaps_since_reset = 0;
        }
    }

    let out = r.emit.map_or_else(Vec::new, |(_, out)| out);
    Ok(RoutedCircuit {
        circuit: Circuit::from_gates(n_phys, out),
        num_swaps,
        initial_layout,
        final_layout: Layout::from_assignment(r.l2p, n_phys),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_circuit::Gate;

    fn opts() -> RouterOptions {
        RouterOptions::default()
    }

    /// The routed circuit, with swaps replayed, must execute every original
    /// CNOT on coupled qubits and preserve the logical gate sequence.
    fn verify_routing(logical: &Circuit, device: &CouplingGraph, routed: &RoutedCircuit) {
        let lowered = logical.lower_to_cnot();
        let mut layout = Layout::trivial(lowered.num_qubits(), device.num_qubits());
        let mut replay: Vec<Gate> = Vec::new();
        for g in routed.circuit.gates() {
            match g {
                Gate::Swap(p1, p2) => {
                    assert!(device.contains_edge(*p1, *p2), "swap on non-edge");
                    layout.swap_physical(*p1, *p2);
                }
                Gate::Cnot(pa, pb) => {
                    assert!(device.contains_edge(*pa, *pb), "cnot on non-edge");
                    let la = layout.logical(*pa).expect("control is mapped");
                    let lb = layout.logical(*pb).expect("target is mapped");
                    replay.push(Gate::Cnot(la, lb));
                }
                one_q => {
                    let (p, _) = one_q.qubits();
                    let l = layout.logical(p).expect("qubit is mapped");
                    replay.push(one_q.map_qubits(&mut |_| l));
                }
            }
        }
        // The router may reorder gates on disjoint qubits (that commutes);
        // semantics are preserved iff every qubit sees the same gate
        // subsequence as in the original program.
        assert_eq!(replay.len(), lowered.len(), "gate count preserved");
        let per_qubit = |gates: &[Gate]| -> Vec<Vec<Gate>> {
            let mut v = vec![Vec::new(); lowered.num_qubits()];
            for g in gates {
                let (a, b) = g.qubits();
                v[a].push(g.clone());
                if let Some(b) = b {
                    v[b].push(g.clone());
                }
            }
            v
        };
        assert_eq!(
            per_qubit(&replay),
            per_qubit(lowered.gates()),
            "per-qubit gate sequences preserved"
        );
    }

    #[test]
    fn all_to_all_needs_no_swaps() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 3));
        c.push(Gate::Cnot(1, 2));
        let dev = CouplingGraph::all_to_all(4);
        let r = route(&c, &dev, Layout::trivial(4, 4), &opts());
        assert_eq!(r.num_swaps, 0);
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn adjacent_gate_passes_through() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        let dev = CouplingGraph::line(3);
        let r = route(&c, &dev, Layout::trivial(3, 3), &opts());
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.circuit.counts().cnot, 1);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(0, 4));
        let dev = CouplingGraph::line(5);
        let r = route(&c, &dev, Layout::trivial(5, 5), &opts());
        assert!(r.num_swaps >= 3, "distance 4 needs ≥3 swaps");
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn routing_preserves_semantics_on_random_program() {
        let mut rng = phoenix_mathkit::Xoshiro256::seed_from_u64(9);
        let n = 8;
        let mut c = Circuit::new(n);
        for _ in 0..40 {
            let a = rng.next_below(n);
            let mut b = rng.next_below(n);
            while b == a {
                b = rng.next_below(n);
            }
            c.push(Gate::Cnot(a, b));
            c.push(Gate::Rz(a, rng.next_f64()));
        }
        let dev = CouplingGraph::grid(2, 4);
        let r = route(&c, &dev, Layout::trivial(n, 8), &opts());
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn heavy_hex_routing_terminates_and_verifies() {
        let mut c = Circuit::new(16);
        for i in 0..15 {
            c.push(Gate::Cnot(i, (i + 5) % 16));
        }
        let dev = CouplingGraph::manhattan65();
        let r = route(&c, &dev, Layout::trivial(16, 65), &opts());
        verify_routing(&c, &dev, &r);
        assert!(r.num_swaps > 0);
    }

    #[test]
    fn bridge_executes_distance2_cnot_without_swaps() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2)); // distance 2 on a line
        let dev = CouplingGraph::line(3);
        let mut o = opts();
        o.use_bridge = true;
        let r = route(&c, &dev, Layout::trivial(3, 3), &o);
        assert_eq!(r.num_swaps, 0, "bridge avoids swaps");
        assert_eq!(r.circuit.counts().cnot, 4, "bridge costs 4 CNOTs");
        // The bridge implements the same unitary as the original CNOT.
        let u = phoenix_sim::circuit_unitary(&c);
        let v = phoenix_sim::circuit_unitary(&r.circuit);
        assert!(u.approx_eq(&v, 1e-12));
    }

    #[test]
    fn bridge_defers_to_swaps_when_pair_recurs() {
        let mut c = Circuit::new(3);
        for _ in 0..4 {
            c.push(Gate::Cnot(0, 2));
            c.push(Gate::Rx(2, 0.3)); // block trivial cancellation
        }
        let dev = CouplingGraph::line(3);
        let mut o = opts();
        o.use_bridge = true;
        let r = route(&c, &dev, Layout::trivial(3, 3), &o);
        assert!(
            r.num_swaps >= 1,
            "recurring pair should be moved, not bridged"
        );
    }

    #[test]
    fn try_route_rejects_undersized_device() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 3));
        let dev = CouplingGraph::line(2);
        let err = try_route(&c, &dev, Layout::trivial(2, 2), &opts()).unwrap_err();
        assert_eq!(
            err,
            RouteError::DeviceTooSmall {
                logical: 4,
                physical: 2
            }
        );
    }

    #[test]
    fn try_route_rejects_mismatched_layout() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        let dev = CouplingGraph::line(3);
        let err = try_route(&c, &dev, Layout::trivial(2, 3), &opts()).unwrap_err();
        assert!(matches!(
            err,
            RouteError::LayoutMismatch {
                layout: 2,
                circuit: 3
            }
        ));
    }

    /// A layout must span exactly the device's physical qubits: routing
    /// from a narrower or a wider one would index past the layout or the
    /// distance table.
    fn route_with_width(layout_width: usize, assignment: Vec<usize>) -> RouteError {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        let dev = CouplingGraph::line(5);
        let layout = Layout::from_assignment(assignment, layout_width);
        try_route(&c, &dev, layout, &opts()).unwrap_err()
    }

    #[test]
    fn try_route_rejects_a_layout_narrower_than_the_device() {
        assert_eq!(
            route_with_width(3, vec![0, 2]),
            RouteError::LayoutWidthMismatch {
                layout: 3,
                device: 5
            }
        );
    }

    #[test]
    fn try_route_rejects_a_layout_wider_than_the_device() {
        assert_eq!(
            route_with_width(8, vec![0, 7]),
            RouteError::LayoutWidthMismatch {
                layout: 8,
                device: 5
            }
        );
    }

    #[test]
    fn tight_swap_budget_is_reported_not_looped() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(0, 4)); // needs ≥3 swaps on a line
        let dev = CouplingGraph::line(5);
        let mut o = opts();
        o.max_swaps = 1;
        let err = try_route(&c, &dev, Layout::trivial(5, 5), &o).unwrap_err();
        assert_eq!(err, RouteError::SwapBudgetExceeded { budget: 1 });
    }

    #[test]
    fn disconnected_region_errs_instead_of_hanging() {
        // Qubit 2 is isolated; the gate can never execute, and without a
        // budget the router would ping-pong forever.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2));
        let dev = CouplingGraph::from_edges(3, [(0, 1)]);
        let err = try_route(&c, &dev, Layout::trivial(3, 3), &opts()).unwrap_err();
        assert!(matches!(
            err,
            RouteError::SwapBudgetExceeded { .. } | RouteError::NoSwapCandidate { .. }
        ));
    }

    #[test]
    fn default_budget_never_trips_on_routable_programs() {
        let o = opts();
        assert_eq!(o.swap_budget(10, 8), 64 + 80);
        let mut tight = opts();
        tight.max_swaps = 7;
        assert_eq!(tight.swap_budget(10, 8), 7);
    }

    #[test]
    fn oneq_only_circuit_routes_trivially() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Rz(2, 0.4));
        let dev = CouplingGraph::line(3);
        let r = route(&c, &dev, Layout::trivial(3, 3), &opts());
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.circuit.len(), 2);
    }
}
