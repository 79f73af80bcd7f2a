//! Fixed-point peephole optimization over the CNOT ISA.
//!
//! This pass is the reproduction's stand-in for the Qiskit O2/O3 passes that
//! the paper attaches to every compiler: it repeatedly
//!
//! 1. cancels CNOT pairs, commuting them through diagonal gates on the
//!    control, X-axis gates on the target, shared-control and shared-target
//!    CNOTs;
//! 2. merges adjacent same-axis 1Q rotations (commuting Rz through CNOT
//!    controls and Rx through CNOT targets), cancels `H·H`, and removes
//!    identity rotations.
//!
//! Input circuits are lowered to `{1Q, CNOT}` first, so the pass is safe to
//! call on high-level circuits too.
//!
//! # Representation
//!
//! The gates live in one node array in circuit order. Each live node links
//! to the previous and next live node on each of its qubits (its *wires*),
//! so a CNOT-cancellation search walks only the two merged wires of its
//! CNOT and a merge search walks only the wire of its rotation: a gate on
//! other qubits commutes with both and can never decide a search.
//!
//! Each sweep runs the CNOT search from every CNOT, then the merge search
//! from every 1Q gate, in circuit order, until a sweep changes nothing (at
//! most 64 sweeps). A search that fails is *parked* on the gate that
//! stopped it and is not repeated until that blocker is removed. This is
//! exact: the pass only removes gates or replaces the searching rotation
//! with a same-axis rotation on the same qubit, which commutes with every
//! gate exactly as before, so a blocked search stays fruitless while its
//! blocker lives. A search that ran off the end of its wires stays
//! fruitless for good.

use crate::circuit::{lower_gate, CnotSink};
use crate::{Circuit, Gate};

const TWO_PI: f64 = std::f64::consts::TAU;
const EPS: f64 = 1e-12;
/// The null node index.
const NIL: u32 = u32::MAX;

/// Optimizes a circuit to a fixed point of the cancellation passes.
///
/// The result contains only 1Q gates and CNOTs.
///
/// # Examples
///
/// ```
/// use phoenix_circuit::{peephole, Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::Cnot(0, 1));
/// c.push(Gate::Rz(0, 0.4)); // commutes with the control
/// c.push(Gate::Cnot(0, 1));
/// let opt = peephole::optimize(&c);
/// assert_eq!(opt.counts().cnot, 0);
/// ```
pub fn optimize(c: &Circuit) -> Circuit {
    let mut dag = WireDag::lower(c);
    for _ in 0..64 {
        let mut changed = dag.sweep(Pass::CancelCnot);
        changed |= dag.sweep(Pass::Merge1q);
        if !changed {
            break;
        }
    }
    Circuit::from_gates(c.num_qubits(), dag.into_gates())
}

/// Wraps an angle into `(-π, π]`.
fn wrap(theta: f64) -> f64 {
    // IEEE `fmod` returns its argument unchanged when |θ| < 2π; NaN and
    // ±∞ fail the test and still take it.
    let mut t = if theta.abs() < TWO_PI {
        theta
    } else {
        theta % TWO_PI
    };
    if t > std::f64::consts::PI {
        t -= TWO_PI;
    } else if t <= -std::f64::consts::PI {
        t += TWO_PI;
    }
    t
}

/// Axis of a 1Q rotation gate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
    Z,
}

/// What a node holds once lowered and normalized.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    H,
    Rot(Axis),
    Cnot,
    /// Removed by the pass.
    Dead,
}

impl Kind {
    /// The pass whose search starts from a node of this kind.
    fn pass(self) -> Pass {
        if self == Kind::Cnot {
            Pass::CancelCnot
        } else {
            Pass::Merge1q
        }
    }
}

/// One gate with its wire links. `q[1]`, `next[1]` and `prev[1]` are
/// unused by 1Q gates.
struct Node {
    kind: Kind,
    /// Rotation angle (rotations only).
    theta: f64,
    /// Qubits: control and target for a CNOT.
    q: [u32; 2],
    /// Next live node on wire `q[s]`, per slot `s`.
    next: [u32; 2],
    /// Previous live node on wire `q[s]`, per slot `s`.
    prev: [u32; 2],
    /// Head of the list of searches parked on this node.
    parked: u32,
    /// Next search parked on the same blocker as this node's.
    park_next: u32,
}

impl Node {
    fn arity(&self) -> usize {
        if self.kind == Kind::Cnot {
            2
        } else {
            1
        }
    }

    /// The slot through which this node sits on wire `q`.
    fn slot(&self, q: u32) -> usize {
        usize::from(self.q[0] != q)
    }
}

/// The two searches of a sweep, each with its own pending set.
#[derive(Clone, Copy)]
enum Pass {
    CancelCnot = 0,
    Merge1q = 1,
}

/// The lowered circuit as wire-linked nodes plus the pending searches.
struct WireDag {
    nodes: Vec<Node>,
    /// Number of live nodes.
    live: usize,
    /// One bit per node whose search must run (again), per [`Pass`].
    pending: [Vec<u64>; 2],
}

impl WireDag {
    /// Lowers `c` to the CNOT ISA, normalizes it, and links the wires.
    /// Every search starts pending.
    fn lower(c: &Circuit) -> Self {
        let mut wires = Wires {
            nodes: Vec::new(),
            last: vec![NIL; c.num_qubits()],
        };
        for g in c.gates() {
            lower_gate(g, &mut wires);
        }
        let nodes = wires.nodes;
        // Checked after the build: a longer array wrapped its `u32`
        // indices, but no search has followed a link yet.
        assert!(
            nodes.len() < NIL as usize,
            "circuit too long for the peephole pass"
        );
        let words = nodes.len().div_ceil(64);
        let mut pending = [vec![0u64; words], vec![0u64; words]];
        for (i, node) in nodes.iter().enumerate() {
            set_bit(&mut pending[node.kind.pass() as usize], i as u32);
        }
        WireDag {
            live: nodes.len(),
            nodes,
            pending,
        }
    }

    /// Runs `pass`'s search from every pending node in circuit order.
    /// Nodes made pending behind the cursor wait for the next sweep.
    fn sweep(&mut self, pass: Pass) -> bool {
        let mut changed = false;
        let mut from = 0usize;
        while let Some(i) = next_bit(&self.pending[pass as usize], from) {
            self.pending[pass as usize][i / 64] &= !(1u64 << (i % 64));
            let i = i as u32;
            changed |= match (pass, self.nodes[i as usize].kind) {
                (_, Kind::Dead) => false,
                (Pass::CancelCnot, _) => self.cancel_cnot(i),
                (Pass::Merge1q, Kind::H) => self.cancel_h(i),
                (Pass::Merge1q, _) => self.merge_rotation(i),
            };
            from = i as usize + 1;
        }
        changed
    }

    /// The next live node after `i` on wire `q`.
    fn next_on(&self, i: u32, q: u32) -> u32 {
        let n = &self.nodes[i as usize];
        n.next[n.slot(q)]
    }

    /// Searches the wires of CNOT `i` for an identical CNOT it commutes up
    /// to, and cancels the pair.
    fn cancel_cnot(&mut self, i: u32) -> bool {
        let [a, b] = self.nodes[i as usize].q;
        let mut na = self.next_on(i, a);
        let mut nb = self.next_on(i, b);
        loop {
            let j = na.min(nb);
            if j == NIL {
                return false;
            }
            let g = &self.nodes[j as usize];
            if g.kind == Kind::Cnot && g.q == [a, b] {
                self.remove(i);
                self.remove(j);
                return true;
            }
            if !commutes_with_cnot(g, a, b) {
                self.park(i, j);
                return false;
            }
            if j == na {
                na = self.next_on(j, a);
            }
            if j == nb {
                nb = self.next_on(j, b);
            }
        }
    }

    /// Cancels H `i` against an H directly after it on its wire.
    fn cancel_h(&mut self, i: u32) -> bool {
        let j = self.next_on(i, self.nodes[i as usize].q[0]);
        if j == NIL {
            return false;
        }
        if self.nodes[j as usize].kind == Kind::H {
            self.remove(i);
            self.remove(j);
            return true;
        }
        self.park(i, j);
        false
    }

    /// Removes rotation `i` if it is the identity; otherwise merges into it
    /// the first same-axis rotation it commutes up to on its wire.
    fn merge_rotation(&mut self, i: u32) -> bool {
        let Node {
            kind: Kind::Rot(axis),
            theta,
            q: [q, _],
            ..
        } = self.nodes[i as usize]
        else {
            unreachable!("merge search from a non-rotation")
        };
        if wrap(theta).abs() < EPS {
            self.remove(i);
            return true;
        }
        let mut j = self.next_on(i, q);
        while j != NIL {
            let g = &self.nodes[j as usize];
            if g.kind == Kind::Rot(axis) {
                let merged = wrap(theta + g.theta);
                self.remove(j);
                if merged.abs() < EPS {
                    self.remove(i);
                } else {
                    self.nodes[i as usize].theta = merged;
                    self.mark_pending(i);
                }
                return true;
            }
            if !commutes_with_rot(g, axis, q) {
                self.park(i, j);
                return false;
            }
            j = self.next_on(j, q);
        }
        false
    }

    /// Parks the failed search of `i` on its blocker `j`.
    fn park(&mut self, i: u32, j: u32) {
        self.nodes[i as usize].park_next = self.nodes[j as usize].parked;
        self.nodes[j as usize].parked = i;
    }

    fn mark_pending(&mut self, i: u32) {
        let pass = self.nodes[i as usize].kind.pass();
        set_bit(&mut self.pending[pass as usize], i);
    }

    /// Unlinks node `k` from its wires and wakes the searches parked on it.
    fn remove(&mut self, k: u32) {
        let node = &self.nodes[k as usize];
        let (arity, q, prev, next) = (node.arity(), node.q, node.prev, node.next);
        for s in 0..arity {
            if prev[s] != NIL {
                let p = &mut self.nodes[prev[s] as usize];
                let ps = p.slot(q[s]);
                p.next[ps] = next[s];
            }
            if next[s] != NIL {
                let n = &mut self.nodes[next[s] as usize];
                let ns = n.slot(q[s]);
                n.prev[ns] = prev[s];
            }
        }
        let node = &mut self.nodes[k as usize];
        node.kind = Kind::Dead;
        self.live -= 1;
        let mut w = std::mem::replace(&mut node.parked, NIL);
        // A live node sits in at most one parked list, and only while its
        // search is not pending; dead entries are skipped.
        while w != NIL {
            let waiter = &self.nodes[w as usize];
            let after = waiter.park_next;
            if waiter.kind != Kind::Dead {
                self.mark_pending(w);
            }
            w = after;
        }
    }

    /// The live gates in circuit order.
    fn into_gates(self) -> Vec<Gate> {
        let mut out = Vec::with_capacity(self.live);
        for n in &self.nodes {
            let q = n.q[0] as usize;
            out.push(match n.kind {
                Kind::Dead => continue,
                Kind::H => Gate::H(q),
                Kind::Rot(Axis::X) => Gate::Rx(q, n.theta),
                Kind::Rot(Axis::Y) => Gate::Ry(q, n.theta),
                Kind::Rot(Axis::Z) => Gate::Rz(q, n.theta),
                Kind::Cnot => Gate::Cnot(q, n.q[1] as usize),
            });
        }
        out
    }
}

/// Builds the wire-linked nodes straight from the lowering, one node per
/// lowered gate.
struct Wires {
    nodes: Vec<Node>,
    /// The last node on each wire so far.
    last: Vec<u32>,
}

impl Wires {
    /// Appends a node on qubits `q` (`q[1]` is `NIL` for a 1Q gate) and
    /// links it behind the last node of each of its wires.
    fn push(&mut self, kind: Kind, theta: f64, q: [u32; 2]) {
        let idx = self.nodes.len() as u32;
        let mut node = Node {
            kind,
            theta,
            q,
            next: [NIL; 2],
            prev: [NIL; 2],
            parked: NIL,
            park_next: NIL,
        };
        for s in 0..node.arity() {
            let q = node.q[s];
            let p = self.last[q as usize];
            node.prev[s] = p;
            if p != NIL {
                let pn = &mut self.nodes[p as usize];
                let ps = pn.slot(q);
                pn.next[ps] = idx;
            }
            self.last[q as usize] = idx;
        }
        self.nodes.push(node);
    }

    fn rot(&mut self, axis: Axis, q: usize, theta: f64) {
        self.push(Kind::Rot(axis), theta, [q as u32, NIL]);
    }
}

/// Phase-like Cliffords become rotations (up to global phase), so the
/// merge pass sees a uniform representation.
impl CnotSink for Wires {
    fn gate(&mut self, g: &Gate) {
        use std::f64::consts::PI;
        match *g {
            Gate::H(q) => self.h(q),
            Gate::S(q) => self.s(q),
            Gate::Sdg(q) => self.sdg(q),
            Gate::X(q) => self.rot(Axis::X, q, PI),
            Gate::Y(q) => self.rot(Axis::Y, q, PI),
            Gate::Z(q) => self.rot(Axis::Z, q, PI),
            Gate::Rx(q, t) => self.rot(Axis::X, q, t),
            Gate::Ry(q, t) => self.rot(Axis::Y, q, t),
            Gate::Rz(q, t) => self.rot(Axis::Z, q, t),
            Gate::Cnot(a, b) => self.cnot(a, b),
            ref other => unreachable!("{other} survives lowering"),
        }
    }
    fn cnot(&mut self, a: usize, b: usize) {
        self.push(Kind::Cnot, 0.0, [a as u32, b as u32]);
    }
    fn h(&mut self, q: usize) {
        self.push(Kind::H, 0.0, [q as u32, NIL]);
    }
    fn s(&mut self, q: usize) {
        self.rot(Axis::Z, q, std::f64::consts::FRAC_PI_2);
    }
    fn sdg(&mut self, q: usize) {
        self.rot(Axis::Z, q, -std::f64::consts::FRAC_PI_2);
    }
    fn rz(&mut self, q: usize, theta: f64) {
        self.rot(Axis::Z, q, theta);
    }
}

fn set_bit(bits: &mut [u64], i: u32) {
    bits[i as usize / 64] |= 1u64 << (i % 64);
}

/// The first set bit at index `from` or later.
fn next_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

/// Whether node `g`, which sits on wire `a` or `b`, commutes with
/// `CNOT(a, b)` (the identical CNOT is handled as a cancellation).
fn commutes_with_cnot(g: &Node, a: u32, b: u32) -> bool {
    match g.kind {
        // Diagonal rotations commute through the control; X-axis through
        // the target.
        Kind::Rot(Axis::Z) => g.q[0] != b,
        Kind::Rot(Axis::X) => g.q[0] != a,
        // CNOTs commute unless one's control is the other's target.
        Kind::Cnot => g.q[0] != b && g.q[1] != a,
        // H and Ry share a qubit with the CNOT, so they block it.
        _ => false,
    }
}

/// Whether node `g`, which sits on wire `q`, commutes with a rotation about
/// `axis` on `q`.
fn commutes_with_rot(g: &Node, axis: Axis, q: u32) -> bool {
    match (axis, g.kind) {
        (Axis::Z, Kind::Cnot) => g.q[0] == q,
        (Axis::X, Kind::Cnot) => g.q[1] == q,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::Pauli;

    #[test]
    fn adjacent_cnots_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(optimize(&c).counts().cnot, 0);
    }

    #[test]
    fn reversed_cnots_do_not_cancel() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 0));
        assert_eq!(optimize(&c).counts().cnot, 2);
    }

    #[test]
    fn cnot_commutes_through_control_rz() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(0, 0.3));
        c.push(Gate::Rx(1, 0.4));
        c.push(Gate::Cnot(0, 1));
        let opt = optimize(&c);
        assert_eq!(opt.counts().cnot, 0);
        assert_eq!(opt.counts().oneq, 2);
    }

    #[test]
    fn cnot_blocked_by_h() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::H(1));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(optimize(&c).counts().cnot, 2);
    }

    #[test]
    fn shared_control_cnots_commute() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(0, 2));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(optimize(&c).counts().cnot, 1);
    }

    #[test]
    fn crossing_cnots_block() {
        // CNOT(0,1) and CNOT(1,2) share qubit 1 as target/control: no commute.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(optimize(&c).counts().cnot, 3);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.3));
        c.push(Gate::Rz(0, -0.3));
        c.push(Gate::Rx(0, 0.1));
        let opt = optimize(&c);
        assert_eq!(opt.counts().total, 1);
        assert!(matches!(opt.gates()[0], Gate::Rx(0, t) if (t - 0.1).abs() < EPS));
    }

    #[test]
    fn s_sdg_cancel_via_normalization() {
        let mut c = Circuit::new(1);
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        assert_eq!(optimize(&c).counts().total, 0);
    }

    #[test]
    fn h_h_cancels() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(1, 0));
        c.push(Gate::H(0)); // blocked by the CNOT: must NOT cancel
        c.push(Gate::H(1));
        c.push(Gate::H(1));
        let opt = optimize(&c);
        let h_count = opt
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::H(_)))
            .count();
        assert_eq!(h_count, 2);
    }

    #[test]
    fn rz_merges_across_cnot_control() {
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 0.2));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(0, -0.2));
        let opt = optimize(&c);
        assert_eq!(opt.counts().oneq, 0);
        assert_eq!(opt.counts().cnot, 1);
    }

    #[test]
    fn zz_rotation_chain_shares_cnots() {
        // Two consecutive ZZ rotations on the same pair: the inner CNOT pair
        // cancels, leaving 2 CNOTs and 2 (merged to 1) Rz.
        let mut c = Circuit::new(2);
        for theta in [0.3, 0.5] {
            c.push(Gate::PauliRot2 {
                a: 0,
                b: 1,
                pa: Pauli::Z,
                pb: Pauli::Z,
                theta,
            });
        }
        let opt = optimize(&c);
        assert_eq!(opt.counts().cnot, 2);
        assert_eq!(opt.counts().oneq, 1);
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut c = Circuit::new(3);
        c.push(Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::X,
            pb: Pauli::Y,
            theta: 0.7,
        });
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::H(0));
        let once = optimize(&c);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }
}
