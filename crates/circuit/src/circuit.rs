//! The circuit container and structural lowering.

use crate::gate::Gate;
use phoenix_pauli::{Pauli, QubitMask};
use std::fmt;

/// Gate-count summary of a [`Circuit`].
///
/// The paper's metrics exclude 1Q gates ("generally considered free
/// resources"); [`GateCounts::two_qubit`] aggregates every 2Q gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// All gates.
    pub total: usize,
    /// Single-qubit gates.
    pub oneq: usize,
    /// CNOT gates.
    pub cnot: usize,
    /// SWAP gates.
    pub swap: usize,
    /// High-level 2Q Clifford generators.
    pub clifford2: usize,
    /// High-level 2Q Pauli rotations.
    pub pauli_rot2: usize,
    /// Fused SU(4) blocks.
    pub su4: usize,
}

impl GateCounts {
    /// Total number of 2Q gates of any flavour.
    pub fn two_qubit(&self) -> usize {
        self.cnot + self.swap + self.clifford2 + self.pauli_rot2 + self.su4
    }
}

/// A quantum circuit: an ordered gate list over a fixed qubit register.
///
/// # Examples
///
/// ```
/// use phoenix_circuit::{Circuit, Gate};
/// use phoenix_pauli::Pauli;
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::PauliRot2 { a: 0, b: 1, pa: Pauli::X, pb: Pauli::X, theta: 0.3 });
/// let lowered = c.lower_to_cnot();
/// assert_eq!(lowered.counts().cnot, 2); // CNOT · Rz · CNOT plus basis changes
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n` qubits.
    pub fn new(n: usize) -> Self {
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn push(&mut self, g: Gate) {
        check_qubits(self.n, &g);
        self.gates.push(g);
    }

    /// Appends every gate of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn append(&mut self, other: &Circuit) {
        assert!(
            other.n <= self.n,
            "appended circuit must fit in the register"
        );
        for g in &other.gates {
            self.gates.push(g.clone());
        }
    }

    /// Consumes the circuit and returns the gate list.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Builds a circuit from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if any gate addresses a qubit `≥ n`.
    pub fn from_gates(n: usize, gates: Vec<Gate>) -> Self {
        for g in &gates {
            check_qubits(n, g);
        }
        Circuit { n, gates }
    }

    /// Gate-count summary.
    pub fn counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for g in &self.gates {
            c.total += 1;
            match g {
                Gate::Cnot(..) => c.cnot += 1,
                Gate::Swap(..) => c.swap += 1,
                Gate::Clifford2(..) => c.clifford2 += 1,
                Gate::PauliRot2 { .. } => c.pauli_rot2 += 1,
                Gate::Su4(..) => c.su4 += 1,
                _ => c.oneq += 1,
            }
        }
        c
    }

    /// 2Q circuit depth: the depth when 1Q gates are ignored (the "Depth-2Q"
    /// metric of the paper).
    pub fn depth_2q(&self) -> usize {
        let mut frontier = vec![0usize; self.n];
        let mut depth = 0;
        for g in &self.gates {
            if let (a, Some(b)) = g.qubits() {
                let layer = frontier[a].max(frontier[b]) + 1;
                frontier[a] = layer;
                frontier[b] = layer;
                depth = depth.max(layer);
            }
        }
        depth
    }

    /// Full circuit depth including 1Q gates.
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.n];
        let mut depth = 0;
        for g in &self.gates {
            let (a, b) = g.qubits();
            let layer = match b {
                Some(b) => frontier[a].max(frontier[b]) + 1,
                None => frontier[a] + 1,
            };
            frontier[a] = layer;
            if let Some(b) = b {
                frontier[b] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Bit mask of qubits any gate acts on.
    pub fn support_mask(&self) -> QubitMask {
        let mut m = QubitMask::zeros(self.n);
        for g in &self.gates {
            let (a, b) = g.qubits();
            m.set_bit(a);
            if let Some(b) = b {
                m.set_bit(b);
            }
        }
        m
    }

    /// Returns a copy with every qubit index remapped through `f` into a
    /// register of `new_n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if a remapped index is out of range.
    pub fn map_qubits(&self, new_n: usize, mut f: impl FnMut(usize) -> usize) -> Circuit {
        let mut out = Circuit::new(new_n);
        for g in &self.gates {
            out.push(g.map_qubits(&mut f));
        }
        out
    }

    /// Structurally lowers the circuit to the CNOT ISA: only 1Q gates and
    /// [`Gate::Cnot`] remain.
    ///
    /// - `SWAP → 3 CNOTs`
    /// - `C(σ₀,σ₁) → (V₀⊗V₁)·CNOT·(V₀⊗V₁)†` with 1Q basis changes
    /// - `exp(-iθ/2·P_a⊗P_b) →` basis changes + `CNOT·Rz·CNOT`
    /// - SU(4) blocks are lowered recursively.
    pub fn lower_to_cnot(&self) -> Circuit {
        let mut out = Circuit::new(self.n);
        out.gates.reserve(self.gates.len());
        for g in &self.gates {
            lower_gate(g, &mut |g| out.push(g));
        }
        out
    }
}

/// Panics unless every qubit of `g` is below `n`.
fn check_qubits(n: usize, g: &Gate) {
    let (a, b) = g.qubits();
    assert!(a < n, "gate qubit {a} out of range");
    if let Some(b) = b {
        assert!(b < n, "gate qubit {b} out of range");
    }
}

/// The consumer of a lowering to the CNOT ISA: [`lower_gate`] calls it
/// once per lowered gate, in circuit order. By default each gate the
/// expansion emits is built as a [`Gate`] and handed to `gate`; a sink
/// that keeps no `Gate`s overrides every method.
pub(crate) trait CnotSink {
    /// A gate in the ISA (1Q or CNOT): an input gate passed through, or
    /// one the expansion built.
    fn gate(&mut self, g: &Gate);
    fn cnot(&mut self, a: usize, b: usize) {
        self.gate(&Gate::Cnot(a, b));
    }
    fn h(&mut self, q: usize) {
        self.gate(&Gate::H(q));
    }
    fn s(&mut self, q: usize) {
        self.gate(&Gate::S(q));
    }
    fn sdg(&mut self, q: usize) {
        self.gate(&Gate::Sdg(q));
    }
    fn rz(&mut self, q: usize, theta: f64) {
        self.gate(&Gate::Rz(q, theta));
    }
}

/// A closure sink receives each lowered gate by value.
impl<F: FnMut(Gate)> CnotSink for F {
    fn gate(&mut self, g: &Gate) {
        self(g.clone());
    }
}

/// Lowers `g` to the CNOT ISA into `sink`. This is the one expansion of
/// each multi-gate kind; every lowering consumer goes through it.
pub(crate) fn lower_gate(g: &Gate, sink: &mut impl CnotSink) {
    match *g {
        Gate::Swap(a, b) => {
            sink.cnot(a, b);
            sink.cnot(b, a);
            sink.cnot(a, b);
        }
        Gate::Clifford2(c) => {
            // C(σ₀,σ₁) = (V₀⊗V₁) CNOT (V₀⊗V₁)† where V₀ Z V₀† = σ₀ and
            // V₁ X V₁† = σ₁; circuit order is V† gates, CNOT, V gates.
            let (s0, s1) = (c.kind.sigma0(), c.kind.sigma1());
            z_basis(sink, c.a, s0, false);
            x_basis(sink, c.b, s1, false);
            sink.cnot(c.a, c.b);
            z_basis(sink, c.a, s0, true);
            x_basis(sink, c.b, s1, true);
        }
        Gate::PauliRot2 {
            a,
            b,
            pa,
            pb,
            theta,
        } => {
            z_basis(sink, a, pa, false);
            z_basis(sink, b, pb, false);
            sink.cnot(a, b);
            sink.rz(b, theta);
            sink.cnot(a, b);
            z_basis(sink, a, pa, true);
            z_basis(sink, b, pb, true);
        }
        Gate::Su4(ref blk) => {
            for g in &blk.inner {
                lower_gate(g, sink);
            }
        }
        ref other => sink.gate(other),
    }
}

/// The basis change around a Z-basis core (a CNOT control, or both ends
/// of `CNOT·Rz·CNOT`) on `q`, for `V Z V† = p`: `V†` before the core,
/// `V` after it (`after`).
fn z_basis(sink: &mut impl CnotSink, q: usize, p: Pauli, after: bool) {
    match (p, after) {
        (Pauli::Z, _) => {}
        (Pauli::X, _) => sink.h(q),
        (Pauli::Y, false) => {
            sink.sdg(q);
            sink.h(q);
        }
        (Pauli::Y, true) => {
            sink.h(q);
            sink.s(q);
        }
        (Pauli::I, _) => unreachable!("identity needs no basis change"),
    }
}

/// The basis change around an X-basis core (a CNOT target) on `q`, for
/// `V X V† = p`: `V†` before the core, `V` after it (`after`).
fn x_basis(sink: &mut impl CnotSink, q: usize, p: Pauli, after: bool) {
    match (p, after) {
        (Pauli::X, _) => {}
        (Pauli::Z, _) => sink.h(q),
        // V X V† = Y for V = S.
        (Pauli::Y, false) => sink.sdg(q),
        (Pauli::Y, true) => sink.s(q),
        (Pauli::I, _) => unreachable!("identity needs no basis change"),
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.n,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::{Clifford2Q, Clifford2QKind};

    #[test]
    fn counts_classify_gates() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Swap(1, 2));
        c.push(Gate::Clifford2(Clifford2Q::new(Clifford2QKind::Cxx, 0, 2)));
        let k = c.counts();
        assert_eq!(k.total, 4);
        assert_eq!(k.oneq, 1);
        assert_eq!(k.cnot, 1);
        assert_eq!(k.swap, 1);
        assert_eq!(k.clifford2, 1);
        assert_eq!(k.two_qubit(), 3);
    }

    #[test]
    fn depth_2q_ignores_oneq() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::H(q));
        }
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 2));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(c.depth_2q(), 3);
        assert!(c.depth() >= 4);
    }

    #[test]
    fn parallel_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(2, 3));
        assert_eq!(c.depth_2q(), 1);
    }

    #[test]
    fn swap_lowers_to_three_cnots() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 1));
        let low = c.lower_to_cnot();
        assert_eq!(low.counts().cnot, 3);
        assert_eq!(low.counts().oneq, 0);
    }

    #[test]
    fn pauli_rot2_lowers_to_two_cnots() {
        let mut c = Circuit::new(2);
        c.push(Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::Y,
            pb: Pauli::X,
            theta: 0.5,
        });
        let low = c.lower_to_cnot();
        assert_eq!(low.counts().cnot, 2);
        // One Rz plus basis changes.
        assert!(low
            .gates()
            .iter()
            .any(|g| matches!(g, Gate::Rz(1, t) if (*t - 0.5).abs() < 1e-12)));
    }

    #[test]
    fn clifford2_lowers_to_one_cnot() {
        for kind in phoenix_pauli::CLIFFORD2Q_GENERATORS {
            let mut c = Circuit::new(2);
            c.push(Gate::Clifford2(Clifford2Q::new(kind, 0, 1)));
            let low = c.lower_to_cnot();
            assert_eq!(low.counts().cnot, 1, "{kind}");
        }
    }

    #[test]
    fn lowering_is_idempotent() {
        let mut c = Circuit::new(3);
        c.push(Gate::Swap(0, 2));
        c.push(Gate::PauliRot2 {
            a: 1,
            b: 2,
            pa: Pauli::Z,
            pb: Pauli::Z,
            theta: 1.0,
        });
        let once = c.lower_to_cnot();
        assert_eq!(once, once.lower_to_cnot());
    }

    #[test]
    fn support_mask_covers_acted_qubits() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(1, 3));
        c.push(Gate::H(4));
        assert_eq!(c.support_mask(), QubitMask::from_u128(0b11010));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    fn map_qubits_translates() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        let mapped = c.map_qubits(4, |q| q + 2);
        assert_eq!(mapped.gates()[0], Gate::Cnot(2, 3));
    }
}
