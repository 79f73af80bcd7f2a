//! The circuit container and structural lowering.

use crate::gate::{Gate, Su4Block};
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
        self.for_each_lowered(|g| out.push(g));
        out
    }

    /// Feeds the gates of [`Circuit::lower_to_cnot`] to `emit`, in order,
    /// without building the lowered circuit.
    pub(crate) fn for_each_lowered(&self, mut emit: impl FnMut(Gate)) {
        for g in &self.gates {
            lower_gate(g, &mut emit);
        }
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

/// A basis-change circuit: 1Q gate constructors applied to one qubit.
type Basis = &'static [fn(usize) -> Gate];

/// Basis-change circuits used by the lowerings. `pre`/`post` sandwich a
/// Z-basis (control) or X-basis (target) core.
fn conj_to_z(p: Pauli) -> (Basis, Basis) {
    match p {
        Pauli::Z => (&[], &[]),
        Pauli::X => (&[Gate::H], &[Gate::H]),
        Pauli::Y => (&[Gate::Sdg, Gate::H], &[Gate::H, Gate::S]),
        Pauli::I => unreachable!("identity needs no basis change"),
    }
}

fn conj_to_x(p: Pauli) -> (Basis, Basis) {
    match p {
        Pauli::X => (&[], &[]),
        Pauli::Z => (&[Gate::H], &[Gate::H]),
        // V X V† = Y for V = S: circuit pre = V† = Sdg, post = S.
        Pauli::Y => (&[Gate::Sdg], &[Gate::S]),
        Pauli::I => unreachable!("identity needs no basis change"),
    }
}

/// Emits `basis_a` on qubit `a`, then `basis_b` on qubit `b`.
fn emit_basis(emit: &mut impl FnMut(Gate), a: usize, basis_a: Basis, b: usize, basis_b: Basis) {
    for make in basis_a {
        emit(make(a));
    }
    for make in basis_b {
        emit(make(b));
    }
}

pub(crate) fn lower_gate(g: &Gate, emit: &mut impl FnMut(Gate)) {
    match g {
        Gate::Swap(a, b) => {
            emit(Gate::Cnot(*a, *b));
            emit(Gate::Cnot(*b, *a));
            emit(Gate::Cnot(*a, *b));
        }
        Gate::Clifford2(c) => {
            // C(σ₀,σ₁) = (V₀⊗V₁) CNOT (V₀⊗V₁)† where V₀ Z V₀† = σ₀ and
            // V₁ X V₁† = σ₁; circuit order is V† gates, CNOT, V gates.
            let (pre_a, post_a) = conj_to_z(c.kind.sigma0());
            let (pre_b, post_b) = conj_to_x(c.kind.sigma1());
            emit_basis(emit, c.a, pre_a, c.b, pre_b);
            emit(Gate::Cnot(c.a, c.b));
            emit_basis(emit, c.a, post_a, c.b, post_b);
        }
        Gate::PauliRot2 {
            a,
            b,
            pa,
            pb,
            theta,
        } => {
            let (pre_a, post_a) = conj_to_z(*pa);
            let (pre_b, post_b) = conj_to_z(*pb);
            emit_basis(emit, *a, pre_a, *b, pre_b);
            emit(Gate::Cnot(*a, *b));
            emit(Gate::Rz(*b, *theta));
            emit(Gate::Cnot(*a, *b));
            emit_basis(emit, *a, post_a, *b, post_b);
        }
        Gate::Su4(blk) => {
            let Su4Block { inner, .. } = blk.as_ref();
            for g in inner {
                lower_gate(g, emit);
            }
        }
        other => emit(other.clone()),
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
