//! Dense state-vector simulation.

use phoenix_circuit::{Circuit, Gate};
use phoenix_mathkit::{CMatrix, Complex, Xoshiro256};
use phoenix_pauli::PauliString;

/// A dense `2ⁿ` state vector in little-endian qubit order (qubit 0 is the
/// least-significant basis bit).
///
/// # Examples
///
/// ```
/// use phoenix_circuit::{Circuit, Gate};
/// use phoenix_sim::State;
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H(0));
/// bell.push(Gate::Cnot(0, 1));
/// let s = State::zero(2).evolved(&bell);
/// assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
/// assert!(s.probability(0b01) < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    n: usize,
    amps: Vec<Complex>,
}

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (dense simulation limit).
    pub fn zero(n: usize) -> Self {
        State::basis(n, 0)
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` or `index >= 2ⁿ`.
    pub fn basis(n: usize, index: usize) -> Self {
        assert!(n <= 24, "dense simulation supports at most 24 qubits");
        let dim = 1usize << n;
        assert!(index < dim, "basis index out of range");
        let mut amps = vec![Complex::ZERO; dim];
        amps[index] = Complex::ONE;
        State { n, amps }
    }

    /// A random product state `⊗ᵩ (cos θᵩ|0⟩ + e^{iφᵩ} sin θᵩ|1⟩)`,
    /// deterministic in the generator state.
    ///
    /// Product states are the cheap-to-prepare inputs of tier-3
    /// observable spot checks: they are expressive enough that two
    /// different unitaries almost surely disagree on some product-state
    /// expectation, yet need no reference circuit to construct.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (dense simulation limit).
    pub fn random_product(n: usize, rng: &mut Xoshiro256) -> Self {
        assert!(n <= 24, "dense simulation supports at most 24 qubits");
        let mut amps = vec![Complex::ONE; 1];
        for _ in 0..n {
            let theta = rng.next_range_f64(0.0, std::f64::consts::PI);
            let phi = rng.next_range_f64(0.0, 2.0 * std::f64::consts::PI);
            let a0 = Complex::from_re((theta / 2.0).cos());
            let a1 = Complex::new(phi.cos(), phi.sin()) * Complex::from_re((theta / 2.0).sin());
            // New qubit becomes the most-significant bit: |ψ⟩ ⊗ (a0|0⟩+a1|1⟩).
            let mut next = Vec::with_capacity(amps.len() * 2);
            next.extend(amps.iter().map(|&a| a0 * a));
            next.extend(amps.iter().map(|&a| a1 * a));
            amps = next;
        }
        State { n, amps }
    }

    /// Applies a Pauli string in place: `|ψ⟩ ← P|ψ⟩` (a phased bit-flip
    /// permutation, `O(2ⁿ)`).
    ///
    /// # Panics
    ///
    /// Panics if the string's qubit count differs from the state's.
    pub fn apply_pauli(&mut self, p: &PauliString) {
        assert_eq!(p.num_qubits(), self.n, "pauli arity mismatch");
        let x = p.x_mask().low_u128() as usize;
        let z = p.z_mask().low_u128();
        let ycnt = p.x_mask().and_count(p.z_mask()) % 4;
        let ybase = [Complex::ONE, Complex::I, -Complex::ONE, -Complex::I][ycnt as usize];
        let mut out = vec![Complex::ZERO; self.amps.len()];
        for (r, slot) in out.iter_mut().enumerate() {
            let k = r ^ x;
            // P[r, k] = i^{|x∧z|} (−1)^{|k∧z|}, as in `pauli_apply_left`.
            let phase = if ((k as u128) & z).count_ones() % 2 == 1 {
                -ybase
            } else {
                ybase
            };
            *slot = phase * self.amps[k];
        }
        self.amps = out;
    }

    /// Applies a Pauli exponential in place:
    /// `|ψ⟩ ← exp(-i·c·P)|ψ⟩ = cos(c)|ψ⟩ − i·sin(c)·P|ψ⟩`.
    ///
    /// Chaining this over a term list evolves a state by the exact Trotter
    /// product without ever materializing a `2ⁿ × 2ⁿ` matrix — the
    /// reference evolution of tier-3 checks at sizes where
    /// [`trotter_unitary`](crate::trotter_unitary) is out of reach.
    ///
    /// # Panics
    ///
    /// Panics if the string's qubit count differs from the state's.
    pub fn apply_pauli_exp(&mut self, p: &PauliString, c: f64) {
        let mut flipped = self.clone();
        flipped.apply_pauli(p);
        let (cos, sin) = (Complex::from_re(c.cos()), Complex::new(0.0, -c.sin()));
        for (a, f) in self.amps.iter_mut().zip(&flipped.amps) {
            *a = cos * *a + sin * *f;
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// `|⟨index|ψ⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Applies a gate in place.
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn apply(&mut self, g: &Gate) {
        match g.qubits() {
            (q, None) => {
                let m = g.matrix1().expect("1q gate has a 2x2 matrix");
                self.apply_1q(q, &m);
            }
            (a, Some(b)) => {
                let m = g.matrix2().expect("2q gate has a 4x4 matrix");
                self.apply_2q(a, b, &m);
            }
        }
    }

    fn apply_1q(&mut self, q: usize, m: &CMatrix) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        // Enumerate only the 2ⁿ⁻¹ base indices (bit q clear) by splicing a
        // zero into position q, instead of scanning and mask-filtering all
        // 2ⁿ amplitudes.
        let low = bit - 1;
        for k in 0..self.amps.len() >> 1 {
            let i = ((k & !low) << 1) | (k & low);
            let (a0, a1) = (self.amps[i], self.amps[i | bit]);
            self.amps[i] = m[(0, 0)] * a0 + m[(0, 1)] * a1;
            self.amps[i | bit] = m[(1, 0)] * a0 + m[(1, 1)] * a1;
        }
    }

    /// Applies a 4×4 matrix in *local little-endian* order: qubit `a` is the
    /// local LSB (matching [`Gate::matrix2`]).
    fn apply_2q(&mut self, a: usize, b: usize, m: &CMatrix) {
        assert!(a < self.n && b < self.n, "qubit out of range");
        assert_ne!(a, b, "2q gate needs distinct qubits");
        let (ba, bb) = (1usize << a, 1usize << b);
        // Enumerate only the 2ⁿ⁻² base indices (both bits clear) by
        // splicing zeros into the two bit positions, low bit first.
        let (lo, hi) = (ba.min(bb) - 1, ba.max(bb) - 1);
        for k in 0..self.amps.len() >> 2 {
            let t = ((k & !lo) << 1) | (k & lo);
            let i = ((t & !hi) << 1) | (t & hi);
            let idx = [i, i | ba, i | bb, i | ba | bb];
            let old = idx.map(|k| self.amps[k]);
            for (r, &k) in idx.iter().enumerate() {
                let mut acc = Complex::ZERO;
                for (c, &o) in old.iter().enumerate() {
                    acc += m[(r, c)] * o;
                }
                self.amps[k] = acc;
            }
        }
    }

    /// Applies every gate of a circuit in place.
    ///
    /// # Panics
    ///
    /// Panics if the circuit uses more qubits than the state has.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert!(c.num_qubits() <= self.n, "circuit too wide for state");
        phoenix_obs::metrics::global()
            .add(phoenix_obs::metrics::MetricId::SimGateOps, c.len() as u64);
        for g in c.gates() {
            self.apply(g);
        }
    }

    /// Returns a copy evolved by `c`.
    pub fn evolved(&self, c: &Circuit) -> State {
        let mut s = self.clone();
        s.apply_circuit(c);
        s
    }

    /// `|⟨other|self⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&self, other: &State) -> f64 {
        assert_eq!(self.n, other.n, "state sizes must match");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(&a, &b)| a.conj() * b)
            .sum::<Complex>()
            .norm_sqr()
    }
}

/// Builds the full `2ⁿ × 2ⁿ` unitary of a circuit by evolving every basis
/// column.
///
/// # Panics
///
/// Panics if the circuit has more than 24 qubits.
pub fn circuit_unitary(c: &Circuit) -> CMatrix {
    let n = c.num_qubits();
    let dim = 1usize << n;
    let mut u = CMatrix::zeros(dim, dim);
    for col in 0..dim {
        let s = State::basis(n, col).evolved(c);
        for (row, &amp) in s.amplitudes().iter().enumerate() {
            u[(row, col)] = amp;
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::{Clifford2Q, Pauli};

    #[test]
    fn cnot_truth_table() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        // |01⟩ (qubit0=1) → |11⟩
        let s = State::basis(2, 0b01).evolved(&c);
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
        // |10⟩ (qubit0=0) unchanged
        let s = State::basis(2, 0b10).evolved(&c);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_of_clifford2_matches_its_matrix4() {
        for kind in phoenix_pauli::CLIFFORD2Q_GENERATORS {
            let mut c = Circuit::new(2);
            c.push(Gate::Clifford2(Clifford2Q::new(kind, 0, 1)));
            let u = circuit_unitary(&c);
            assert!(u.approx_eq(&kind.matrix4(), 1e-12), "{kind}");
        }
    }

    #[test]
    fn clifford2_lowering_is_exact_up_to_phase() {
        // The {1Q, CNOT} lowering must implement the same unitary.
        for kind in phoenix_pauli::CLIFFORD2Q_GENERATORS {
            let mut c = Circuit::new(2);
            c.push(Gate::Clifford2(Clifford2Q::new(kind, 0, 1)));
            let hi = circuit_unitary(&c);
            let lo = circuit_unitary(&c.lower_to_cnot());
            assert!(
                (hi.unitary_overlap(&lo) - 1.0).abs() < 1e-12,
                "{kind} lowering"
            );
        }
    }

    #[test]
    fn pauli_rot2_lowering_is_exact_up_to_phase() {
        for pa in Pauli::XYZ {
            for pb in Pauli::XYZ {
                let mut c = Circuit::new(2);
                c.push(Gate::PauliRot2 {
                    a: 0,
                    b: 1,
                    pa,
                    pb,
                    theta: 0.731,
                });
                let hi = circuit_unitary(&c);
                let lo = circuit_unitary(&c.lower_to_cnot());
                assert!(
                    (hi.unitary_overlap(&lo) - 1.0).abs() < 1e-12,
                    "rot {pa}{pb}"
                );
            }
        }
    }

    #[test]
    fn swap_lowering_is_exact() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 1));
        let hi = circuit_unitary(&c);
        let lo = circuit_unitary(&c.lower_to_cnot());
        assert!(hi.approx_eq(&lo, 1e-12));
    }

    #[test]
    fn gate_order_convention_2q_on_nonadjacent_qubits() {
        // CNOT(2, 0) inside a 3-qubit register: control qubit 2, target 0.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(2, 0));
        let s = State::basis(3, 0b100).evolved(&c);
        assert!((s.probability(0b101) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn su4_block_simulates_like_its_contents() {
        let inner = vec![Gate::H(1), Gate::Cnot(1, 2), Gate::Rz(2, 0.4)];
        let mut flat = Circuit::new(3);
        for g in &inner {
            flat.push(g.clone());
        }
        let mut fused = Circuit::new(3);
        fused.push(Gate::Su4(Box::new(phoenix_circuit::Su4Block {
            a: 1,
            b: 2,
            inner,
        })));
        let u1 = circuit_unitary(&flat);
        let u2 = circuit_unitary(&fused);
        assert!(u1.approx_eq(&u2, 1e-12));
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = State::basis(2, 0);
        let b = State::basis(2, 3);
        assert!(a.fidelity(&b) < 1e-15);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn circuit_unitaries_are_unitary() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::PauliRot2 {
            a: 0,
            b: 2,
            pa: Pauli::Y,
            pb: Pauli::X,
            theta: 1.1,
        });
        c.push(Gate::Cnot(1, 2));
        assert!(circuit_unitary(&c).is_unitary(1e-12));
    }
}
