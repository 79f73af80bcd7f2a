//! KAK (Cartan) decomposition of arbitrary two-qubit unitaries.
//!
//! Every `U ∈ U(4)` factors as
//!
//! ```text
//! U = e^{iφ} · (A₁ ⊗ A₀) · exp(i(a·XX + b·YY + c·ZZ)) · (B₁ ⊗ B₀)
//! ```
//!
//! with single-qubit `A/B` and canonical coordinates `(a, b, c)`. Together
//! with [`weyl`](crate::weyl) this turns any fused [`Su4Block`] back into
//! explicit local gates plus at most three two-qubit Pauli rotations —
//! the re-synthesis path for the SU(4) ISA.
//!
//! The construction follows the magic-basis route: `V = M†UM`, the Gram
//! matrix `W = VᵀV` is simultaneously diagonalized over the reals,
//! `P = Q·√D·Qᵀ` is its symmetric square root, and `K = V·P⁻¹` is real
//! orthogonal; mapping `K·Q` and `Qᵀ` back through `M` yields the local
//! factors. Everything is verified by reconstruction in the tests.

use crate::circuit::lower_gate;
use crate::unitary::{self, Spectrum, MAGIC, MAGIC_DAGGER};
use crate::{Circuit, Gate, Su4Block};
use phoenix_mathkit::{matmul4, CMatrix, Complex};
use phoenix_pauli::Pauli;
use std::f64::consts::FRAC_PI_2;

/// The result of a KAK decomposition (little-endian qubit convention:
/// index 0 is the basis LSB, matching [`Gate::matrix2`]).
#[derive(Debug, Clone)]
pub struct KakDecomposition {
    /// Global phase `φ`.
    pub global_phase: f64,
    /// Left local gate on qubit 0 (applied after the canonical gate).
    pub a0: CMatrix,
    /// Left local gate on qubit 1.
    pub a1: CMatrix,
    /// Canonical coordinates `(a, b, c)` of `exp(i(aXX + bYY + cZZ))`.
    pub coords: [f64; 3],
    /// Right local gate on qubit 0 (applied before the canonical gate).
    pub b0: CMatrix,
    /// Right local gate on qubit 1.
    pub b1: CMatrix,
}

/// Decomposes a 4×4 unitary.
///
/// # Panics
///
/// Panics if `u` is not a 4×4 unitary.
pub fn kak_decompose(u: &CMatrix) -> KakDecomposition {
    let spectrum = unitary::spectrum(&unitary::read(u));
    let (coords, shifts) = canonical_coords(&spectrum.theta);
    local_factors(&spectrum, coords, shifts)
}

/// The canonical coordinates of a spectrum, and the multiple of π/2 each
/// was shifted by.
///
/// The canonical factor is `M·diag(e^{iθ})·M†`, whose Hermitian generator
/// `G = M·diag(θ)·M†` lies in span{XX, YY, ZZ} (diagonal matrices in the
/// magic basis are exactly the Cartan subalgebra; the tracelessness
/// `Σθ = 0` removes the identity part). Each coordinate is then shifted
/// into (−π/4, π/4]; [`local_factors`] absorbs the shifts.
fn canonical_coords(theta: &[f64; 4]) -> ([f64; 3], [i64; 3]) {
    let mut gen_diag = [Complex::ZERO; 16];
    for (i, &t) in theta.iter().enumerate() {
        gen_diag[i * 5] = Complex::from_re(t);
    }
    let g = matmul4(&matmul4(&MAGIC, &gen_diag), &MAGIC_DAGGER);
    let mut coords = [0.0; 3];
    let mut shifts = [0; 3];
    for (k, p) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().enumerate() {
        let pp = unitary::kron2(&unitary::pauli(p), &unitary::pauli(p));
        let mut tr = Complex::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                tr += g[i * 4 + j] * pp[j * 4 + i];
            }
        }
        coords[k] = tr.re / 4.0;
        shifts[k] = (coords[k] / FRAC_PI_2).round() as i64;
        if shifts[k] != 0 {
            coords[k] -= shifts[k] as f64 * FRAC_PI_2;
        }
    }
    (coords, shifts)
}

/// Completes a decomposition from its spectrum and canonical coordinates:
/// the local factors, and the global phase.
fn local_factors(spectrum: &Spectrum, coords: [f64; 3], shifts: [i64; 3]) -> KakDecomposition {
    let Spectrum { phase, v, q, theta } = spectrum;
    // Q real orthogonal with det +1 (flip one column if needed).
    let mut q_arr = [Complex::ZERO; 16];
    for (j, col) in q.iter().enumerate() {
        for (i, &x) in col.iter().enumerate() {
            q_arr[i * 4 + j] = Complex::from_re(x);
        }
    }
    if unitary::det4(&q_arr).re < 0.0 {
        for i in 0..4 {
            q_arr[i * 4] = -q_arr[i * 4];
        }
    }
    let q = unitary::to_cmatrix(4, &q_arr);
    let q_t = CMatrix::from_fn(4, 4, |i, j| q[(j, i)]);
    let m = unitary::to_cmatrix(4, &MAGIC);
    let m_dagger = unitary::to_cmatrix(4, &MAGIC_DAGGER);

    // P⁻¹ = Q · diag(e^{-iθ}) · Qᵀ; K = V · P⁻¹ is real orthogonal det +1.
    let dsqrt_inv = CMatrix::from_fn(4, 4, |i, j| {
        if i == j {
            Complex::cis(-theta[i])
        } else {
            Complex::ZERO
        }
    });
    let p_inv = q.matmul(&dsqrt_inv).matmul(&q_t);
    let k = unitary::to_cmatrix(4, v).matmul(&p_inv);

    // Local factors in the computational basis.
    let left = m.matmul(&k).matmul(&q).matmul(&m_dagger);
    let right = m.matmul(&q_t).matmul(&m_dagger);
    let (mut a1, mut a0, lphase) = kron_factor(&left);
    let (b1, b0, rphase) = kron_factor(&right);

    // A π/2 shift of a coordinate multiplies the canonical gate by the
    // *local* i·P⊗P, absorbed into the left factors and the global phase.
    let mut global_phase = phase + lphase + rphase;
    for (shift, p) in shifts.into_iter().zip([Pauli::X, Pauli::Y, Pauli::Z]) {
        if shift != 0 {
            global_phase += shift as f64 * FRAC_PI_2;
            // exp(i·m·π/2·PP) = i^m · (P⊗P)^{m mod 2}: the i^m went into the
            // phase above; an odd shift leaves one P on each wire.
            if shift.rem_euclid(2) == 1 {
                a0 = a0.matmul(&p.to_matrix());
                a1 = a1.matmul(&p.to_matrix());
            }
        }
    }

    KakDecomposition {
        global_phase,
        a0,
        a1,
        coords,
        b0,
        b1,
    }
}

/// Whether [`KakDecomposition::to_circuit`] emits a rotation for a
/// canonical coordinate.
fn needs_rotation(coord: f64) -> bool {
    coord.abs() > 1e-12
}

impl KakDecomposition {
    /// Rebuilds the 4×4 matrix — the reconstruction identity used by the
    /// tests: `to_matrix()` must equal the input.
    pub fn to_matrix(&self) -> CMatrix {
        let canon = canonical_matrix(self.coords);
        let left = self.a1.kron(&self.a0);
        let right = self.b1.kron(&self.b0);
        left.matmul(&canon)
            .matmul(&right)
            .scale(Complex::cis(self.global_phase))
    }

    /// Emits an equivalent circuit on qubits `(q0, q1)`: right locals, at
    /// most three 2Q Pauli rotations, left locals. Zero coordinates skip
    /// their rotation, so e.g. a `c₃ = 0` class costs two 2Q gates.
    ///
    /// # Panics
    ///
    /// Panics if `q0 == q1`.
    pub fn to_circuit(&self, q0: usize, q1: usize) -> Circuit {
        assert_ne!(q0, q1, "need two distinct qubits");
        let n = q0.max(q1) + 1;
        let mut c = Circuit::new(n);
        append_1q(&mut c, q0, &self.b0);
        append_1q(&mut c, q1, &self.b1);
        for (coord, p) in self.coords.iter().zip([Pauli::X, Pauli::Y, Pauli::Z]) {
            if needs_rotation(*coord) {
                c.push(Gate::PauliRot2 {
                    a: q0,
                    b: q1,
                    pa: p,
                    pb: p,
                    theta: -2.0 * coord,
                });
            }
        }
        append_1q(&mut c, q0, &self.a0);
        append_1q(&mut c, q1, &self.a1);
        c
    }
}

/// KAK-resynthesizes every fused SU(4) block of a circuit: blocks whose
/// canonical form needs fewer CNOTs than their fused contents are replaced
/// by locals + at most three same-pair Pauli rotations (re-fused into a
/// block). Other gates pass through untouched. The decision reads only a
/// block's canonical coordinates, so the local factors are computed only
/// for the blocks it replaces.
///
/// This is the optimization pass that turns the SU(4) ISA's analysis
/// ([`weyl`](crate::weyl)) into gate-count wins when lowering back to the
/// CNOT ISA.
///
/// # Examples
///
/// ```
/// use phoenix_circuit::{kak, rebase, Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// for _ in 0..6 {
///     c.push(Gate::Cnot(0, 1));
///     c.push(Gate::Rz(1, 0.3));
/// }
/// let fused = rebase::to_su4(&c);
/// let resynth = kak::resynthesize(&fused);
/// // 6 CNOTs collapse to the block's canonical ≤3 rotations.
/// assert!(resynth.lower_to_cnot().counts().cnot <= c.lower_to_cnot().counts().cnot);
/// ```
pub fn resynthesize(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for g in circuit.gates() {
        let Gate::Su4(blk) = g else {
            out.push(g.clone());
            continue;
        };
        // Decide from the canonical coordinates before decomposing: each
        // coordinate `to_circuit` keeps becomes one `PauliRot2`, which
        // lowers to 2 CNOTs, and the local factors cost none.
        let spectrum = unitary::spectrum(&unitary::block_unitary(blk));
        let (coords, shifts) = canonical_coords(&spectrum.theta);
        let new_cost = 2 * coords.iter().filter(|&&c| needs_rotation(c)).count();
        let mut old_cost = 0;
        for inner in &blk.inner {
            lower_gate(inner, &mut |lg| {
                old_cost += usize::from(matches!(lg, Gate::Cnot(..)));
            });
        }
        if new_cost < old_cost {
            let local = local_factors(&spectrum, coords, shifts).to_circuit(0, 1);
            let inner = local
                .gates()
                .iter()
                .map(|lg| lg.map_qubits(&mut |q| if q == 0 { blk.a } else { blk.b }))
                .collect();
            out.push(Gate::Su4(Box::new(Su4Block {
                a: blk.a,
                b: blk.b,
                inner,
            })));
        } else {
            out.push(g.clone());
        }
    }
    out
}

/// `exp(i(aXX + bYY + cZZ))` as a matrix (the three factors commute).
fn canonical_matrix(coords: [f64; 3]) -> CMatrix {
    let mut out = CMatrix::identity(4);
    for (coord, p) in coords.iter().zip([Pauli::X, Pauli::Y, Pauli::Z]) {
        let pp = p.to_matrix().kron(&p.to_matrix());
        let term = &CMatrix::identity(4).scale(Complex::from_re(coord.cos()))
            + &pp.scale(Complex::new(0.0, coord.sin()));
        out = term.matmul(&out);
    }
    out
}

/// Appends a 2×2 unitary as ZYZ Euler rotations (global phase dropped).
fn append_1q(c: &mut Circuit, q: usize, u: &CMatrix) {
    let (phi, theta, lam) = zyz_angles(u);
    for gate in [Gate::Rz(q, lam), Gate::Ry(q, theta), Gate::Rz(q, phi)] {
        let skip = matches!(gate, Gate::Rz(_, t) | Gate::Ry(_, t) if t.abs() < 1e-12);
        if !skip {
            c.push(gate);
        }
    }
}

/// ZYZ Euler angles of a 2×2 unitary: `U ∝ Rz(φ)·Ry(θ)·Rz(λ)`, i.e. up to
/// phase `U = [[cos(θ/2), −e^{iλ}sin(θ/2)], [e^{iφ}sin(θ/2),
/// e^{i(φ+λ)}cos(θ/2)]]`.
fn zyz_angles(u: &CMatrix) -> (f64, f64, f64) {
    let arg = |z: Complex| z.im.atan2(z.re);
    let theta = 2.0 * u[(1, 0)].abs().atan2(u[(0, 0)].abs());
    if u[(0, 0)].abs() < 1e-9 {
        // θ = π: only φ − λ is defined.
        (arg(u[(1, 0)] * (-u[(0, 1)]).conj()), theta, 0.0)
    } else if u[(1, 0)].abs() < 1e-9 {
        // θ = 0: only φ + λ is defined.
        (arg(u[(1, 1)] * u[(0, 0)].conj()), theta, 0.0)
    } else {
        let phi = arg(u[(1, 0)] * u[(0, 0)].conj());
        let lam = arg(-u[(0, 1)] * u[(0, 0)].conj());
        (phi, theta, lam)
    }
}

/// Splits a (phase × local) 4×4 unitary into `(high, low, phase)` with
/// `input = e^{iφ}·high ⊗ low` and both factors special-unitarized.
fn kron_factor(u: &CMatrix) -> (CMatrix, CMatrix, f64) {
    // Blocks: u[(2r+i, 2s+j)] = high[r,s] · low[i,j].
    // Pick the block with the largest norm as a low-representative.
    let block = |r: usize, s: usize| CMatrix::from_fn(2, 2, |i, j| u[(2 * r + i, 2 * s + j)]);
    let (mut br, mut bs, mut best) = (0, 0, -1.0);
    for r in 0..2 {
        for s in 0..2 {
            let nrm = block(r, s).norm_fro();
            if nrm > best {
                best = nrm;
                br = r;
                bs = s;
            }
        }
    }
    let low_raw = block(br, bs);
    // Normalize low to unit determinant.
    let det = low_raw[(0, 0)] * low_raw[(1, 1)] - low_raw[(0, 1)] * low_raw[(1, 0)];
    let det_arg = det.im.atan2(det.re);
    let det_mag = det.abs().sqrt();
    let low = low_raw.scale(Complex::cis(-det_arg / 2.0).scale(1.0 / det_mag));
    // high[r,s] = tr(block(r,s)·low†)/2.
    let mut high = CMatrix::zeros(2, 2);
    for r in 0..2 {
        for s in 0..2 {
            let b = block(r, s);
            let mut tr = Complex::ZERO;
            for i in 0..2 {
                for j in 0..2 {
                    tr += b[(i, j)] * low[(i, j)].conj();
                }
            }
            high[(r, s)] = tr.scale(0.5);
        }
    }
    // Remaining phase: make high special-unitary too.
    let deth = high[(0, 0)] * high[(1, 1)] - high[(0, 1)] * high[(1, 0)];
    let ph = deth.im.atan2(deth.re) / 2.0;
    let high = high.scale(Complex::cis(-ph));
    (high, low, ph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_mathkit::Xoshiro256;

    fn unitary_of(gates: Vec<Gate>) -> CMatrix {
        Gate::Su4(Box::new(Su4Block {
            a: 0,
            b: 1,
            inner: gates,
        }))
        .matrix2()
        .unwrap()
    }

    fn random_circuit_unitary(rng: &mut Xoshiro256, depth: usize) -> CMatrix {
        let mut gates = Vec::new();
        for _ in 0..depth {
            match rng.next_below(5) {
                0 => gates.push(Gate::Rz(rng.next_below(2), rng.next_range_f64(-3.0, 3.0))),
                1 => gates.push(Gate::Ry(rng.next_below(2), rng.next_range_f64(-3.0, 3.0))),
                2 => gates.push(Gate::Cnot(0, 1)),
                3 => gates.push(Gate::Cnot(1, 0)),
                _ => gates.push(Gate::H(rng.next_below(2))),
            }
        }
        unitary_of(gates)
    }

    fn assert_reconstructs(u: &CMatrix, label: &str) {
        let kak = kak_decompose(u);
        let rebuilt = kak.to_matrix();
        assert!(
            rebuilt.approx_eq(u, 1e-8),
            "{label}: reconstruction failed\ncoords {:?}",
            kak.coords
        );
        // Local factors are 2×2 unitaries.
        for m in [&kak.a0, &kak.a1, &kak.b0, &kak.b1] {
            assert!(m.is_unitary(1e-9), "{label}: non-unitary local factor");
        }
    }

    #[test]
    fn reconstructs_identity_and_cnot() {
        assert_reconstructs(&CMatrix::identity(4), "identity");
        assert_reconstructs(&Gate::Cnot(0, 1).matrix2().unwrap(), "cnot");
        assert_reconstructs(&Gate::Swap(0, 1).matrix2().unwrap(), "swap");
    }

    #[test]
    fn reconstructs_random_unitaries() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        for trial in 0..25 {
            let u = random_circuit_unitary(&mut rng, 12);
            assert_reconstructs(&u, &format!("random {trial}"));
        }
    }

    #[test]
    fn coordinates_match_weyl_analysis() {
        use crate::weyl;
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10 {
            let u = random_circuit_unitary(&mut rng, 10);
            let kak = kak_decompose(&u);
            // The canonical part carries the same entangling class as the
            // input (same Weyl point up to the chamber symmetries, so we
            // compare sorted magnitudes and the CNOT cost).
            let canon = canonical_matrix(kak.coords);
            let sorted_abs = |w: [f64; 3]| {
                let mut v = w.map(f64::abs);
                v.sort_by(f64::total_cmp);
                v
            };
            let w1 = sorted_abs(weyl::weyl_coordinates(&canon));
            let w2 = sorted_abs(weyl::weyl_coordinates(&u));
            for (a, b) in w1.iter().zip(&w2) {
                assert!((a - b).abs() < 1e-7, "{w1:?} vs {w2:?}");
            }
            assert_eq!(weyl::cnot_cost(&canon), weyl::cnot_cost(&u));
        }
    }

    #[test]
    fn to_circuit_emits_at_most_three_2q_gates() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let u = random_circuit_unitary(&mut rng, 14);
        let kak = kak_decompose(&u);
        let c = kak.to_circuit(0, 1);
        assert!(c.counts().pauli_rot2 <= 3);
        // The circuit's unitary matches up to global phase.
        let rebuilt = unitary_of(c.into_gates());
        assert!(
            (rebuilt.unitary_overlap(&u) - 1.0).abs() < 1e-8,
            "circuit deviates"
        );
    }

    #[test]
    fn local_unitaries_need_no_2q_gates() {
        let u = unitary_of(vec![Gate::Ry(0, 0.7), Gate::Rz(1, -0.3), Gate::H(0)]);
        let kak = kak_decompose(&u);
        for c in kak.coords {
            assert!(c.abs() < 1e-8, "{:?}", kak.coords);
        }
        let circ = kak.to_circuit(0, 1);
        assert_eq!(circ.counts().two_qubit(), 0);
        let rebuilt = unitary_of(circ.into_gates());
        assert!((rebuilt.unitary_overlap(&u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zyz_angles_cover_edge_cases() {
        // Diagonal, anti-diagonal, and generic matrices all round-trip.
        let cases = vec![
            CMatrix::identity(2),
            Gate::X(0).matrix1().unwrap(),
            Gate::Rz(0, 1.3).matrix1().unwrap(),
            Gate::Ry(0, 2.1).matrix1().unwrap(),
            Gate::H(0).matrix1().unwrap(),
        ];
        for u in cases {
            let (phi, theta, lam) = zyz_angles(&u);
            let rz = |t: f64| Gate::Rz(0, t).matrix1().unwrap();
            let ry = |t: f64| Gate::Ry(0, t).matrix1().unwrap();
            let rebuilt = rz(phi).matmul(&ry(theta)).matmul(&rz(lam));
            assert!(
                (rebuilt.unitary_overlap(&u) - 1.0).abs() < 1e-9,
                "zyz failed"
            );
        }
    }
}
