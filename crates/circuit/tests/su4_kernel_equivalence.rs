//! Differential test: the stack-allocated two-qubit kernel behind
//! `Gate::matrix1`/`matrix2`, `kak` and `weyl` against test-only copies of
//! the heap-allocated `CMatrix` and `Vec<Vec<f64>>` code it replaced. Every
//! unitary entry, Jacobi output, coordinate, phase and local factor must
//! agree bit for bit, and `kak::resynthesize` — which now decides each
//! block from its canonical coordinates before decomposing it — must emit
//! the same circuit.
//!
//! Run more cases with `PROPTEST_CASES=1024 cargo test --release -p
//! phoenix-circuit --test su4_kernel_equivalence`.

use phoenix_circuit::kak::{self, KakDecomposition};
use phoenix_circuit::{rebase, weyl, Circuit, Gate, Su4Block};
use phoenix_mathkit::{CMatrix, Complex, Xoshiro256};
use phoenix_pauli::{Clifford2Q, Pauli, CLIFFORD2Q_GENERATORS};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// The `CMatrix` implementations the kernel replaced.
mod parent {
    use phoenix_circuit::kak::KakDecomposition;
    use phoenix_circuit::{Circuit, Gate, Su4Block};
    use phoenix_mathkit::{CMatrix, Complex};
    use phoenix_pauli::Pauli;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    pub fn matrix1(g: &Gate) -> Option<CMatrix> {
        let o = Complex::ZERO;
        let l = Complex::ONE;
        let i = Complex::I;
        let h = 0.5f64.sqrt();
        Some(match *g {
            Gate::H(_) => CMatrix::from_rows(&[
                &[Complex::from_re(h), Complex::from_re(h)],
                &[Complex::from_re(h), Complex::from_re(-h)],
            ]),
            Gate::S(_) => CMatrix::from_rows(&[&[l, o], &[o, i]]),
            Gate::Sdg(_) => CMatrix::from_rows(&[&[l, o], &[o, -i]]),
            Gate::X(_) => Pauli::X.to_matrix(),
            Gate::Y(_) => Pauli::Y.to_matrix(),
            Gate::Z(_) => Pauli::Z.to_matrix(),
            Gate::Rx(_, t) => rot_matrix(Pauli::X, t),
            Gate::Ry(_, t) => rot_matrix(Pauli::Y, t),
            Gate::Rz(_, t) => rot_matrix(Pauli::Z, t),
            _ => return None,
        })
    }

    pub fn matrix2(g: &Gate) -> Option<CMatrix> {
        let o = Complex::ZERO;
        let l = Complex::ONE;
        Some(match g {
            Gate::Cnot(..) => phoenix_pauli::Clifford2QKind::Czx.matrix4(),
            Gate::Swap(..) => {
                CMatrix::from_rows(&[&[l, o, o, o], &[o, o, l, o], &[o, l, o, o], &[o, o, o, l]])
            }
            Gate::Clifford2(c) => c.kind.matrix4(),
            Gate::PauliRot2 { pa, pb, theta, .. } => {
                let p = pb.to_matrix().kron(&pa.to_matrix());
                let half = *theta / 2.0;
                &CMatrix::identity(4).scale(Complex::from_re(half.cos()))
                    + &p.scale(Complex::new(0.0, -half.sin()))
            }
            Gate::Su4(blk) => {
                let mut u = CMatrix::identity(4);
                let local = |q: usize| usize::from(q == blk.b);
                for g in &blk.inner {
                    let gm = embed_local(g, blk.a, blk.b, &local);
                    u = gm.matmul(&u);
                }
                u
            }
            _ => return None,
        })
    }

    fn rot_matrix(p: Pauli, theta: f64) -> CMatrix {
        let half = theta / 2.0;
        &CMatrix::identity(2).scale(Complex::from_re(half.cos()))
            + &p.to_matrix().scale(Complex::new(0.0, -half.sin()))
    }

    fn embed_local(g: &Gate, a: usize, b: usize, local: &impl Fn(usize) -> usize) -> CMatrix {
        if let Some(m1) = matrix1(g) {
            let (q, _) = g.qubits();
            assert!(q == a || q == b, "su4 inner gate leaves the block");
            if local(q) == 0 {
                CMatrix::identity(2).kron(&m1)
            } else {
                m1.kron(&CMatrix::identity(2))
            }
        } else {
            let m2 = matrix2(g).expect("gate is 1q or 2q");
            let (ga, gb) = g.qubits();
            let gb = gb.expect("2q gate");
            assert!(
                (ga == a || ga == b) && (gb == a || gb == b),
                "su4 inner gate leaves the block"
            );
            if local(ga) == 0 {
                m2
            } else {
                let swap = matrix2(&Gate::Swap(0, 1)).expect("swap is 2q");
                swap.matmul(&m2).matmul(&swap)
            }
        }
    }

    pub fn jacobi_symmetric(a: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = a.len();
        for row in a {
            assert_eq!(row.len(), n, "matrix must be square");
        }
        let mut m: Vec<Vec<f64>> = a.to_vec();
        let mut q = vec![vec![0.0; n]; n];
        for (i, row) in q.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for _sweep in 0..64 {
            let mut off = 0.0;
            for (p, row) in m.iter().enumerate() {
                for &v in &row[p + 1..] {
                    off += v * v;
                }
            }
            if off < 1e-28 {
                break;
            }
            for p in 0..n {
                for r in p + 1..n {
                    if m[p][r].abs() < 1e-18 {
                        continue;
                    }
                    let theta = (m[r][r] - m[p][p]) / (2.0 * m[p][r]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for row in m.iter_mut() {
                        let (mkp, mkr) = (row[p], row[r]);
                        row[p] = c * mkp - s * mkr;
                        row[r] = s * mkp + c * mkr;
                    }
                    let (head, tail) = m.split_at_mut(r);
                    for (mpk, mrk) in head[p].iter_mut().zip(tail[0].iter_mut()) {
                        let (vp, vr) = (*mpk, *mrk);
                        *mpk = c * vp - s * vr;
                        *mrk = s * vp + c * vr;
                    }
                    for row in q.iter_mut() {
                        let (qkp, qkr) = (row[p], row[r]);
                        row[p] = c * qkp - s * qkr;
                        row[r] = s * qkp + c * qkr;
                    }
                }
            }
        }
        let eigvals: Vec<f64> = (0..n).map(|i| m[i][i]).collect();
        let cols: Vec<Vec<f64>> = (0..n).map(|j| (0..n).map(|i| q[i][j]).collect()).collect();
        (eigvals, cols)
    }

    #[allow(clippy::type_complexity)]
    pub fn jacobi_simultaneous(
        a: &[Vec<f64>],
        b: &[Vec<f64>],
    ) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
        let n = a.len();
        assert_eq!(b.len(), n, "shapes must match");
        let (alpha, mut q) = jacobi_symmetric(a);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| alpha[i].total_cmp(&alpha[j]));
        let alpha: Vec<f64> = order.iter().map(|&i| alpha[i]).collect();
        q = order.iter().map(|&i| q[i].clone()).collect();

        let bq = |col: &[f64]| -> Vec<f64> {
            (0..n)
                .map(|i| (0..n).map(|j| b[i][j] * col[j]).sum())
                .collect()
        };
        let mut bprime = vec![vec![0.0; n]; n];
        for (cj, qj) in q.iter().enumerate() {
            let bv = bq(qj);
            for (ci, qi) in q.iter().enumerate() {
                bprime[ci][cj] = qi.iter().zip(&bv).map(|(x, y)| x * y).sum();
            }
        }
        let mut beta = vec![0.0; n];
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && (alpha[end] - alpha[start]).abs() < 1e-9 {
                end += 1;
            }
            let k = end - start;
            if k == 1 {
                beta[start] = bprime[start][start];
            } else {
                let sub: Vec<Vec<f64>> = (start..end)
                    .map(|i| (start..end).map(|j| bprime[i][j]).collect())
                    .collect();
                let (lam, vecs) = jacobi_symmetric(&sub);
                let old: Vec<Vec<f64>> = q[start..end].to_vec();
                for (local, lam_l) in lam.iter().enumerate() {
                    beta[start + local] = *lam_l;
                    for i in 0..n {
                        q[start + local][i] = (0..k).map(|m| old[m][i] * vecs[local][m]).sum();
                    }
                }
            }
            start = end;
        }
        (alpha, beta, q)
    }

    fn magic_basis() -> CMatrix {
        let h = Complex::from_re(std::f64::consts::FRAC_1_SQRT_2);
        let ih = Complex::new(0.0, std::f64::consts::FRAC_1_SQRT_2);
        let o = Complex::ZERO;
        CMatrix::from_rows(&[
            &[h, o, o, ih],
            &[o, ih, h, o],
            &[o, ih, -h, o],
            &[h, o, o, -ih],
        ])
    }

    fn det4(u: &CMatrix) -> Complex {
        let minor = |r: usize, c: usize| -> Complex {
            let rows: Vec<usize> = (0..4).filter(|&i| i != r).collect();
            let cols: Vec<usize> = (0..4).filter(|&j| j != c).collect();
            let m = |i: usize, j: usize| u[(rows[i], cols[j])];
            m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1))
                - m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0))
                + m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0))
        };
        let mut det = Complex::ZERO;
        for c in 0..4 {
            let sign = if c % 2 == 0 {
                Complex::ONE
            } else {
                -Complex::ONE
            };
            det += sign * u[(0, c)] * minor(0, c);
        }
        det
    }

    fn transpose(m: &CMatrix) -> CMatrix {
        CMatrix::from_fn(m.cols(), m.rows(), |i, j| m[(j, i)])
    }

    /// `kak_decompose`'s `V = M†·SU·M` and the real and imaginary parts
    /// of `W = VᵀV`, with the SU(4) phase.
    pub fn gram(u: &CMatrix) -> (f64, CMatrix, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        assert_eq!(u.rows(), 4, "expected a 4×4 unitary");
        assert!(u.is_unitary(1e-9), "matrix must be unitary");
        let det = det4(u);
        let phase = det.im.atan2(det.re) / 4.0;
        let su = u.scale(Complex::cis(-phase));
        let m = magic_basis();
        let v = m.dagger().matmul(&su).matmul(&m);
        let mut w = CMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = Complex::ZERO;
                for k in 0..4 {
                    acc += v[(k, i)] * v[(k, j)];
                }
                w[(i, j)] = acc;
            }
        }
        let re = (0..4)
            .map(|i| (0..4).map(|j| w[(i, j)].re).collect())
            .collect();
        let im = (0..4)
            .map(|i| (0..4).map(|j| w[(i, j)].im).collect())
            .collect();
        (phase, v, re, im)
    }

    /// Eigenphases of `√W` with `Σθ = 0`.
    pub fn theta(alpha: &[f64], beta: &[f64]) -> Vec<f64> {
        let mut theta: Vec<f64> = alpha
            .iter()
            .zip(beta)
            .map(|(&a, &b)| b.atan2(a) / 2.0)
            .collect();
        let sigma: f64 = theta.iter().sum();
        theta[3] -= sigma;
        theta
    }

    pub fn kak_decompose(u: &CMatrix) -> KakDecomposition {
        let (phase, v, re, im) = gram(u);
        let m = magic_basis();
        let (alpha, beta, q_cols) = jacobi_simultaneous(&re, &im);
        let theta = theta(&alpha, &beta);

        let mut q = CMatrix::zeros(4, 4);
        for (j, col) in q_cols.iter().enumerate() {
            for i in 0..4 {
                q[(i, j)] = Complex::from_re(col[i]);
            }
        }
        if det4(&q).re < 0.0 {
            for i in 0..4 {
                q[(i, 0)] = -q[(i, 0)];
            }
        }
        let dsqrt_inv = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                Complex::cis(-theta[i])
            } else {
                Complex::ZERO
            }
        });
        let p_inv = q.matmul(&dsqrt_inv).matmul(&transpose(&q));
        let k = v.matmul(&p_inv);
        let left = m.matmul(&k).matmul(&q).matmul(&m.dagger());
        let right = m.matmul(&transpose(&q)).matmul(&m.dagger());
        let (a1, a0, lphase) = kron_factor(&left);
        let (b1, b0, rphase) = kron_factor(&right);

        let gen_diag = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                Complex::from_re(theta[i])
            } else {
                Complex::ZERO
            }
        });
        let g = m.matmul(&gen_diag).matmul(&m.dagger());
        let coeff = |pa: Pauli, pb: Pauli| -> f64 {
            let pp = pb.to_matrix().kron(&pa.to_matrix());
            let mut tr = Complex::ZERO;
            for i in 0..4 {
                for j in 0..4 {
                    tr += g[(i, j)] * pp[(j, i)];
                }
            }
            tr.re / 4.0
        };
        let mut coords = [
            coeff(Pauli::X, Pauli::X),
            coeff(Pauli::Y, Pauli::Y),
            coeff(Pauli::Z, Pauli::Z),
        ];
        let mut a0 = a0;
        let mut a1 = a1;
        let mut global_phase = phase + lphase + rphase;
        for (k, p) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().enumerate() {
            let m_shift = (coords[k] / FRAC_PI_2).round() as i64;
            if m_shift != 0 {
                coords[k] -= m_shift as f64 * FRAC_PI_2;
                global_phase += m_shift as f64 * FRAC_PI_2;
                if m_shift.rem_euclid(2) == 1 {
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

    fn kron_factor(u: &CMatrix) -> (CMatrix, CMatrix, f64) {
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
        let det = low_raw[(0, 0)] * low_raw[(1, 1)] - low_raw[(0, 1)] * low_raw[(1, 0)];
        let det_arg = det.im.atan2(det.re);
        let det_mag = det.abs().sqrt();
        let low = low_raw.scale(Complex::cis(-det_arg / 2.0).scale(1.0 / det_mag));
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
        let deth = high[(0, 0)] * high[(1, 1)] - high[(0, 1)] * high[(1, 0)];
        let ph = deth.im.atan2(deth.re) / 2.0;
        let high = high.scale(Complex::cis(-ph));
        (high, low, ph)
    }

    const TOL: f64 = 1e-9;

    pub fn weyl_coordinates(u: &CMatrix) -> [f64; 3] {
        let (_, _, re, im) = gram(u);
        let (alpha, beta, _) = jacobi_simultaneous(&re, &im);
        let theta = theta(&alpha, &beta);
        canonicalize([
            (theta[0] + theta[1]) / 2.0,
            (theta[0] + theta[2]) / 2.0,
            (theta[0] + theta[3]) / 2.0,
        ])
    }

    fn canonicalize(mut c: [f64; 3]) -> [f64; 3] {
        for _ in 0..16 {
            for x in c.iter_mut() {
                *x = x.rem_euclid(FRAC_PI_2);
                if *x > FRAC_PI_2 - TOL {
                    *x = 0.0;
                }
            }
            c.sort_by(|a, b| b.total_cmp(a));
            if c[0] > FRAC_PI_4 + TOL {
                c[0] = FRAC_PI_2 - c[0];
                c[2] = -c[2];
                continue;
            }
            break;
        }
        if c[2] < 0.0 && (c[0] - FRAC_PI_4).abs() < TOL {
            c[2] = -c[2];
            c.sort_by(|a, b| b.total_cmp(a));
        }
        for x in c.iter_mut() {
            if x.abs() < TOL {
                *x = 0.0;
            }
        }
        c
    }

    pub fn cnot_cost(u: &CMatrix) -> usize {
        let c = weyl_coordinates(u);
        if c[0].abs() < TOL {
            0
        } else if (c[0] - FRAC_PI_4).abs() < TOL && c[1].abs() < TOL && c[2].abs() < TOL {
            1
        } else if c[2].abs() < TOL {
            2
        } else {
            3
        }
    }

    /// Decomposes every block, then keeps the decomposition only where it
    /// lowers to fewer CNOTs.
    pub fn resynthesize(circuit: &Circuit) -> Circuit {
        let mut out = Circuit::new(circuit.num_qubits());
        for g in circuit.gates() {
            match g {
                Gate::Su4(blk) => {
                    let u = matrix2(g).expect("su4 is 2q");
                    let kak = kak_decompose(&u);
                    let local = kak.to_circuit(0, 1);
                    let mapped: Vec<Gate> = local
                        .gates()
                        .iter()
                        .map(|lg| lg.map_qubits(&mut |q| if q == 0 { blk.a } else { blk.b }))
                        .collect();
                    let local_inner: Vec<Gate> = blk
                        .inner
                        .iter()
                        .map(|ig| ig.map_qubits(&mut |q| usize::from(q == blk.b)))
                        .collect();
                    let old_cost = Circuit::from_gates(2, local_inner)
                        .lower_to_cnot()
                        .counts()
                        .cnot;
                    let new_cost = local.lower_to_cnot().counts().cnot;
                    if new_cost < old_cost {
                        out.push(Gate::Su4(Box::new(Su4Block {
                            a: blk.a,
                            b: blk.b,
                            inner: mapped,
                        })));
                    } else {
                        out.push(g.clone());
                    }
                }
                other => out.push(other.clone()),
            }
        }
        out
    }
}

/// A float's bits, with every NaN mapped to one pattern: Rust does not
/// pin NaN payloads, only which results are NaN.
fn fbits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Every entry's `(re, im)` bits, row-major.
fn bits(m: &CMatrix) -> Vec<[u64; 2]> {
    (0..m.rows())
        .flat_map(|i| (0..m.cols()).map(move |j| [fbits(m[(i, j)].re), fbits(m[(i, j)].im)]))
        .collect()
}

fn float_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|&x| fbits(x)).collect()
}

fn kak_bits(k: &KakDecomposition) -> (u64, Vec<u64>, [Vec<[u64; 2]>; 4]) {
    (
        k.global_phase.to_bits(),
        float_bits(&k.coords),
        [bits(&k.a0), bits(&k.a1), bits(&k.b0), bits(&k.b1)],
    )
}

/// Bit-exact rendering: `Debug` prints every `f64` in round-trip form and
/// tells `-0.0` from `0.0`.
fn exact(c: &Circuit) -> String {
    format!("{} {:?}", c.num_qubits(), c.gates())
}

fn array(m: &[Vec<f64>]) -> [[f64; 4]; 4] {
    std::array::from_fn(|i| std::array::from_fn(|j| m[i][j]))
}

/// The fixed-size Jacobi solvers against the `Vec` copies on the same
/// real symmetric pair, and the eigenphases derived from each.
fn check_jacobi(re: &[Vec<f64>], im: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let (wa, wb, wq) = parent::jacobi_simultaneous(re, im);
    let (ga, gb, gq) = phoenix_mathkit::jacobi_simultaneous(&array(re), &array(im));
    prop_assert_eq!(float_bits(&ga), float_bits(&wa));
    prop_assert_eq!(float_bits(&gb), float_bits(&wb));
    prop_assert_eq!(float_bits(&gq.concat()), float_bits(&wq.concat()));
    prop_assert_eq!(
        float_bits(&parent::theta(&ga, &gb)),
        float_bits(&parent::theta(&wa, &wb))
    );
    let (wl, wv) = parent::jacobi_symmetric(re);
    let (gl, gv) = phoenix_mathkit::jacobi_symmetric(&array(re));
    prop_assert_eq!(float_bits(&gl), float_bits(&wl));
    prop_assert_eq!(float_bits(&gv.concat()), float_bits(&wv.concat()));
    Ok(())
}

/// Every output of the kernel on one block against the parent's.
fn check_block(blk: &Su4Block) -> Result<(), TestCaseError> {
    for g in &blk.inner {
        let (got, want) = (g.matrix1(), parent::matrix1(g));
        prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{}", g);
        let (got, want) = (g.matrix2(), parent::matrix2(g));
        prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{}", g);
    }
    let gate = Gate::Su4(Box::new(blk.clone()));
    let u = parent::matrix2(&gate).expect("su4 is 2q");
    prop_assert_eq!(bits(&gate.matrix2().expect("su4 is 2q")), bits(&u));

    let (_, _, re, im) = parent::gram(&u);
    check_jacobi(&re, &im)?;

    let got = kak::kak_decompose(&u);
    let want = parent::kak_decompose(&u);
    prop_assert_eq!(kak_bits(&got), kak_bits(&want));
    prop_assert_eq!(
        float_bits(&weyl::weyl_coordinates(&u)),
        float_bits(&parent::weyl_coordinates(&u))
    );
    let cost = parent::cnot_cost(&u);
    prop_assert_eq!(weyl::cnot_cost(&u), cost);
    prop_assert_eq!(weyl::su4_block_cost(blk), cost);

    let n = blk.a.max(blk.b) + 1;
    let c = Circuit::from_gates(n, vec![Gate::H(blk.a), gate, Gate::Cnot(blk.b, blk.a)]);
    prop_assert_eq!(
        exact(&kak::resynthesize(&c)),
        exact(&parent::resynthesize(&c))
    );
    Ok(())
}

/// Angles that sit on the special values of the trigonometry and the
/// 1e-12 skip tests, or anywhere in (−7, 7).
fn angle(choice: usize, t: f64) -> f64 {
    const SPECIAL: [f64; 10] = [
        0.0, -0.0, PI, -PI, TAU, -TAU, 1e-13, -1e-13, FRAC_PI_2, -FRAC_PI_2,
    ];
    SPECIAL.get(choice).copied().unwrap_or(t)
}

/// One inner gate on the pair `(x, y)`: kinds 0–8 are the 1Q gates on `x`,
/// 9 CNOT, 10 SWAP, 11 a Clifford generator, 12–20 the nine `PauliRot2`
/// letter pairs and 21 a nested block.
fn inner_gate(kind: usize, x: usize, y: usize, choice: usize, t: f64, seed: u64) -> Gate {
    let theta = angle(choice, t);
    match kind {
        0 => Gate::H(x),
        1 => Gate::S(x),
        2 => Gate::Sdg(x),
        3 => Gate::X(x),
        4 => Gate::Y(x),
        5 => Gate::Z(x),
        6 => Gate::Rx(x, theta),
        7 => Gate::Ry(x, theta),
        8 => Gate::Rz(x, theta),
        9 => Gate::Cnot(x, y),
        10 => Gate::Swap(x, y),
        11 => Gate::Clifford2(Clifford2Q::new(CLIFFORD2Q_GENERATORS[choice % 6], x, y)),
        12..=20 => Gate::PauliRot2 {
            a: x,
            b: y,
            pa: Pauli::XYZ[(kind - 12) % 3],
            pb: Pauli::XYZ[(kind - 12) / 3],
            theta,
        },
        _ => {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let inner = (0..1 + rng.next_below(4))
                .map(|_| {
                    let (p, q) = if rng.next_below(2) == 0 {
                        (x, y)
                    } else {
                        (y, x)
                    };
                    let t = rng.next_range_f64(-7.0, 7.0);
                    inner_gate(rng.next_below(21), p, q, rng.next_below(16), t, 0)
                })
                .collect();
            Gate::Su4(Box::new(Su4Block { a: x, b: y, inner }))
        }
    }
}

/// Blocks of 1–40 inner gates on a pair in either order.
fn arb_block() -> impl Strategy<Value = Su4Block> {
    const PAIRS: [(usize, usize); 4] = [(0, 1), (1, 0), (2, 5), (5, 2)];
    (
        0usize..4,
        proptest::collection::vec(
            (
                0usize..22,
                any::<bool>(),
                0usize..20,
                -7.0f64..7.0,
                any::<u64>(),
            ),
            1..41,
        ),
    )
        .prop_map(|(pair, gates)| {
            let (a, b) = PAIRS[pair];
            let inner = gates
                .into_iter()
                .map(|(kind, flip, choice, t, seed)| {
                    let (x, y) = if flip { (b, a) } else { (a, b) };
                    inner_gate(kind, x, y, choice, t, seed)
                })
                .collect();
            Su4Block { a, b, inner }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn kernel_matches_parent_on_random_blocks(blk in arb_block()) {
        check_block(&blk)?;
    }

    /// The 4×4 product against `CMatrix::matmul` on entries that include
    /// signed zeros and infinities. Through the gate and unitary APIs a
    /// skipped zero left entry cannot show: the accumulator starts at +0,
    /// so a ±0 product never changes it, and gate matrices hold no
    /// infinities. Here `0·∞ = NaN` shows whether the product skips
    /// exactly the entries `matmul` skips.
    #[test]
    fn matmul4_matches_cmatrix_matmul(
        entries in proptest::collection::vec((0usize..6, -2.0f64..2.0), 64),
    ) {
        let pick = |k: usize| {
            let (c, x) = entries[k];
            [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, x, x][c]
        };
        let a: [Complex; 16] = std::array::from_fn(|k| Complex::new(pick(2 * k), pick(2 * k + 1)));
        let b: [Complex; 16] =
            std::array::from_fn(|k| Complex::new(pick(32 + 2 * k), pick(33 + 2 * k)));
        let dense = |m: &[Complex; 16]| CMatrix::from_fn(4, 4, |i, j| m[i * 4 + j]);
        prop_assert_eq!(
            bits(&dense(&phoenix_mathkit::matmul4(&a, &b))),
            bits(&dense(&a).matmul(&dense(&b)))
        );
    }

    /// Random real symmetric matrices, with repeated eigenvalues forced
    /// by equal diagonal entries, through both Jacobi solvers.
    #[test]
    fn jacobi_matches_parent(entries in proptest::collection::vec((0usize..4, -2.0f64..2.0), 20)) {
        let pick = |k: usize| {
            let (c, x) = entries[k];
            [0.0, -0.0, 0.5, x][c]
        };
        let mut a = vec![vec![0.0; 4]; 4];
        let mut b = vec![vec![0.0; 4]; 4];
        let mut k = 0;
        for i in 0..4 {
            for j in i..4 {
                a[i][j] = pick(k);
                a[j][i] = a[i][j];
                b[i][j] = pick(k + 10);
                b[j][i] = b[i][j];
                k += 1;
            }
        }
        check_jacobi(&a, &b)?;
    }
}

fn block(gates: Vec<Gate>) -> Su4Block {
    Su4Block {
        a: 0,
        b: 1,
        inner: gates,
    }
}

/// Edge paths: a local block, the CNOT and controlled-phase classes, and
/// the degenerate spectra of the identity and SWAP, whose Gram matrices
/// reach the Jacobi cluster refinement.
#[test]
fn kernel_matches_parent_on_edge_blocks() {
    let cp = |phi: f64| {
        vec![
            Gate::Rz(0, phi / 2.0),
            Gate::Rz(1, phi / 2.0),
            Gate::Cnot(0, 1),
            Gate::Rz(1, -phi / 2.0),
            Gate::Cnot(0, 1),
        ]
    };
    let cases = vec![
        block(vec![Gate::Cnot(0, 1), Gate::Rz(0, 0.7), Gate::Cnot(0, 1)]),
        block(vec![Gate::Cnot(0, 1)]),
        block(vec![
            Gate::H(0),
            Gate::Cnot(1, 0),
            Gate::S(1),
            Gate::Rx(0, 1.3),
        ]),
        block(cp(0.9)),
        block(cp(PI)),
        block(vec![]),
        block(vec![Gate::Rz(0, 0.0), Gate::Rz(1, -0.0)]),
        block(vec![Gate::Cnot(0, 1), Gate::Cnot(0, 1)]),
        block(vec![Gate::Swap(0, 1)]),
        block(vec![Gate::Cnot(0, 1), Gate::Cnot(1, 0), Gate::Cnot(0, 1)]),
        block(vec![Gate::Swap(1, 0), Gate::Rz(0, 0.4), Gate::Swap(0, 1)]),
    ];
    for blk in &cases {
        check_block(blk).unwrap_or_else(|e| panic!("{:?}: {e:?}", blk.inner));
    }
    // The cluster refinement must actually run on these spectra.
    for g in [Gate::Su4(Box::new(block(vec![]))), Gate::Swap(0, 1)] {
        let (_, _, re, im) = parent::gram(&parent::matrix2(&g).expect("2q"));
        let (alpha, _, _) = phoenix_mathkit::jacobi_simultaneous(&array(&re), &array(&im));
        assert!(
            alpha.windows(2).any(|w| (w[1] - w[0]).abs() < 1e-9),
            "{alpha:?}"
        );
    }
}

/// The constant matrices, bit for bit: CNOT, SWAP, the six Clifford
/// generators, the nine `P⊗P` products (through `PauliRot2` at θ = π,
/// where the identity part is `cos(π/2)`), and the 1Q Cliffords.
#[test]
fn constant_matrices_match_parent() {
    let mut gates = vec![
        Gate::Cnot(0, 1),
        Gate::Swap(0, 1),
        Gate::H(0),
        Gate::S(0),
        Gate::Sdg(0),
        Gate::X(0),
        Gate::Y(0),
        Gate::Z(0),
    ];
    for kind in CLIFFORD2Q_GENERATORS {
        gates.push(Gate::Clifford2(Clifford2Q::new(kind, 0, 1)));
    }
    for pa in Pauli::XYZ {
        for pb in Pauli::XYZ {
            gates.push(Gate::PauliRot2 {
                a: 0,
                b: 1,
                pa,
                pb,
                theta: PI,
            });
        }
    }
    for g in &gates {
        let got = g.matrix1().or_else(|| g.matrix2()).expect("gate matrix");
        let want = parent::matrix1(g)
            .or_else(|| parent::matrix2(g))
            .expect("gate matrix");
        assert_eq!(bits(&got), bits(&want), "{g}");
    }
}

/// A coordinate of exactly 1e-12 keeps no rotation, one ulp above it
/// does: the same test decides `resynthesize`'s CNOT count.
#[test]
fn rotation_threshold_is_strict() {
    let one = CMatrix::identity(2);
    let kak = KakDecomposition {
        global_phase: 0.0,
        a0: one.clone(),
        a1: one.clone(),
        coords: [1e-12, -1e-12, f64::from_bits(1e-12f64.to_bits() + 1)],
        b0: one.clone(),
        b1: one,
    };
    let c = kak.to_circuit(0, 1);
    assert_eq!(c.counts().pauli_rot2, 1, "{c}");
}

/// `resynthesize` panics, as before, on a block whose gates leave its
/// qubits.
#[test]
#[should_panic(expected = "su4 inner gate leaves the block")]
fn foreign_inner_gate_is_rejected() {
    let c = Circuit::from_gates(
        3,
        vec![Gate::Su4(Box::new(Su4Block {
            a: 0,
            b: 1,
            inner: vec![Gate::Cnot(0, 1), Gate::Rz(2, 0.3)],
        }))],
    );
    let _ = kak::resynthesize(&c);
}

/// The device-route corpus: the Table IV graphs of at most 16 qubits and
/// LiH/NH (frozen core, Jordan–Wigner) routed onto `line:16` at seed 7 —
/// the `{1Q, CNOT}` circuits `line:16@kak` hands to the SU(4) rebase —
/// fused with `rebase::to_su4`.
fn device_route_corpus() -> Vec<Circuit> {
    use phoenix_core::{CompileRequest, DeviceRegistry, Target};
    use phoenix_hamil::{qaoa, uccsd, Hamiltonian, Molecule};

    let seed = 7;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9a0a);
    let mut programs: Vec<Hamiltonian> = qaoa::table4_suite(7)
        .into_iter()
        .map(|h| {
            let terms = h
                .terms()
                .iter()
                .map(|(p, _)| (p.clone(), rng.next_range_f64(0.1, 1.0)))
                .collect();
            Hamiltonian::new(h.name(), h.num_qubits(), terms)
        })
        .collect();
    for mol in [Molecule::lih(), Molecule::nh()] {
        programs.push(uccsd::ansatz(
            mol,
            true,
            uccsd::Encoding::JordanWigner,
            seed,
        ));
    }
    let device = DeviceRegistry::new()
        .build("line:16")
        .expect("registry spec is valid");
    programs
        .iter()
        .filter(|h| h.num_qubits() <= 16)
        .map(|h| {
            let out = CompileRequest::new(h.num_qubits(), h.terms())
                .target(Target::Device(device.clone()))
                .run()
                .expect("device compile succeeds");
            rebase::to_su4(&out.hardware.expect("device compile is routed").circuit)
        })
        .collect()
}

#[test]
fn device_route_corpus_matches_parent() {
    let (mut blocks, mut replaced) = (0, 0);
    for fused in device_route_corpus() {
        let got = kak::resynthesize(&fused);
        assert_eq!(exact(&got), exact(&parent::resynthesize(&fused)));
        blocks += fused.counts().su4;
        replaced += fused
            .gates()
            .iter()
            .zip(got.gates())
            .filter(|(a, b)| a != b)
            .count();
    }
    assert_eq!((blocks, replaced), (1920, 5));
}
