//! Real symmetric eigendecomposition (cyclic Jacobi) and simultaneous
//! diagonalization of commuting symmetric pairs.
//!
//! These are the numerical kernels behind the Weyl-chamber analysis of
//! two-qubit unitaries: the magic-basis Gram matrix `W = VᵀV` of a unitary
//! splits into commuting real symmetric parts `Re W`, `Im W` whose joint
//! eigenbasis yields the entangling class.

/// Eigendecomposition `A = Q diag(λ) Qᵀ` of an `N × N` real symmetric
/// matrix given as rows; returns `(λ, q)` with `q[k]` the eigenvector column
/// for `λ[k]`.
///
/// Cyclic Jacobi: unconditionally convergent for symmetric input. The
/// workspace's callers are the 4×4 magic-basis analyses of
/// `phoenix-circuit`, so everything lives in fixed-size arrays on the stack.
pub fn jacobi_symmetric<const N: usize>(a: &[[f64; N]; N]) -> ([f64; N], [[f64; N]; N]) {
    jacobi_leading(a, N)
}

/// Cyclic Jacobi on the leading `n × n` block of `a` (`n ≤ N`); entries
/// outside that block are ignored and returned as zero.
fn jacobi_leading<const N: usize>(a: &[[f64; N]; N], n: usize) -> ([f64; N], [[f64; N]; N]) {
    let mut m = *a;
    // q starts as identity; columns become eigenvectors.
    let mut q = [[0.0; N]; N];
    for (i, row) in q.iter_mut().enumerate().take(n) {
        row[i] = 1.0;
    }
    for _sweep in 0..64 {
        let mut off = 0.0;
        for (p, row) in m.iter().enumerate().take(n) {
            for &v in &row[p + 1..n] {
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
                // Classic Jacobi rotation annihilating m[p][r].
                let theta = (m[r][r] - m[p][p]) / (2.0 * m[p][r]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in m.iter_mut().take(n) {
                    let (mkp, mkr) = (row[p], row[r]);
                    row[p] = c * mkp - s * mkr;
                    row[r] = s * mkp + c * mkr;
                }
                let (head, tail) = m.split_at_mut(r);
                for (mpk, mrk) in head[p][..n].iter_mut().zip(&mut tail[0][..n]) {
                    let (vp, vr) = (*mpk, *mrk);
                    *mpk = c * vp - s * vr;
                    *mrk = s * vp + c * vr;
                }
                for row in q.iter_mut().take(n) {
                    let (qkp, qkr) = (row[p], row[r]);
                    row[p] = c * qkp - s * qkr;
                    row[r] = s * qkp + c * qkr;
                }
            }
        }
    }
    let mut eigvals = [0.0; N];
    let mut cols = [[0.0; N]; N];
    for i in 0..n {
        eigvals[i] = m[i][i];
        for j in 0..n {
            cols[j][i] = q[i][j];
        }
    }
    (eigvals, cols)
}

/// Simultaneously diagonalizes two *commuting* `N × N` real symmetric
/// matrices: returns `(α, β, q)` with `A q_k = α_k q_k` and
/// `B q_k = β_k q_k`.
///
/// Diagonalizes `A` first, then re-diagonalizes `B` inside each (near-)
/// degenerate eigenspace of `A`.
pub fn jacobi_simultaneous<const N: usize>(
    a: &[[f64; N]; N],
    b: &[[f64; N]; N],
) -> ([f64; N], [f64; N], [[f64; N]; N]) {
    let (alpha, q) = jacobi_symmetric(a);
    // Sort the eigenbasis by α so degenerate clusters are contiguous.
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_by(|&i, &j| alpha[i].total_cmp(&alpha[j]));
    let alpha = order.map(|i| alpha[i]);
    let mut q = order.map(|i| q[i]);

    // B in the α-eigenbasis.
    let bq = |col: &[f64; N]| -> [f64; N] {
        std::array::from_fn(|i| (0..N).map(|j| b[i][j] * col[j]).sum())
    };
    let mut bprime = [[0.0; N]; N];
    for (cj, qj) in q.iter().enumerate() {
        let bv = bq(qj);
        for (ci, qi) in q.iter().enumerate() {
            bprime[ci][cj] = qi.iter().zip(&bv).map(|(x, y)| x * y).sum();
        }
    }
    // Refine inside degenerate clusters of α.
    let mut beta = [0.0; N];
    let mut start = 0;
    while start < N {
        let mut end = start + 1;
        while end < N && (alpha[end] - alpha[start]).abs() < 1e-9 {
            end += 1;
        }
        let k = end - start;
        if k == 1 {
            beta[start] = bprime[start][start];
        } else {
            let mut sub = [[0.0; N]; N];
            for (i, row) in sub.iter_mut().enumerate().take(k) {
                row[..k].copy_from_slice(&bprime[start + i][start..end]);
            }
            let (lam, vecs) = jacobi_leading(&sub, k);
            // Rotate the cluster's q-columns.
            let old = q;
            for (local, lam_l) in lam.iter().enumerate().take(k) {
                beta[start + local] = *lam_l;
                for i in 0..N {
                    q[start + local][i] = (0..k).map(|m| old[start + m][i] * vecs[local][m]).sum();
                }
            }
        }
        start = end;
    }
    (alpha, beta, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256;

    fn matvec<const N: usize>(a: &[[f64; N]; N], v: &[f64; N]) -> [f64; N] {
        a.map(|row| row.iter().zip(v).map(|(x, y)| x * y).sum())
    }

    fn random_symmetric<const N: usize>(seed: u64) -> [[f64; N]; N] {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut a = [[0.0; N]; N];
        // Symmetric fill: (i, j) and (j, i) get the same draw.
        #[allow(clippy::needless_range_loop)]
        for i in 0..N {
            for j in i..N {
                let x = rng.next_range_f64(-1.0, 1.0);
                a[i][j] = x;
                a[j][i] = x;
            }
        }
        a
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = [[3.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]];
        let (vals, vecs) = jacobi_symmetric(&a);
        let mut sorted = vals;
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[0] + 1.0).abs() < 1e-12);
        assert!((sorted[2] - 3.0).abs() < 1e-12);
        // Eigenvectors satisfy A v = λ v.
        for (k, v) in vecs.iter().enumerate() {
            let av = matvec(&a, v);
            for i in 0..3 {
                assert!((av[i] - vals[k] * v[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn random_symmetric_reconstructs() {
        for seed in 0..5 {
            let a = random_symmetric::<4>(seed);
            let (vals, vecs) = jacobi_symmetric(&a);
            for (k, v) in vecs.iter().enumerate() {
                let av = matvec(&a, v);
                for i in 0..4 {
                    assert!(
                        (av[i] - vals[k] * v[i]).abs() < 1e-9,
                        "seed {seed}, pair {k}"
                    );
                }
                // Unit norm.
                let norm: f64 = v.iter().map(|x| x * x).sum();
                assert!((norm - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn simultaneous_diagonalization_of_commuting_pair() {
        // Build commuting A, B sharing an eigenbasis with degeneracy in A.
        let (_, q) = jacobi_symmetric(&random_symmetric::<4>(9));
        let build = |d: [f64; 4]| -> [[f64; 4]; 4] {
            let mut m = [[0.0; 4]; 4];
            for i in 0..4 {
                for j in 0..4 {
                    m[i][j] = (0..4).map(|k| q[k][i] * d[k] * q[k][j]).sum();
                }
            }
            m
        };
        let a = build([1.0, 1.0, 2.0, 3.0]); // degenerate pair in A
        let b = build([5.0, -5.0, 7.0, 9.0]); // split inside the cluster
        let (alpha, beta, vecs) = jacobi_simultaneous(&a, &b);
        for (k, v) in vecs.iter().enumerate() {
            let av = matvec(&a, v);
            let bv = matvec(&b, v);
            for i in 0..4 {
                assert!((av[i] - alpha[k] * v[i]).abs() < 1e-8, "A pair {k}");
                assert!((bv[i] - beta[k] * v[i]).abs() < 1e-8, "B pair {k}");
            }
        }
    }
}
