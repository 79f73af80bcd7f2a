//! Weyl-chamber analysis of two-qubit unitaries.
//!
//! Every 2Q unitary is locally equivalent to a canonical gate
//! `exp(i(c₁·XX + c₂·YY + c₃·ZZ))`; the coordinates `(c₁, c₂, c₃)` (the
//! Weyl chamber point) are computed through the magic-basis Gram matrix and
//! determine the **minimal CNOT count** needed to implement the unitary
//! (Shende–Bullock–Markov):
//!
//! | class | coordinates | CNOTs |
//! |---|---|---|
//! | local | (0, 0, 0) | 0 |
//! | CNOT | (π/4, 0, 0) | 1 |
//! | `c₃ = 0` | (c₁, c₂, 0) | 2 |
//! | generic | c₃ ≠ 0 | 3 |
//!
//! This powers the SU(4)-ISA analysis: how close a compiler's fused blocks
//! are to their theoretical CNOT floors.

use crate::unitary::{self, U4};
use crate::Su4Block;
use phoenix_mathkit::CMatrix;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Numerical tolerance for classifying coordinates.
const TOL: f64 = 1e-9;

/// Computes the canonical Weyl coordinates `(c₁ ≥ c₂ ≥ |c₃|, c₁ ≤ π/4)` of a
/// 4×4 unitary (little-endian qubit convention, matching
/// [`Gate::matrix2`](crate::Gate::matrix2)).
///
/// # Panics
///
/// Panics if the matrix is not a 4×4 unitary.
pub fn weyl_coordinates(u: &CMatrix) -> [f64; 3] {
    chamber_point(&unitary::read(u))
}

fn chamber_point(u: &U4) -> [f64; 3] {
    // The SU(4) normalization's 4th-root ambiguity is absorbed mod π/2 by
    // `canonicalize`.
    let theta = unitary::spectrum(u).theta;
    // Pair sums of the eigenphases of √W give (±, permuted) canonical
    // coordinates.
    let raw = [
        (theta[0] + theta[1]) / 2.0,
        (theta[0] + theta[2]) / 2.0,
        (theta[0] + theta[3]) / 2.0,
    ];
    canonicalize(raw)
}

/// Folds raw coordinates into the canonical Weyl chamber using the
/// local-equivalence symmetries: shifts by π/2, pairwise sign flips,
/// permutations, and the `c₁ > π/4` reflection.
fn canonicalize(mut c: [f64; 3]) -> [f64; 3] {
    for _ in 0..16 {
        // Into [0, π/2), tracking signs via pairwise flips afterwards.
        for x in c.iter_mut() {
            *x = x.rem_euclid(FRAC_PI_2);
            if *x > FRAC_PI_2 - TOL {
                *x = 0.0;
            }
        }
        // Sort descending.
        c.sort_by(|a, b| b.total_cmp(a));
        if c[0] > FRAC_PI_4 + TOL {
            // (c₁, c₂, c₃) ~ (π/2 − c₁, c₂, −c₃): shift + double sign flip.
            c[0] = FRAC_PI_2 - c[0];
            c[2] = -c[2];
            continue;
        }
        break;
    }
    // Normalize the residual sign: c₃ may be negative; pairwise flips allow
    // moving the sign onto the smallest coordinate, and the mirror symmetry
    // at c₁ = π/4 removes it entirely there.
    if c[2] < 0.0 && (c[0] - FRAC_PI_4).abs() < TOL {
        c[2] = -c[2];
        c.sort_by(|a, b| b.total_cmp(a));
    }
    // Snap numerical dust.
    for x in c.iter_mut() {
        if x.abs() < TOL {
            *x = 0.0;
        }
    }
    c
}

/// The minimal number of CNOTs needed to implement the 4×4 unitary `u`
/// (0–3, Shende–Bullock–Markov).
///
/// # Panics
///
/// Panics if the matrix is not a 4×4 unitary.
pub fn cnot_cost(u: &CMatrix) -> usize {
    class_cost(weyl_coordinates(u))
}

/// The minimal CNOT count of a fused SU(4) block.
pub fn su4_block_cost(block: &Su4Block) -> usize {
    class_cost(chamber_point(&unitary::block_unitary(block)))
}

/// The CNOT count of a Weyl chamber point's class.
fn class_cost(c: [f64; 3]) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;
    use phoenix_mathkit::Xoshiro256;
    use phoenix_pauli::{Pauli, CLIFFORD2Q_GENERATORS};

    fn unitary_of(gates: Vec<Gate>) -> CMatrix {
        let blk = Gate::Su4(Box::new(Su4Block {
            a: 0,
            b: 1,
            inner: gates,
        }));
        blk.matrix2().unwrap()
    }

    fn random_local(rng: &mut Xoshiro256) -> Vec<Gate> {
        let mut gates = Vec::new();
        for q in 0..2 {
            gates.push(Gate::Rz(q, rng.next_range_f64(-3.0, 3.0)));
            gates.push(Gate::Ry(q, rng.next_range_f64(-3.0, 3.0)));
            gates.push(Gate::Rz(q, rng.next_range_f64(-3.0, 3.0)));
        }
        gates
    }

    #[test]
    fn identity_and_locals_cost_zero() {
        assert_eq!(cnot_cost(&CMatrix::identity(4)), 0);
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..5 {
            let u = unitary_of(random_local(&mut rng));
            assert_eq!(cnot_cost(&u), 0);
            let c = weyl_coordinates(&u);
            assert!(c.iter().all(|x| x.abs() < 1e-7), "{c:?}");
        }
    }

    #[test]
    fn cnot_class_costs_one() {
        let cnot = Gate::Cnot(0, 1).matrix2().unwrap();
        assert_eq!(cnot_cost(&cnot), 1);
        let c = weyl_coordinates(&cnot);
        assert!((c[0] - FRAC_PI_4).abs() < 1e-9, "{c:?}");
        assert!(c[1].abs() < 1e-9 && c[2].abs() < 1e-9);
        // Every universal controlled gate is CNOT-equivalent.
        for kind in CLIFFORD2Q_GENERATORS {
            assert_eq!(cnot_cost(&kind.matrix4()), 1, "{kind}");
        }
    }

    #[test]
    fn generic_single_axis_rotation_costs_two() {
        for (pa, pb) in [(Pauli::X, Pauli::X), (Pauli::Z, Pauli::Y)] {
            let u = unitary_of(vec![Gate::PauliRot2 {
                a: 0,
                b: 1,
                pa,
                pb,
                theta: 0.7,
            }]);
            assert_eq!(cnot_cost(&u), 2, "{pa}{pb}");
        }
    }

    #[test]
    fn pi_half_rotation_is_cnot_class() {
        // exp(-i·(π/2)/2·XX) has Weyl point (π/4, 0, 0).
        let u = unitary_of(vec![Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::X,
            pb: Pauli::X,
            theta: std::f64::consts::FRAC_PI_2,
        }]);
        assert_eq!(cnot_cost(&u), 1);
    }

    #[test]
    fn swap_costs_three() {
        let swap = Gate::Swap(0, 1).matrix2().unwrap();
        assert_eq!(cnot_cost(&swap), 3);
        let c = weyl_coordinates(&swap);
        for x in c {
            assert!((x.abs() - FRAC_PI_4).abs() < 1e-8, "{c:?}");
        }
    }

    #[test]
    fn cost_is_a_local_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let cores: Vec<Vec<Gate>> = vec![
            vec![],
            vec![Gate::Cnot(0, 1)],
            vec![Gate::PauliRot2 {
                a: 0,
                b: 1,
                pa: Pauli::Z,
                pb: Pauli::Z,
                theta: 1.1,
            }],
            vec![Gate::Swap(0, 1)],
            vec![
                Gate::Cnot(0, 1),
                Gate::H(0),
                Gate::Cnot(1, 0),
                Gate::Rz(0, 0.3),
                Gate::Cnot(0, 1),
            ],
        ];
        for core in cores {
            let base = cnot_cost(&unitary_of(core.clone()));
            for _ in 0..4 {
                let mut dressed = random_local(&mut rng);
                dressed.extend(core.clone());
                dressed.extend(random_local(&mut rng));
                assert_eq!(cnot_cost(&unitary_of(dressed)), base);
            }
        }
    }

    #[test]
    fn rotation_products_classify_by_axis_count() {
        let rot = |pa, pb, theta| Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa,
            pb,
            theta,
        };
        // Two commuting axes: coordinates (0.45, 0.2, 0) → 2-CNOT class.
        let two_axis = unitary_of(vec![
            rot(Pauli::X, Pauli::X, 0.9),
            rot(Pauli::Z, Pauli::Z, 0.4),
        ]);
        assert_eq!(cnot_cost(&two_axis), 2);
        // All three axes: c₃ ≠ 0 → generic 3-CNOT class.
        let three_axis = unitary_of(vec![
            rot(Pauli::X, Pauli::X, 0.9),
            rot(Pauli::Y, Pauli::Y, 0.6),
            rot(Pauli::Z, Pauli::Z, 0.4),
        ]);
        assert_eq!(cnot_cost(&three_axis), 3);
        let c = weyl_coordinates(&three_axis);
        assert!((c[0] - 0.45).abs() < 1e-8, "{c:?}");
        assert!((c[1] - 0.30).abs() < 1e-8, "{c:?}");
        assert!((c[2].abs() - 0.20).abs() < 1e-8, "{c:?}");
    }

    #[test]
    fn su4_block_cost_api() {
        let blk = Su4Block {
            a: 3,
            b: 5,
            inner: vec![Gate::Cnot(3, 5), Gate::Rz(5, 0.2), Gate::Cnot(3, 5)],
        };
        // CNOT·Rz·CNOT = ZZ-rotation-like: 2-CNOT class at most.
        assert!(su4_block_cost(&blk) <= 2);
    }

    #[test]
    fn coordinates_are_in_chamber() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..10 {
            let mut gates = random_local(&mut rng);
            gates.push(Gate::Cnot(0, 1));
            gates.extend(random_local(&mut rng));
            gates.push(Gate::Cnot(1, 0));
            gates.extend(random_local(&mut rng));
            let c = weyl_coordinates(&unitary_of(gates));
            assert!(c[0] <= FRAC_PI_4 + 1e-9, "{c:?}");
            assert!(c[0] >= c[1] - 1e-9 && c[1] >= c[2].abs() - 1e-9, "{c:?}");
            assert!(c[1] >= -1e-9);
        }
    }
}
