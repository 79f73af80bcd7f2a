//! ISA rebase: fusing circuits into the SU(4) ISA.
//!
//! The SU(4) ISA (paper §V-D, following the AshN scheme) admits *any*
//! two-qubit unitary as a single native instruction. Rebasing therefore
//! fuses every maximal run of 2Q gates on the same qubit pair — together
//! with the 1Q gates interleaved on those two qubits — into one
//! [`Su4Block`].

use crate::{Circuit, Gate, Su4Block};

/// Rebases a circuit into the SU(4) ISA.
///
/// Every 2Q gate lands in an [`Su4Block`]; a block absorbs
/// consecutive gates on its qubit pair (1Q gates included) until another
/// gate touches one of its qubits. 1Q gates outside any block pass through
/// unchanged (they are free in all metrics).
///
/// # Examples
///
/// ```
/// use phoenix_circuit::{rebase, Circuit, Gate};
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::Cnot(0, 1));
/// c.push(Gate::Rz(1, 0.3));
/// c.push(Gate::Cnot(0, 1)); // same pair: fuses
/// c.push(Gate::Cnot(1, 2)); // new pair: new block
/// let su4 = rebase::to_su4(&c);
/// assert_eq!(su4.counts().su4, 2);
/// ```
pub fn to_su4(c: &Circuit) -> Circuit {
    enum Item {
        Free(Gate),
        Block(usize),
    }
    let n = c.num_qubits();
    let mut items: Vec<Item> = Vec::new();
    let mut blocks: Vec<Option<Su4Block>> = Vec::new();
    // owner[q] = index of the open block containing qubit q.
    let mut owner: Vec<Option<usize>> = vec![None; n];

    let close = |owner: &mut Vec<Option<usize>>, blocks: &[Option<Su4Block>], q: usize| {
        if let Some(bi) = owner[q] {
            if let Some(blk) = &blocks[bi] {
                owner[blk.a] = None;
                owner[blk.b] = None;
            }
        }
    };

    for g in c.gates() {
        match g.qubits() {
            (q, None) => {
                if let Some(bi) = owner[q] {
                    blocks[bi]
                        .as_mut()
                        .expect("open block exists")
                        .inner
                        .push(g.clone());
                } else {
                    items.push(Item::Free(g.clone()));
                }
            }
            (a, Some(b)) => {
                let joined = match (owner[a], owner[b]) {
                    (Some(x), Some(y)) if x == y => {
                        // Flatten nested SU(4) blocks.
                        let blk = blocks[x].as_mut().expect("open block exists");
                        match g {
                            Gate::Su4(inner_blk) => blk.inner.extend(inner_blk.inner.clone()),
                            _ => blk.inner.push(g.clone()),
                        }
                        true
                    }
                    _ => false,
                };
                if !joined {
                    close(&mut owner, &blocks, a);
                    close(&mut owner, &blocks, b);
                    let inner = match g {
                        Gate::Su4(inner_blk) => inner_blk.inner.clone(),
                        _ => vec![g.clone()],
                    };
                    let bi = blocks.len();
                    blocks.push(Some(Su4Block {
                        a: a.min(b),
                        b: a.max(b),
                        inner,
                    }));
                    owner[a] = Some(bi);
                    owner[b] = Some(bi);
                    items.push(Item::Block(bi));
                }
            }
        }
    }

    let mut out = Circuit::new(n);
    for item in items {
        match item {
            Item::Free(g) => out.push(g),
            Item::Block(bi) => {
                let blk = blocks[bi].take().expect("each block emitted once");
                out.push(Gate::Su4(Box::new(blk)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_pauli::{Clifford2Q, Clifford2QKind, Pauli};

    #[test]
    fn single_cnot_becomes_one_block() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 1);
        assert_eq!(r.counts().cnot, 0);
    }

    #[test]
    fn same_pair_run_fuses_completely() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::H(0));
        c.push(Gate::Cnot(1, 0));
        c.push(Gate::PauliRot2 {
            a: 0,
            b: 1,
            pa: Pauli::X,
            pb: Pauli::Y,
            theta: 0.2,
        });
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 1);
        assert_eq!(r.counts().total, 1);
    }

    #[test]
    fn interleaving_pair_splits_blocks() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(1, 2)); // touches qubit 1: closes first block
        c.push(Gate::Cnot(0, 1)); // new block on (0,1)
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 3);
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(2, 3));
        c.push(Gate::Cnot(0, 1)); // still fuses with the first block
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 2);
    }

    #[test]
    fn free_oneq_gates_pass_through() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        let r = to_su4(&c);
        assert_eq!(r.counts().oneq, 1);
        assert_eq!(r.counts().su4, 1);
    }

    #[test]
    fn clifford2_is_absorbed() {
        let mut c = Circuit::new(2);
        c.push(Gate::Clifford2(Clifford2Q::new(Clifford2QKind::Cxy, 0, 1)));
        c.push(Gate::Clifford2(Clifford2Q::new(Clifford2QKind::Cxy, 0, 1)));
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 1);
    }

    #[test]
    fn rebase_preserves_2q_depth_upper_bound() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(2, 3));
        c.push(Gate::Cnot(1, 2));
        let before = c.depth_2q();
        let after = to_su4(&c).depth_2q();
        assert!(after <= before);
    }

    #[test]
    fn nested_su4_flattens() {
        let mut c = Circuit::new(2);
        c.push(Gate::Su4(Box::new(Su4Block {
            a: 0,
            b: 1,
            inner: vec![Gate::Cnot(0, 1)],
        })));
        c.push(Gate::Cnot(0, 1));
        let r = to_su4(&c);
        assert_eq!(r.counts().su4, 1);
        if let Gate::Su4(blk) = &r.gates()[0] {
            assert_eq!(blk.inner.len(), 2);
        } else {
            panic!("expected su4 block");
        }
    }
}
