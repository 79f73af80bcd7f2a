//! Property tests for the program-cache key ([`CanonicalIr`]): a key is
//! its contents.
//!
//! Two programs must share a key exactly when their register widths, term
//! orders and mask words agree, whatever their coefficients: a key that
//! merged two programs would serve one the other's cached structure, and
//! one that split a program would compile it again on every request. The
//! reference is the per-qubit letter sequence, read through the public
//! API, at widths across the 64- and 128-qubit word seams and the heap
//! spill. The cache's maps hash keys with [`WordHasher`]; distinct
//! programs must hash apart, or lookups degrade into full comparisons.

use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault};

use phoenix_pauli::{CanonicalIr, Pauli, PauliString, WordHasher};
use proptest::prelude::*;

/// Widths covering both inline words, the heap spill, and the word
/// boundaries on either side.
const WIDTHS: [usize; 14] = [1, 2, 3, 5, 8, 63, 64, 65, 127, 128, 129, 192, 300, 512];

const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

/// An `n`-qubit string with the given `(site, pauli)` letters, sites
/// reduced modulo `n`, built through the per-qubit `set` API.
fn build(n: usize, sites: &[(usize, usize)]) -> PauliString {
    let mut p = PauliString::identity(n);
    for &(q, k) in sites {
        p.set(q % n, PAULIS[k]);
    }
    p
}

/// The scalar reference: every term's letters, qubit by qubit, in order.
fn letters(terms: &[(PauliString, f64)]) -> Vec<Vec<Pauli>> {
    terms
        .iter()
        .map(|(p, _)| (0..p.num_qubits()).map(|q| p.get(q)).collect())
        .collect()
}

fn word_hash(ir: &CanonicalIr) -> u64 {
    BuildHasherDefault::<WordHasher>::default().hash_one(ir)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn keys_agree_exactly_when_width_order_and_masks_agree(
        sel in 0usize..WIDTHS.len(),
        raws in proptest::collection::vec(
            proptest::collection::vec((0usize..4096, 1usize..4), 0..6),
            1..6,
        ),
        (edit, i, j) in (0usize..6, 0usize..8, 0usize..8),
        (site, pauli, scale) in (0usize..4096, 0usize..4, -4.0f64..4.0),
    ) {
        let n = WIDTHS[sel];
        let a: Vec<(PauliString, f64)> = raws.iter().map(|s| (build(n, s), 0.5)).collect();
        let mut b: Vec<(PauliString, f64)> =
            a.iter().map(|(p, c)| (p.clone(), c * scale)).collect();
        let mut nb = n;
        let (i, j) = (i % b.len(), j % b.len());
        match edit {
            // Coefficients only.
            0 => {}
            // Term order (a no-op when the two terms are equal).
            1 => b.swap(i, j),
            // One letter (a no-op when it is already there).
            2 => b[i].0.set(site % n, PAULIS[pauli]),
            3 => {
                b.remove(i);
            }
            4 => b.push(b[j].clone()),
            // The same letters on a register of another width.
            _ => {
                nb = WIDTHS[(sel + 1 + j % (WIDTHS.len() - 1)) % WIDTHS.len()];
                b = raws.iter().map(|s| (build(nb, s), 0.5)).collect();
            }
        }
        let same = nb == n && letters(&a) == letters(&b);
        let (ka, kb) = (CanonicalIr::from_terms(n, &a), CanonicalIr::from_terms(nb, &b));
        prop_assert_eq!(ka == kb, same, "edit {}, widths {} and {}", edit, n, nb);
        prop_assert_eq!((kb.num_qubits(), kb.num_terms()), (nb, b.len()));
        if same {
            prop_assert_eq!(word_hash(&ka), word_hash(&kb));
        }
    }
}

#[test]
fn distinct_ordered_programs_hash_apart() {
    // 10_000 distinct random programs (distinct as ordered term lists, as
    // keys compare them) must give 10_000 distinct hashes. With 64-bit
    // hashes the chance of a collision is ~2.7e-12; a failure means a
    // systematic weakness, not bad luck.
    let mut seed = 0x5eed_cafe_f00d_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let n = 10usize;
    let mut programs: HashSet<Vec<String>> = HashSet::new();
    let mut hashes: HashSet<u64> = HashSet::new();
    while programs.len() < 10_000 {
        let num_terms = 1 + (next() as usize) % 8;
        let terms: Vec<(PauliString, f64)> = (0..num_terms)
            .map(|_| {
                let label: String = (0..n)
                    .map(|_| ['I', 'X', 'Y', 'Z'][(next() as usize) % 4])
                    .collect();
                (label.parse().unwrap(), 1.0)
            })
            .collect();
        if !programs.insert(terms.iter().map(|(p, _)| p.label()).collect()) {
            continue; // a repeated program; a shared hash would be correct
        }
        hashes.insert(word_hash(&CanonicalIr::from_terms(n, &terms)));
    }
    assert_eq!(hashes.len(), 10_000, "hash collision detected");
}
