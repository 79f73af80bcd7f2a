//! Differential tests for stage 2's shape path: compiling each distinct
//! group shape once and binding every group from its shape's artifact must
//! equal compiling every group on its own, bit for bit.
//!
//! Programs are built from a few random base groups, each placed several
//! times on random supports, so shapes repeat across groups. Register
//! widths 6, 64, 65 and 130–200 put the supports in inline masks, across
//! the 64-qubit word seam, and in heap masks. The reference is the
//! per-group `synthesize_group(&simplify_terms(n, g))` and its
//! `term_sequence()`; circuits and term orders are compared through their
//! `Debug` form, which tells `-0.0` from `0.0`.

use std::sync::Arc;

use phoenix_core::group::group_by_support;
use phoenix_core::pass::{CompileContext, PassManager, EVENT_DEGRADED};
use phoenix_core::passes::{GroupPass, SimplifySynthPass};
use phoenix_core::simplify::simplify_terms;
use phoenix_core::synth::synthesize_group;
use phoenix_core::CompileCache;
use phoenix_hamil::uccsd;
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Pauli, PauliString};
use proptest::prelude::*;

/// Per group: the circuit and the emitted term order, in `Debug` form.
type Groups = Vec<(String, String)>;

/// `s` distinct qubits of `n`, ascending, drawn from `seed`.
fn support(n: usize, s: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Xoshiro256::seed_from_u64(seed).shuffle(&mut all);
    let mut chosen = all[..s].to_vec();
    chosen.sort_unstable();
    chosen
}

/// A coefficient of kind `k`: `0.0`, `-0.0`, a negative value, or `v`.
fn coeff(k: u8, v: f64) -> f64 {
    match k {
        0 => 0.0,
        1 => -0.0,
        2 => -v.abs(),
        _ => v,
    }
}

/// The rows of one base group: a Pauli on every rank (the rows of one IR
/// group all act on its whole support) and a coefficient.
type Base = Vec<(Vec<Pauli>, f64)>;

/// A program over `n` qubits: up to three base groups of width 1–7 and up
/// to 60 rows each, plus a near twin of the first (one letter changed, two
/// rows swapped, or only a coefficient changed), placed 2–8 times in all
/// on random supports.
fn arb_program() -> impl Strategy<Value = (usize, Vec<(PauliString, f64)>)> {
    (
        (0usize..4, 130usize..=200),
        proptest::collection::vec(
            (
                1usize..=7,
                proptest::collection::vec((any::<u64>(), 0u8..8, -1.0f64..1.0), 1..=60),
            ),
            1..=3,
        ),
        (0u8..3, any::<usize>(), any::<usize>()),
        proptest::collection::vec((0usize..4, any::<u64>()), 2..=8),
    )
        .prop_map(
            |((width_class, wide), drawn, (twin_kind, i, r), placements)| {
                let n = [6, 64, 65, wide][width_class];
                let mut bases: Vec<Base> = drawn
                    .iter()
                    .map(|(s, rows)| {
                        rows.iter()
                            .map(|&(letters, k, v)| {
                                let row = (0..(*s).min(n))
                                    .map(|r| {
                                        [Pauli::X, Pauli::Y, Pauli::Z]
                                            [(letters >> (2 * r)) as usize % 3]
                                    })
                                    .collect();
                                (row, coeff(k, v))
                            })
                            .collect()
                    })
                    .collect();
                let mut twin = bases[0].clone();
                let (i, j) = (i % twin.len(), (i + 1) % twin.len());
                match twin_kind {
                    0 => {
                        let row = &mut twin[i].0;
                        let r = r % row.len();
                        row[r] = match row[r] {
                            Pauli::X => Pauli::Y,
                            Pauli::Y => Pauli::Z,
                            _ => Pauli::X,
                        };
                    }
                    1 => twin.swap(i, j),
                    _ => twin[i].1 = -twin[i].1 - 1.0,
                }
                bases.push(twin);
                let mut terms = Vec::new();
                for (b, seed) in placements {
                    let base = &bases[b % bases.len()];
                    let qubits = support(n, base[0].0.len(), seed);
                    for (row, c) in base {
                        let mut p = PauliString::identity(n);
                        for (&q, &letter) in qubits.iter().zip(row) {
                            p.set(q, letter);
                        }
                        terms.push((p, *c));
                    }
                }
                (n, terms)
            },
        )
}

/// The per-group reference: every group compiled on its own.
fn reference(n: usize, terms: &[(PauliString, f64)]) -> Groups {
    group_by_support(n, terms)
        .iter()
        .map(|g| {
            let s = simplify_terms(n, g.terms());
            (
                format!("{:?}", synthesize_group(&s)),
                format!("{:?}", s.term_sequence()),
            )
        })
        .collect()
}

/// Groups and stage 2 through a pass manager, optionally on a shared cache.
fn stage2(
    n: usize,
    terms: &[(PauliString, f64)],
    threads: usize,
    cache: Option<&Arc<CompileCache>>,
    fault_inject_group: Option<usize>,
) -> (CompileContext, Vec<phoenix_core::pass::TraceEvent>) {
    let mut ctx = CompileContext::new(n, terms);
    ctx.cache = cache.cloned();
    let trace = PassManager::new()
        .with(GroupPass)
        .with(SimplifySynthPass {
            threads,
            fault_inject_group,
            ..SimplifySynthPass::default()
        })
        .run(&mut ctx)
        .unwrap();
    (ctx, trace.events)
}

fn groups_of(ctx: &CompileContext) -> Groups {
    ctx.subcircuits
        .iter()
        .zip(&ctx.group_terms)
        .map(|(c, t)| (format!("{c:?}"), format!("{t:?}")))
        .collect()
}

proptest! {
    /// Uncached, and through a shared cache both cold and warm, for every
    /// thread count: the shape path equals the per-group reference.
    #[test]
    fn shape_path_matches_per_group_compiles((n, terms) in arb_program()) {
        let want = reference(n, &terms);
        for threads in [1, 2, 8] {
            let (ctx, events) = stage2(n, &terms, threads, None, None);
            prop_assert!(events.is_empty(), "events: {events:?}");
            prop_assert_eq!(&groups_of(&ctx), &want, "uncached, threads = {}", threads);

            let cache = Arc::new(CompileCache::new());
            let (cold, _) = stage2(n, &terms, threads, Some(&cache), None);
            prop_assert_eq!(&groups_of(&cold), &want, "cold cache, threads = {}", threads);
            let shapes = cache.num_groups() as u64;
            prop_assert_eq!(cache.stats().group_misses, shapes);
            let (warm, _) = stage2(n, &terms, threads, Some(&cache), None);
            prop_assert_eq!(&groups_of(&warm), &want, "warm cache, threads = {}", threads);
            prop_assert_eq!(cache.stats().group_hits, shapes);
        }
    }
}

/// The totals DESIGN.md §2.2.2 quotes: stage 2 compiles Table I's 2659
/// IR groups as 1389 shapes. A shape key or index that stopped merging
/// equal shapes would keep every bit-identity test green while compiling
/// more, so the count of shapes each program's stage 2 compiles is pinned
/// here: on a fresh cache every shape it compiles is one lookup, a miss
/// that stores one artifact.
#[test]
fn table1_groups_compile_as_1389_shapes() {
    let (mut groups, mut shapes) = (0, 0);
    for h in uccsd::table1_suite(7) {
        let cache = Arc::new(CompileCache::new());
        let (ctx, events) = stage2(h.num_qubits(), h.terms(), 1, Some(&cache), None);
        assert!(events.is_empty(), "{}: {events:?}", h.name());
        let stats = cache.stats();
        let stored = cache.num_groups() as u64;
        assert_eq!(
            (stats.group_hits, stats.group_misses),
            (0, stored),
            "{}",
            h.name()
        );
        groups += ctx.groups.len();
        shapes += cache.num_groups();
    }
    assert_eq!((groups, shapes), (2659, 1389));
}

#[test]
fn fault_on_a_bound_member_degrades_exactly_that_group() {
    // One base group placed on three supports of a 65-qubit register: the
    // first placement leads the shape, the other two are bound from it.
    let n = 65;
    let rows = ["XYZ", "ZZX", "YXY", "XYZ", "ZYX"];
    let mut terms = Vec::new();
    for (i, qubits) in [[2, 40, 63], [10, 64, 5], [0, 1, 2]].iter().enumerate() {
        let mut qubits = *qubits;
        qubits.sort_unstable();
        for (j, label) in rows.iter().enumerate() {
            let local: PauliString = label.parse().unwrap();
            terms.push((
                local.embed(n, &qubits),
                0.1 * (i + 1) as f64 - 0.07 * j as f64,
            ));
        }
    }
    let want = reference(n, &terms);
    let groups = group_by_support(n, &terms);
    assert_eq!(groups.len(), 3);

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // contained panics stay quiet
    for threads in [1, 2, 8] {
        let (ctx, events) = stage2(n, &terms, threads, None, Some(1));
        let degraded: Vec<_> = events.iter().filter(|e| e.kind == EVENT_DEGRADED).collect();
        assert_eq!(degraded.len(), 1, "events: {events:?}");
        assert!(degraded[0].detail.contains("group 1"), "{:?}", degraded[0]);
        let got = groups_of(&ctx);
        let naive = phoenix_circuit::synthesis::naive_circuit(n, groups[1].terms());
        assert_eq!(ctx.subcircuits[1], naive);
        assert_eq!(ctx.group_terms[1], groups[1].terms().to_vec());
        assert_eq!(got[0], want[0], "the shape's leader is untouched");
        assert_eq!(got[2], want[2], "the other member is untouched");
    }
    std::panic::set_hook(prev);
}
