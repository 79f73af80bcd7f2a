//! Criterion micro-benchmarks for stage 2's candidate evaluation: the
//! incremental bit-sliced [`CostEvaluator`] vs the naive
//! clone-and-rescore scan, on the largest UCCSD groups (NH- and H2O-scale),
//! plus the observability layer's overhead (instrumentation disabled vs
//! enabled) on the end-to-end logical compile — the disabled arm is the
//! tentpole's < 2% budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phoenix_core::group::group_by_support;
use phoenix_core::simplify::{best_candidate_naive, simplify_terms_with};
use phoenix_core::{CompileRequest, CostEvaluator, SimplifyOptions, Target};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_pauli::Bsf;

/// The largest (most terms) group's tableau for a molecule.
fn largest_group_bsf(mol: Molecule, frozen: bool) -> Bsf {
    let h = uccsd::ansatz(mol, frozen, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    let groups = group_by_support(n, h.terms());
    let grp = groups
        .iter()
        .max_by_key(|g| g.terms().len())
        .expect("nonempty hamiltonian");
    Bsf::from_terms(n, grp.terms().iter().cloned()).expect("group terms fit")
}

fn bench_best_candidate(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage2_best_candidate");
    for (mol, frozen, label) in [
        (Molecule::nh(), true, "NH_frz"),
        (Molecule::h2o(), false, "H2O_cmplt"),
    ] {
        let bsf = largest_group_bsf(mol, frozen);
        g.bench_with_input(BenchmarkId::new("naive", label), &bsf, |b, bsf| {
            b.iter(|| best_candidate_naive(bsf))
        });
        g.bench_with_input(BenchmarkId::new("incremental", label), &bsf, |b, bsf| {
            let mut eval = CostEvaluator::new();
            b.iter(|| {
                eval.prepare(bsf);
                eval.best_candidate(bsf)
            })
        });
    }
    g.finish();
}

fn bench_simplify_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage2_simplify");
    g.sample_size(10);
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    let groups = group_by_support(n, h.terms());
    for (label, opts) in [
        (
            "naive",
            SimplifyOptions {
                naive_cost: true,
                ..SimplifyOptions::default()
            },
        ),
        ("incremental", SimplifyOptions::default()),
    ] {
        g.bench_function(BenchmarkId::new(label, "NH_frz"), |b| {
            b.iter(|| {
                groups
                    .iter()
                    .map(|grp| simplify_terms_with(n, grp.terms(), &opts))
                    .collect::<Vec<_>>()
            })
        });
    }
    g.finish();
}

/// End-to-end CNOT-target compiles with observability off vs on. The
/// "off" arm is the default production path (one relaxed atomic load per
/// instrumentation site); the "on" arm shows the full span/metric cost.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let n = h.num_qubits();
    for (label, obs) in [("disabled", false), ("enabled", true)] {
        g.bench_function(BenchmarkId::new(label, "LiH_frz"), |b| {
            b.iter(|| {
                CompileRequest::new(n, h.terms())
                    .target(Target::Cnot)
                    .obs(obs)
                    .run()
                    .expect("valid program compiles")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_best_candidate,
    bench_simplify_full,
    bench_obs_overhead
);
criterion_main!(benches);
