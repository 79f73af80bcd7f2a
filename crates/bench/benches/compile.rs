//! Criterion micro-benchmarks: compile-time scaling of the PHOENIX pipeline
//! and its stages, supporting the paper's "compiles programs of thousands of
//! Pauli strings in dozens of seconds" claim (our Rust implementation is
//! far faster than the paper's Python).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phoenix_baselines::Baseline;
use phoenix_circuit::{peephole, Circuit};
use phoenix_core::{
    group::group_by_support, simplify::simplify_terms, CompileRequest, Device, Target,
};
use phoenix_hamil::{qaoa, uccsd, Molecule};
use phoenix_pauli::PauliString;
use phoenix_router::{route, search_layout, RouterOptions};
use phoenix_topology::CouplingGraph;

/// PHOENIX's CNOT-ISA compilation with default options.
fn phoenix_cnot(n: usize, terms: &[(PauliString, f64)]) -> Circuit {
    CompileRequest::new(n, terms)
        .target(Target::Cnot)
        .run()
        .unwrap()
        .circuit
}

fn bench_logical_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("logical_compile");
    g.sample_size(10);
    for (mol, frozen, label) in [
        (Molecule::lih(), true, "LiH_frz"),
        (Molecule::nh(), true, "NH_frz"),
        (Molecule::h2o(), false, "H2O_cmplt"),
    ] {
        let h = uccsd::ansatz(mol, frozen, uccsd::Encoding::JordanWigner, 7);
        g.bench_with_input(BenchmarkId::new("phoenix", label), &h, |b, h| {
            b.iter(|| phoenix_cnot(h.num_qubits(), h.terms()))
        });
        g.bench_with_input(BenchmarkId::new("paulihedral", label), &h, |b, h| {
            b.iter(|| {
                peephole::optimize(
                    &Baseline::PaulihedralStyle.compile_logical(h.num_qubits(), h.terms()),
                )
            })
        });
    }
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let h = uccsd::ansatz(Molecule::nh(), true, uccsd::Encoding::BravyiKitaev, 7);
    let n = h.num_qubits();
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    g.bench_function("grouping", |b| b.iter(|| group_by_support(n, h.terms())));
    let groups = group_by_support(n, h.terms());
    g.bench_function("bsf_simplification", |b| {
        b.iter(|| {
            groups
                .iter()
                .map(|grp| simplify_terms(n, grp.terms()))
                .collect::<Vec<_>>()
        })
    });
    let logical = phoenix_cnot(n, h.terms());
    let device = CouplingGraph::manhattan65();
    g.bench_function("layout_search", |b| {
        b.iter(|| search_layout(&logical, &device, &RouterOptions::default(), 3))
    });
    let layout = search_layout(&logical, &device, &RouterOptions::default(), 3);
    g.bench_function("sabre_routing", |b| {
        b.iter(|| route(&logical, &device, layout.clone(), &RouterOptions::default()))
    });
    g.finish();
}

/// A 32-qubit program with exactly `num_groups` IR groups: the first
/// `num_groups` 4-qubit supports in lexicographic order, four weight-4
/// terms each, so per-group BSF simplification does real work.
fn grouped_program(num_groups: usize) -> (usize, Vec<(PauliString, f64)>) {
    const N: usize = 32;
    const PATTERNS: [&str; 4] = ["XXYY", "YZZX", "ZYXZ", "XZYX"];
    let mut terms = Vec::with_capacity(num_groups * PATTERNS.len());
    let mut built = 0usize;
    'supports: for a in 0..N {
        for b in a + 1..N {
            for c in b + 1..N {
                for d in c + 1..N {
                    for (i, pattern) in PATTERNS.iter().enumerate() {
                        let mut label = vec![b'I'; N];
                        for (&q, p) in [a, b, c, d].iter().zip(pattern.bytes()) {
                            label[q] = p;
                        }
                        let p: PauliString = String::from_utf8(label).unwrap().parse().unwrap();
                        terms.push((p, 0.01 * (i + 1) as f64));
                    }
                    built += 1;
                    if built == num_groups {
                        break 'supports;
                    }
                }
            }
        }
    }
    assert_eq!(built, num_groups, "not enough distinct supports");
    (N, terms)
}

fn bench_group_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("group_count_scaling");
    g.sample_size(10);
    for num_groups in [8usize, 32, 128] {
        let (n, terms) = grouped_program(num_groups);
        assert_eq!(group_by_support(n, &terms).len(), num_groups);
        g.bench_with_input(
            BenchmarkId::from_parameter(num_groups),
            &terms,
            |b, terms| b.iter(|| phoenix_cnot(n, terms)),
        );
    }
    g.finish();
}

fn bench_qaoa(c: &mut Criterion) {
    let mut g = c.benchmark_group("qaoa_hardware_aware");
    g.sample_size(10);
    let device = Device::bare(CouplingGraph::manhattan65());
    for n in [16usize, 24] {
        let h = qaoa::benchmark(qaoa::QaoaKind::Rand4, n, 7 + n as u64);
        g.bench_with_input(BenchmarkId::new("phoenix", n), &h, |b, h| {
            b.iter(|| {
                CompileRequest::new(h.num_qubits(), h.terms())
                    .target(Target::Device(device.clone()))
                    .run()
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_logical_compile,
    bench_stages,
    bench_group_scaling,
    bench_qaoa
);
criterion_main!(benches);
