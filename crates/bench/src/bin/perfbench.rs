//! Perf-regression harness for stage 2 (Algorithm 1 BSF simplification).
//!
//! Times the incremental [`CostEvaluator`]-backed candidate scan against the
//! naive clone-and-rescore reference on the UCCSD molecules, the scan alone
//! per support pair, plus the end-to-end logical compile and the
//! cold-compile vs warm-rebind ratio of the parametric cache, and writes
//! `results/BENCH_stage2.json`. It also counts each molecule's distinct
//! group shapes, which stage 2 compiles once each.
//! While timing it also cross-checks that both paths produce identical
//! `SimplifiedGroup`s, so a perf run doubles as an exactness check.
//!
//! Usage: `perfbench [--quick] [--trace] [--obs]` — `--quick` runs one
//! repetition of LiH only (the CI smoke configuration); `--trace`/`--obs`
//! file pass traces and observability reports under `results/`.

use std::collections::HashSet;
use std::sync::Arc;

use phoenix_bench::{or_exit, phoenix_compiler, row, write_results, Tracer, SEED};
use phoenix_core::group::group_by_support;
use phoenix_core::simplify::simplify_terms_with;
use phoenix_core::{
    CompileCache, CompileRequest, CostEvaluator, SimplifiedGroup, SimplifyOptions, Target,
};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_pauli::{Bsf, GroupShape};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    qubits: usize,
    /// Packed `u64` words per Pauli mask at this width (1–2 words stay in
    /// the inline representation; more spill to the heap).
    mask_words: usize,
    groups: usize,
    /// Distinct group shapes (groups equal up to an order-preserving
    /// relabelling of their supports): the leaders stage 2 compiles.
    shapes: usize,
    reps: usize,
    /// Stage-2 wall-clock with the naive clone-and-rescore evaluator ("before").
    stage2_naive_ms: f64,
    /// Stage-2 wall-clock with the incremental evaluator ("after").
    stage2_incremental_ms: f64,
    /// naive / incremental.
    stage2_speedup: f64,
    /// First-epoch candidate scan (`prepare` + `best_candidate`) per
    /// support pair, in ns (best of reps).
    scan_ns_per_pair: f64,
    /// End-to-end `Target::Cnot` compile wall-clock (incremental evaluator).
    end_to_end_ms: f64,
    /// Uncached logical compile wall-clock (best of reps).
    cold_compile_ms: f64,
    /// Warm `bind` through a primed cache (best of reps).
    warm_rebind_ms: f64,
    /// cold / warm.
    rebind_speedup: f64,
}

/// Times an uncached logical compile against a warm `bind` through a primed
/// cache, returning (cold best-of-reps ms, warm best-of-reps ms).
fn time_rebind(
    n: usize,
    terms: &[(phoenix_pauli::PauliString, f64)],
    reps: usize,
    label: &str,
) -> (f64, f64) {
    let mut cold = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = or_exit(CompileRequest::new(n, terms).run(), label);
        cold = cold.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let cache = Arc::new(CompileCache::new());
    let angles: Vec<f64> = terms.iter().map(|(_, c)| c * 0.7 + 1e-3).collect();
    // Prime the cache (structure miss), then time warm rebinds only.
    let _ = or_exit(
        CompileRequest::new(n, terms).cache(&cache).bind(&angles),
        label,
    );
    let mut warm = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = or_exit(
            CompileRequest::new(n, terms).cache(&cache).bind(&angles),
            label,
        );
        warm = warm.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (cold, warm)
}

/// Number of distinct shapes among `groups`.
fn distinct_shapes(groups: &[phoenix_core::IrGroup]) -> usize {
    groups
        .iter()
        .map(|g| GroupShape::from_terms(g.support_mask(), g.terms()))
        .collect::<HashSet<_>>()
        .len()
}

/// Runs stage 2 over every group, returning (best wall-clock over `reps`
/// runs in ms, outputs of the last run).
fn time_stage2(
    n: usize,
    groups: &[phoenix_core::IrGroup],
    opts: &SimplifyOptions,
    reps: usize,
) -> (f64, Vec<SimplifiedGroup>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        out = groups
            .iter()
            .map(|g| simplify_terms_with(n, g.terms(), opts))
            .collect();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Times the first-epoch candidate scan — `prepare` plus `best_candidate`
/// on each group's tableau after its local rows are peeled — and returns
/// the best time per scanned support pair over `reps` passes, in ns. Each
/// pass repeats the sweep until it has run for at least 20 ms.
fn time_scan_per_pair(n: usize, groups: &[phoenix_core::IrGroup], reps: usize) -> f64 {
    let tableaux: Vec<Bsf> = groups
        .iter()
        .map(|g| {
            let mut bsf = Bsf::from_terms(n, g.terms().iter().cloned()).expect("group fits");
            bsf.pop_local_paulis();
            bsf
        })
        .filter(|bsf| bsf.total_weight() > 2)
        .collect();
    let pairs: usize = tableaux
        .iter()
        .map(|bsf| bsf.total_weight() * (bsf.total_weight() - 1) / 2)
        .sum();
    let mut eval = CostEvaluator::new();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (t, mut sweeps) = (Instant::now(), 0usize);
        while sweeps == 0 || t.elapsed().as_secs_f64() < 0.02 {
            for bsf in &tableaux {
                eval.prepare(bsf);
                std::hint::black_box(eval.best_candidate(bsf));
            }
            sweeps += 1;
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / (sweeps * pairs.max(1)) as f64);
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let molecules: &[(Molecule, bool, &str)] = if quick {
        &[(Molecule::lih(), true, "LiH_frz")]
    } else {
        &[
            (Molecule::lih(), true, "LiH_frz"),
            (Molecule::nh(), true, "NH_frz"),
            (Molecule::h2o(), false, "H2O_cmplt"),
        ]
    };

    println!("# Stage-2 perf regression: naive vs incremental candidate evaluation\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "#Qubit",
            "words",
            "#Group",
            "#Shape",
            "naive ms",
            "incr ms",
            "speedup",
            "scan ns/pair",
            "e2e ms",
            "cold ms",
            "warm ms",
            "rebind"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 13]));

    let naive_opts = SimplifyOptions {
        naive_cost: true,
        ..SimplifyOptions::default()
    };
    let incr_opts = SimplifyOptions::default();

    let mut tracer = Tracer::from_env("perfbench");
    let mut rows = Vec::new();
    for &(mol, frozen, label) in molecules {
        let h = uccsd::ansatz(mol, frozen, uccsd::Encoding::JordanWigner, SEED);
        let n = h.num_qubits();
        let groups = group_by_support(n, h.terms());
        let shapes = distinct_shapes(&groups);

        let (naive_ms, naive_out) = time_stage2(n, &groups, &naive_opts, reps);
        let (incr_ms, incr_out) = time_stage2(n, &groups, &incr_opts, reps);
        assert_eq!(naive_out, incr_out, "{label}: evaluator paths diverge");
        let scan_ns = time_scan_per_pair(n, &groups, reps);

        let mut e2e_ms = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let request = phoenix_compiler()
                .request(n, h.terms())
                .target(Target::Cnot);
            let _ = or_exit(request.run(), label);
            e2e_ms = e2e_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        tracer.record_logical(label, &phoenix_compiler(), n, h.terms());

        let (cold_ms, warm_ms) = time_rebind(n, h.terms(), reps, label);
        let rebind_speedup = cold_ms / warm_ms;

        let speedup = naive_ms / incr_ms;
        println!(
            "{}",
            row(&[
                label.to_string(),
                n.to_string(),
                phoenix_pauli::mask::words_for(n).to_string(),
                groups.len().to_string(),
                shapes.to_string(),
                format!("{naive_ms:.2}"),
                format!("{incr_ms:.2}"),
                format!("{speedup:.2}x"),
                format!("{scan_ns:.0}"),
                format!("{e2e_ms:.2}"),
                format!("{cold_ms:.2}"),
                format!("{warm_ms:.4}"),
                format!("{rebind_speedup:.0}x"),
            ])
        );
        rows.push(Row {
            benchmark: label.to_string(),
            qubits: n,
            mask_words: phoenix_pauli::mask::words_for(n),
            groups: groups.len(),
            shapes,
            reps,
            stage2_naive_ms: naive_ms,
            stage2_incremental_ms: incr_ms,
            stage2_speedup: speedup,
            scan_ns_per_pair: scan_ns,
            end_to_end_ms: e2e_ms,
            cold_compile_ms: cold_ms,
            warm_rebind_ms: warm_ms,
            rebind_speedup,
        });
    }

    tracer.finish();
    write_results("BENCH_stage2", &rows);
}
