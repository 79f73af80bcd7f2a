//! Ablation study of PHOENIX's design choices (§IV), beyond the paper's
//! headline tables: each pipeline stage is disabled in isolation and the
//! logical + hardware-aware metrics re-measured on a UCCSD subset.
//!
//! Variants:
//! - **full**        — the complete pipeline;
//! - **no-simplify** — IR groups synthesized with conventional CNOT chains
//!   (Algorithm 1 off);
//! - **no-order**    — groups kept in first-appearance order (Tetris-like
//!   ordering off);
//! - **no-routesim** — ordering without the Eq. (7) similarity factor in
//!   hardware-aware mode;
//! - **lookahead-1** — greedy ordering without a window.

use phoenix_bench::{or_exit, row, write_results, Tracer, SEED};
use phoenix_core::{Device, PhoenixCompiler, PhoenixOptions, Target};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_topology::CouplingGraph;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    /// variant → (logical #CNOT, logical 2Q depth, mapped #CNOT, mapped depth).
    variants: BTreeMap<String, (usize, usize, usize, usize)>,
}

fn variants() -> Vec<(&'static str, PhoenixOptions)> {
    let full = PhoenixOptions {
        verify: phoenix_bench::verify_enabled(),
        ..PhoenixOptions::default()
    };
    vec![
        ("full", full.clone()),
        (
            "no-simplify",
            PhoenixOptions {
                enable_simplification: false,
                ..full.clone()
            },
        ),
        (
            "no-order",
            PhoenixOptions {
                enable_ordering: false,
                ..full.clone()
            },
        ),
        (
            "lookahead-1",
            PhoenixOptions {
                lookahead: 1,
                ..full.clone()
            },
        ),
    ]
}

fn main() {
    let device = Device::bare(CouplingGraph::manhattan65());
    let mut entries = Vec::new();
    let mut tracer = Tracer::from_args("ablation");
    for (mol, frozen) in [
        (Molecule::lih(), true),
        (Molecule::nh(), true),
        (Molecule::lih(), false),
    ] {
        for enc in [uccsd::Encoding::JordanWigner, uccsd::Encoding::BravyiKitaev] {
            let h = uccsd::ansatz(mol, frozen, enc, SEED);
            let n = h.num_qubits();
            let mut rows = BTreeMap::new();
            for (name, opts) in variants() {
                let compiler = PhoenixCompiler::new(opts);
                let compile = |target| {
                    or_exit(
                        compiler.request(n, h.terms()).target(target).run(),
                        h.name(),
                    )
                    .circuit
                };
                let logical = compile(Target::Cnot);
                let mapped = compile(Target::Device(device.clone()));
                tracer.record_logical(&format!("{}/{name}", h.name()), &compiler, n, h.terms());
                rows.insert(
                    name.to_string(),
                    (
                        logical.counts().cnot,
                        logical.depth_2q(),
                        mapped.counts().cnot,
                        mapped.depth_2q(),
                    ),
                );
            }
            eprintln!("[ablation] {} done", h.name());
            entries.push(Entry {
                benchmark: h.name().to_string(),
                variants: rows,
            });
        }
    }

    println!("# Ablation: PHOENIX design choices\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "Variant",
            "log #CNOT",
            "log D2Q",
            "hw #CNOT",
            "hw D2Q"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 6]));
    for e in &entries {
        for (v, (lc, ld, hc, hd)) in &e.variants {
            println!(
                "{}",
                row(&[
                    e.benchmark.clone(),
                    v.clone(),
                    lc.to_string(),
                    ld.to_string(),
                    hc.to_string(),
                    hd.to_string(),
                ])
            );
        }
    }
    write_results("ablation", &entries);
    tracer.finish();
}
