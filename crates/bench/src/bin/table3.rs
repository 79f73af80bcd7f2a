//! Table III — comparison across ISAs (CNOT vs SU(4)) and topologies
//! (all-to-all vs heavy-hex).
//!
//! Reports PHOENIX's geometric-mean relative rate (PHOENIX / baseline, in
//! percent — lower is better for PHOENIX) for 2Q gate count and 2Q depth in
//! each of the four regimes. Baselines rebase CNOT circuits into SU(4) ISA;
//! PHOENIX emits SU(4) blocks directly from its simplified IR.

use phoenix_baselines::strategies;
use phoenix_bench::{
    geomean, or_exit, phoenix_compiler, row, short_label, write_results, Tracer, SEED,
};
use phoenix_circuit::{peephole, rebase, Circuit};
use phoenix_core::{try_run_hardware_backend, CompilerStrategy, Device, Target};
use phoenix_hamil::uccsd;
use phoenix_router::RouterOptions;
use phoenix_topology::CouplingGraph;
use serde::Serialize;
use std::collections::BTreeMap;

/// (2Q gate count, 2Q depth) of a circuit whose 2Q gates are homogeneous.
fn metrics_2q(c: &Circuit) -> (f64, f64) {
    (c.counts().two_qubit() as f64, c.depth_2q() as f64)
}

#[derive(Serialize)]
struct Regime {
    name: String,
    /// baseline → (geomean 2Q-count ratio, geomean depth ratio).
    vs: BTreeMap<String, (f64, f64)>,
}

fn main() {
    let device = CouplingGraph::manhattan65();
    let heavy_hex = Device::bare(device.clone());
    let suite = uccsd::table1_suite(SEED);
    let mut tracer = Tracer::from_args("table3");
    // Every general-purpose baseline, as trait objects.
    let baselines: Vec<Box<dyn CompilerStrategy>> = strategies()
        .into_iter()
        .filter(|s| !matches!(s.name(), "original" | "PHOENIX"))
        .collect();

    // Per benchmark, per regime: metric for phoenix and each baseline.
    let mut ratios: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for h in &suite {
        let n = h.num_qubits();
        let phoenix = phoenix_compiler();
        // Logical circuits.
        let compile =
            |target| or_exit(phoenix.request(n, h.terms()).target(target).run(), h.name()).circuit;
        let p_cnot = compile(Target::Cnot);
        let p_su4 = compile(Target::Su4);
        let p_hw = compile(Target::Device(heavy_hex.clone()));
        let p_hw_su4 = rebase::to_su4(&p_hw);
        tracer.record_device(h.name(), &phoenix, n, h.terms(), &heavy_hex);
        for strategy in &baselines {
            let name = short_label(strategy.name());
            let b_logical = peephole::optimize(&strategy.compile_logical(n, h.terms()));
            let b_su4 = rebase::to_su4(&b_logical);
            let b_hw = or_exit(
                try_run_hardware_backend(&b_logical, &device, &RouterOptions::default(), 3),
                h.name(),
            );
            let b_hw_su4 = rebase::to_su4(&b_hw.circuit);
            for (regime, p, bl) in [
                ("CNOT all-to-all", &p_cnot, &b_logical),
                ("SU(4) all-to-all", &p_su4, &b_su4),
                ("CNOT heavy-hex", &p_hw, &b_hw.circuit),
                ("SU(4) heavy-hex", &p_hw_su4, &b_hw_su4),
            ] {
                let (pc, pd) = metrics_2q(p);
                let (bc, bd) = metrics_2q(bl);
                ratios
                    .entry((regime.to_string(), name.to_string()))
                    .or_default()
                    .push((pc / bc, pd / bd));
            }
        }
        eprintln!("[table3] {} done", h.name());
    }

    println!("# Table III: PHOENIX's relative opt. rate across ISAs/topologies\n");
    println!(
        "{}",
        row(&["Regime", "vs", "#2Q rate", "Depth-2Q rate"].map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 4]));
    let mut regimes = Vec::new();
    for regime in [
        "CNOT all-to-all",
        "SU(4) all-to-all",
        "CNOT heavy-hex",
        "SU(4) heavy-hex",
    ] {
        let mut vs = BTreeMap::new();
        for strategy in &baselines {
            let name = short_label(strategy.name());
            let rs = &ratios[&(regime.to_string(), name.to_string())];
            let gc = geomean(&rs.iter().map(|r| r.0).collect::<Vec<_>>());
            let gd = geomean(&rs.iter().map(|r| r.1).collect::<Vec<_>>());
            println!(
                "{}",
                row(&[
                    regime.to_string(),
                    name.to_string(),
                    format!("{:.2}%", 100.0 * gc),
                    format!("{:.2}%", 100.0 * gd),
                ])
            );
            vs.insert(name.to_string(), (gc, gd));
        }
        regimes.push(Regime {
            name: regime.to_string(),
            vs,
        });
    }
    write_results("table3", &regimes);
    tracer.finish();
}
