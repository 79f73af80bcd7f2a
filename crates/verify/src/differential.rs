//! Differential verification of every compile path.
//!
//! For one program, [`verify_program`] compiles with PHOENIX to each of
//! its five targets (high-level, CNOT, SU(4), CNOT-via-KAK,
//! hardware-aware) and each baseline through its logical / optimized /
//! hardware paths, checks every output against the reference Trotter
//! evolution with the appropriate tier of the engine, and cross-checks the
//! strategies against each other. Every failure is reported with the
//! pipeline that produced it.

use phoenix_baselines::Baseline;
use phoenix_circuit::Circuit;
use phoenix_core::{CompileRequest, CompilerStrategy, Device, PhoenixOptions, Target};
use phoenix_mathkit::{CMatrix, Xoshiro256};
use phoenix_sim::circuit_unitary;
use phoenix_topology::CouplingGraph;
use serde::Serialize;

use crate::engine::{
    check_coupling_legal, check_exact_unitary, check_routed_equivalence, check_skeleton_identity,
    check_states_vs_order, check_unitary_pair, check_unitary_vs_reference, reorder_tolerance,
    Outcome,
};
use crate::gen::Program;

/// One reported failure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Failure {
    /// Pipeline that produced the failing artifact (e.g. `"PHOENIX/kak"`).
    pub pipeline: String,
    /// Which check failed (e.g. `"exact-unitary"`).
    pub check: String,
    /// Measured deviation when numeric (`None` for structural failures).
    pub metric: Option<f64>,
    /// Diagnosis.
    pub detail: String,
}

/// Verification configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Dense unitary checks run for programs up to this width.
    pub unitary_max_qubits: usize,
    /// Tier-3 state spot checks run for programs up to this width.
    pub state_max_qubits: usize,
    /// Product states per tier-3 check.
    pub spot_states: usize,
    /// Seed for tier-3 state sampling.
    pub state_seed: u64,
    /// Verify hardware-aware paths (adds routing per strategy).
    pub hardware: bool,
    /// Compile PHOENIX with pass-boundary verification attached
    /// ([`phoenix_core::PhoenixOptions::verify`]), so the pass that breaks
    /// an invariant is named directly.
    pub verify_passes: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            unitary_max_qubits: 8,
            state_max_qubits: 16,
            spot_states: 4,
            state_seed: 0x5eed,
            hardware: true,
            verify_passes: false,
        }
    }
}

fn record(failures: &mut Vec<Failure>, pipeline: &str, check: &str, outcome: Outcome) {
    if let Outcome::Fail { metric, detail } = outcome {
        failures.push(Failure {
            pipeline: pipeline.to_string(),
            check: check.to_string(),
            metric: if metric.is_nan() { None } else { Some(metric) },
            detail,
        });
    }
}

/// The line device used for hardware-path verification: wide enough for
/// the program, narrow enough to force routing.
pub fn verification_device(n: usize) -> CouplingGraph {
    CouplingGraph::line(n.max(2))
}

/// Verifies every compile path on one program; returns all failures
/// (empty = the program verifies).
pub fn verify_program(program: &Program, cfg: &VerifyConfig) -> Vec<Failure> {
    let mut failures = Vec::new();
    let n = program.num_qubits;
    let terms = &program.terms;
    let dense = n <= cfg.unitary_max_qubits;
    let states = n <= cfg.state_max_qubits;
    let mut rng = Xoshiro256::seed_from_u64(cfg.state_seed ^ program.seed);

    let options = PhoenixOptions {
        verify: cfg.verify_passes,
        ..PhoenixOptions::default()
    };
    let compile = |target| {
        CompileRequest::new(n, terms)
            .options(options.clone())
            .target(target)
            .run()
    };

    // --- PHOENIX: every logical target against its own term order ---
    let compiled = match compile(Target::Logical) {
        Ok(c) => c,
        Err(e) => {
            failures.push(Failure {
                pipeline: "PHOENIX/high-level".into(),
                check: "compiles".into(),
                metric: None,
                detail: e.to_string(),
            });
            return failures;
        }
    };
    record(
        &mut failures,
        "PHOENIX/high-level",
        "skeleton-identity",
        check_skeleton_identity(&compiled.circuit),
    );
    let phoenix_paths: Vec<(&str, Result<Circuit, phoenix_core::PhoenixError>)> = vec![
        ("PHOENIX/high-level", Ok(compiled.circuit.clone())),
        ("PHOENIX/cnot", compile(Target::Cnot).map(|o| o.circuit)),
        ("PHOENIX/su4", compile(Target::Su4).map(|o| o.circuit)),
        (
            "PHOENIX/kak",
            compile(Target::CnotViaKak).map(|o| o.circuit),
        ),
    ];
    let mut phoenix_cnot_unitary: Option<CMatrix> = None;
    for (pipeline, result) in phoenix_paths {
        let circuit = match result {
            Ok(c) => c,
            Err(e) => {
                failures.push(Failure {
                    pipeline: pipeline.to_string(),
                    check: "compiles".into(),
                    metric: None,
                    detail: e.to_string(),
                });
                continue;
            }
        };
        if dense {
            record(
                &mut failures,
                pipeline,
                "exact-unitary",
                check_exact_unitary(&circuit, &compiled.term_order),
            );
            if pipeline == "PHOENIX/cnot" {
                phoenix_cnot_unitary = Some(circuit_unitary(&circuit));
            }
        } else if states {
            record(
                &mut failures,
                pipeline,
                "exact-states",
                check_states_vs_order(
                    &circuit,
                    &compiled.term_order,
                    crate::engine::EXACT_TOL.max(crate::engine::EPSILON),
                    cfg.spot_states,
                    &mut rng,
                ),
            );
        }
    }

    // --- Baselines: logical + optimized against the reference order ---
    let baselines = [
        Baseline::Naive,
        Baseline::TketStyle,
        Baseline::PaulihedralStyle,
        Baseline::TetrisStyle,
    ];
    let mut optimized_unitaries: Vec<(String, CMatrix)> = Vec::new();
    for b in baselines {
        let name = Baseline::name(b);
        let logical = b.compile_logical(n, terms);
        record(
            &mut failures,
            &format!("{name}/logical"),
            "skeleton-identity",
            check_skeleton_identity(&logical),
        );
        let optimized = CompilerStrategy::compile_optimized(&b, n, terms);
        for (suffix, circuit) in [("logical", &logical), ("optimized", &optimized)] {
            let pipeline = format!("{name}/{suffix}");
            if dense {
                record(
                    &mut failures,
                    &pipeline,
                    "unitary-vs-reference",
                    check_unitary_vs_reference(circuit, terms),
                );
            } else if states {
                record(
                    &mut failures,
                    &pipeline,
                    "states-vs-reference",
                    check_states_vs_order(
                        circuit,
                        terms,
                        2.0 * reorder_tolerance(terms),
                        cfg.spot_states,
                        &mut rng,
                    ),
                );
            }
        }
        if dense {
            optimized_unitaries.push((name.to_string(), circuit_unitary(&optimized)));
        }
    }

    // --- Pairwise: every strategy against every other ---
    if dense {
        if let Some(u) = &phoenix_cnot_unitary {
            optimized_unitaries.push(("PHOENIX".to_string(), u.clone()));
        }
        for (i, (na, ua)) in optimized_unitaries.iter().enumerate() {
            for (nb, ub) in &optimized_unitaries[i + 1..] {
                record(
                    &mut failures,
                    &format!("{na}×{nb}"),
                    "pairwise-unitary",
                    check_unitary_pair(ua, ub, terms),
                );
            }
        }
    }

    // --- Hardware-aware: routed outputs, permutation-aware ---
    if cfg.hardware {
        let device = verification_device(n);
        let hardware: Vec<(String, Result<phoenix_core::HardwareProgram, String>)> = {
            let mut v = Vec::new();
            v.push((
                "PHOENIX/hardware".to_string(),
                compile(Target::Device(Device::bare(device.clone())))
                    .map_err(|e| e.to_string())
                    .and_then(|o| o.hardware.ok_or_else(|| "no hardware program".into())),
            ));
            for b in baselines {
                let logical = b.compile_logical(n, terms);
                v.push((
                    format!("{}/hardware", Baseline::name(b)),
                    phoenix_core::try_run_hardware_backend(
                        &logical,
                        &device,
                        &phoenix_router::RouterOptions::default(),
                        3,
                    )
                    .map_err(|e| e.to_string()),
                ));
            }
            v
        };
        for (pipeline, result) in hardware {
            let hw = match result {
                Ok(hw) => hw,
                Err(e) => {
                    failures.push(Failure {
                        pipeline,
                        check: "compiles".into(),
                        metric: None,
                        detail: e,
                    });
                    continue;
                }
            };
            record(
                &mut failures,
                &pipeline,
                "coupling-legal",
                check_coupling_legal(&hw.circuit, &device),
            );
            if device.num_qubits() <= cfg.unitary_max_qubits {
                record(
                    &mut failures,
                    &pipeline,
                    "routed-permutation",
                    check_routed_equivalence(
                        &hw.circuit,
                        &hw.logical,
                        &hw.initial_layout,
                        &hw.final_layout,
                    ),
                );
                // The logical snapshot itself must still implement the
                // program (hardware-aware ordering is just another
                // legitimate reordering).
                record(
                    &mut failures,
                    &pipeline,
                    "logical-vs-reference",
                    check_unitary_vs_reference(&hw.logical, terms),
                );
            }
        }
    }

    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Family, RandomProgramGen};

    #[test]
    fn random_programs_verify_on_all_paths() {
        let mut g = RandomProgramGen::new(2024);
        for (i, family) in Family::ALL.iter().enumerate() {
            let p = g.program(*family, 4 + i, 6);
            let failures = verify_program(&p, &VerifyConfig::default());
            assert!(failures.is_empty(), "{:?}", failures);
        }
    }

    #[test]
    fn large_programs_use_state_tier() {
        let mut g = RandomProgramGen::new(77);
        let p = g.program(Family::IsingLike, 12, 8);
        let cfg = VerifyConfig {
            hardware: false, // routing a 12-qubit line is fine but slow-ish
            ..VerifyConfig::default()
        };
        let failures = verify_program(&p, &cfg);
        assert!(failures.is_empty(), "{:?}", failures);
    }
}
