//! Split-path (structure/bind + cache) equivalence and gating tests.
//!
//! The contract under test: attaching a [`CompileCache`] never changes a
//! compilation's output — cold (cache miss), warm (cache hit), and legacy
//! (no cache) runs are bit-for-bit identical — and caching silently
//! disengages for requests it must not serve (pass budgets, verification).

use std::sync::Arc;

use phoenix_core::phoenix_cache::BindError;
use phoenix_core::{
    CacheStats, CompileCache, CompileOutcome, CompileRequest, DeviceRegistry, PhoenixError,
    PhoenixOptions, Target, EVENT_VERIFIED,
};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_pauli::PauliString;

fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
    labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.013 * (i + 1) as f64))
        .collect()
}

const PROGRAM: &[&str] = &["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX", "ZZI", "YIY"];

#[test]
fn cached_run_matches_legacy_bit_for_bit_across_targets() {
    let t = terms(PROGRAM);
    let registry = DeviceRegistry::new();
    let mut targets = vec![
        Target::Logical,
        Target::Cnot,
        Target::Su4,
        Target::CnotViaKak,
    ];
    // One device per native ISA, so the split path's lowering suffix is
    // checked against `run()`'s for each.
    for spec in ["line:3", "line:3@su4", "line:3@kak"] {
        targets.push(Target::Device(registry.build(spec).unwrap()));
    }
    for target in targets {
        let legacy = CompileRequest::new(3, &t)
            .target(target.clone())
            .trace(true)
            .run()
            .unwrap();
        let cache = Arc::new(CompileCache::new());
        let cold = CompileRequest::new(3, &t)
            .target(target.clone())
            .cache(&cache)
            .trace(true)
            .run()
            .unwrap();
        assert_eq!(
            cold.trace.as_ref().unwrap().pass_names(),
            legacy.trace.as_ref().unwrap().pass_names(),
            "pass list @ {target:?}"
        );
        let warm = CompileRequest::new(3, &t)
            .target(target.clone())
            .cache(&cache)
            .run()
            .unwrap();
        for (name, out) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(out.circuit, legacy.circuit, "{name} circuit @ {target:?}");
            assert_eq!(
                out.term_order, legacy.term_order,
                "{name} order @ {target:?}"
            );
            assert_eq!(
                out.num_groups, legacy.num_groups,
                "{name} groups @ {target:?}"
            );
            assert_eq!(out.hardware, legacy.hardware, "{name} routing @ {target:?}");
        }
        let stats = cache.stats();
        assert_eq!(stats.program_misses, 1, "@ {target:?}");
        assert_eq!(stats.program_hits, 1, "@ {target:?}");
    }
}

/// `count` angles for VQE sweep point `point`.
fn sweep_angles(point: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((point * 7 + i * 3) as f64).sin() * 0.4)
        .collect()
}

/// `program`'s Pauli strings with `angles` as their coefficients.
fn with_angles(program: &[(PauliString, f64)], angles: &[f64]) -> Vec<(PauliString, f64)> {
    program
        .iter()
        .zip(angles)
        .map(|((p, _), a)| (p.clone(), *a))
        .collect()
}

#[test]
fn rebinding_new_angles_matches_a_fresh_compile() {
    let lih = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let programs = [
        ("PROGRAM", 3, terms(PROGRAM)),
        ("LiH_frz_JW", lih.num_qubits(), lih.terms().to_vec()),
    ];
    for (name, n, program) in programs {
        let cache = Arc::new(CompileCache::new());
        let mut primed = None;
        for point in 0..12 {
            let angles = sweep_angles(point, program.len());
            let reparam = with_angles(&program, &angles);
            // Even points rebind through `bind`, odd ones through `run`
            // with the angles as coefficients: both take the warm path.
            let warm = if point % 2 == 0 {
                CompileRequest::new(n, &program).cache(&cache).bind(&angles)
            } else {
                CompileRequest::new(n, &reparam).cache(&cache).run()
            }
            .unwrap();
            let fresh = CompileRequest::new(n, &reparam).run().unwrap();
            assert_eq!(warm.circuit, fresh.circuit, "{name} point {point}");
            assert_eq!(warm.term_order, fresh.term_order, "{name} point {point}");
            // One structure compile serves the whole sweep: angles differ
            // between points but the angle-erased canonical IR (and so the
            // key) does not. The first point compiles each shape once;
            // every later one adds one program hit and touches no group.
            let stats = cache.stats();
            let (first, shapes) = *primed.get_or_insert((stats, cache.num_groups()));
            assert_eq!(first.group_misses, shapes as u64, "{name}");
            let expected = CacheStats {
                program_hits: point as u64,
                program_misses: 1,
                ..first
            };
            assert_eq!(stats, expected, "{name} point {point}");
            assert_eq!(cache.num_groups(), shapes, "{name} point {point}");
        }
        // A CNOT-target rebind through the same cache equals a fresh CNOT
        // compile too, and reuses the structure.
        let angles = sweep_angles(12, program.len());
        let warm = CompileRequest::new(n, &program)
            .target(Target::Cnot)
            .cache(&cache)
            .bind(&angles)
            .unwrap();
        let fresh = CompileRequest::new(n, &with_angles(&program, &angles))
            .target(Target::Cnot)
            .run()
            .unwrap();
        assert_eq!(warm.circuit, fresh.circuit, "{name} at Target::Cnot");
        assert_eq!(cache.stats().program_misses, 1, "{name} at Target::Cnot");
    }
}

#[test]
fn bind_substitutes_explicit_angles() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let angles: Vec<f64> = (0..t.len()).map(|i| 0.05 * (i as f64 + 1.0)).collect();
    let bound = CompileRequest::new(3, &t)
        .cache(&cache)
        .bind(&angles)
        .unwrap();
    // Equivalent to compiling a program that had these coefficients.
    let fresh = CompileRequest::new(3, &with_angles(&t, &angles))
        .run()
        .unwrap();
    assert_eq!(bound.circuit, fresh.circuit);
    assert_eq!(bound.term_order, fresh.term_order);
}

/// Without a cache, `bind` is `run` on the program with the angles as its
/// coefficients, bit for bit, on every target.
#[test]
fn uncached_bind_equals_uncached_run() {
    let t = terms(PROGRAM);
    let angles = sweep_angles(5, t.len());
    let registry = DeviceRegistry::new();
    let targets = [
        Target::Logical,
        Target::Cnot,
        Target::Su4,
        Target::CnotViaKak,
        Target::Device(registry.build("line:3@kak").unwrap()),
    ];
    for target in targets {
        let bound = CompileRequest::new(3, &t)
            .target(target.clone())
            .trace(true)
            .bind(&angles)
            .unwrap();
        let run = CompileRequest::new(3, &with_angles(&t, &angles))
            .target(target.clone())
            .trace(true)
            .run()
            .unwrap();
        assert_eq!(
            format!("{:?}", bound.circuit),
            format!("{:?}", run.circuit),
            "{target:?}"
        );
        assert_eq!(
            format!("{:?}", bound.term_order),
            format!("{:?}", run.term_order),
            "{target:?}"
        );
        assert_eq!(bound.hardware, run.hardware, "{target:?}");
        assert_eq!(
            bound.trace.unwrap().pass_names(),
            run.trace.unwrap().pass_names(),
            "{target:?}"
        );
    }
}

/// A wrong-length or non-finite angle vector is the same `BindError`
/// whether `bind` runs with a cache, without one, or under a budget.
#[test]
fn bind_rejects_malformed_angle_vectors() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let budgeted = PhoenixOptions {
        pass_budget: Some(std::time::Duration::from_secs(3600)),
        ..PhoenixOptions::default()
    };
    let requests = [
        ("cached", CompileRequest::new(3, &t).cache(&cache)),
        ("uncached", CompileRequest::new(3, &t)),
        ("budgeted", CompileRequest::new(3, &t).options(budgeted)),
    ];
    let mut nan = vec![0.1; t.len()];
    nan[2] = f64::NAN;
    for (label, request) in requests {
        let err = request.clone().bind(&[0.1]).unwrap_err();
        assert!(
            matches!(
                err,
                PhoenixError::Bind(BindError::AngleCount {
                    expected: 8,
                    got: 1
                })
            ),
            "{label}: {err}"
        );
        let err = request.bind(&nan).unwrap_err();
        assert!(
            matches!(
                err,
                PhoenixError::Bind(BindError::NonFiniteAngle { slot: 2, .. })
            ),
            "{label}: {err}"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.program_hits + stats.program_misses, 0);
}

#[test]
fn structure_artifact_is_reusable_directly() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let art = CompileRequest::new(3, &t)
        .cache(&cache)
        .structure()
        .unwrap();
    assert_eq!(art.num_slots(), t.len());
    let angles: Vec<f64> = t.iter().map(|(_, c)| *c).collect();
    let bound = art.bind(&angles).unwrap();
    let legacy = CompileRequest::new(3, &t).run().unwrap();
    assert_eq!(bound.circuit, legacy.circuit);
    assert_eq!(bound.term_order, legacy.term_order);
    // The artifact landed in the program cache, so a subsequent run() hits.
    let _ = CompileRequest::new(3, &t).cache(&cache).run().unwrap();
    assert_eq!(cache.stats().program_hits, 1);
}

#[test]
fn budget_and_verify_requests_bypass_the_cache() {
    let t = terms(PROGRAM);
    let angles: Vec<f64> = t.iter().map(|(_, c)| *c).collect();
    let cache = Arc::new(CompileCache::new());
    let budgeted = PhoenixOptions {
        pass_budget: Some(std::time::Duration::from_secs(3600)),
        ..PhoenixOptions::default()
    };
    let verified = PhoenixOptions {
        verify: true,
        ..PhoenixOptions::default()
    };
    let verified_passes = |out: &CompileOutcome| -> Vec<String> {
        let trace = out.trace.as_ref().unwrap();
        let events = trace.events.iter().filter(|e| e.kind == EVENT_VERIFIED);
        events.map(|e| e.pass.clone()).collect()
    };
    for options in [budgeted, verified] {
        let request = CompileRequest::new(3, &t)
            .options(options)
            .cache(&cache)
            .trace(true);
        let run = request.clone().run().unwrap();
        // `structure` compiles uncached too, verifier and budget included.
        let artifact = request.clone().structure().unwrap();
        assert_eq!(artifact.num_slots(), t.len());
        // `bind` with the request's own coefficients compiles exactly as
        // `run`: it keeps the verifier and reports the anytime depth.
        let bound = request.bind(&angles).unwrap();
        assert_eq!(bound.circuit, run.circuit);
        assert_eq!(bound.depth_reached, run.depth_reached);
        assert_eq!(verified_passes(&bound), verified_passes(&run));
        assert!(run.depth_reached.is_some() || !verified_passes(&run).is_empty());
    }
    let stats = cache.stats();
    assert_eq!(stats.program_hits + stats.program_misses, 0);
    assert_eq!(stats.group_hits + stats.group_misses, 0);
    assert_eq!(cache.num_programs(), 0);
}

#[test]
fn different_options_key_different_artifacts() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let _ = CompileRequest::new(3, &t).cache(&cache).run().unwrap();
    let no_order = PhoenixOptions {
        enable_ordering: false,
        ..PhoenixOptions::default()
    };
    let out = CompileRequest::new(3, &t)
        .options(no_order.clone())
        .cache(&cache)
        .run()
        .unwrap();
    // Second options set missed (different fingerprint) and produced the
    // same output as its own legacy run.
    assert_eq!(cache.stats().program_misses, 2);
    let legacy = CompileRequest::new(3, &t).options(no_order).run().unwrap();
    assert_eq!(out.circuit, legacy.circuit);
}

#[test]
fn group_cache_is_shared_across_programs() {
    // Two different programs containing the same group: the second program
    // misses at program level but reuses the group artifact.
    let a = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
    let mut b = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
    b.push(("ZII".parse().unwrap(), 0.2));
    let cache = Arc::new(CompileCache::new());
    let _ = CompileRequest::new(3, &a).cache(&cache).run().unwrap();
    let out_b = CompileRequest::new(3, &b).cache(&cache).run().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.program_misses, 2);
    assert!(stats.group_hits >= 1, "stats: {stats:?}");
    let legacy_b = CompileRequest::new(3, &b).run().unwrap();
    assert_eq!(out_b.circuit, legacy_b.circuit);
    assert_eq!(out_b.term_order, legacy_b.term_order);
}

#[test]
fn group_cache_is_shared_across_relabelled_programs() {
    // The second program's groups are the first's placed on other qubits
    // in the same order (and with other coefficients): every one of its
    // group shapes hits, and it still equals its own cold compile.
    let a: Vec<(PauliString, f64)> = terms(&[
        "ZYYIII", "ZZYIII", "XYYIII", "XZYIII", "IIIZZI", "IIIXXI", "IIIYZI",
    ]);
    let b: Vec<(PauliString, f64)> = [
        "IZIYIY", "IZIZIY", "IXIYIY", "IXIZIY", "ZIIIZI", "XIIIXI", "YIIIZI",
    ]
    .iter()
    .enumerate()
    .map(|(i, l)| (l.parse().unwrap(), -0.021 * (i + 2) as f64))
    .collect();
    let cache = Arc::new(CompileCache::new());
    let _ = CompileRequest::new(6, &a)
        .target(Target::Cnot)
        .cache(&cache)
        .run()
        .unwrap();
    let before = cache.stats();
    assert_eq!((before.group_hits, before.group_misses), (0, 2));
    let out_b = CompileRequest::new(6, &b)
        .target(Target::Cnot)
        .cache(&cache)
        .run()
        .unwrap();
    let after = cache.stats();
    assert_eq!(
        after.program_misses, 2,
        "a relabelled program is a new program"
    );
    assert_eq!(after.group_hits - before.group_hits, 2, "stats: {after:?}");
    assert_eq!(after.group_misses, before.group_misses, "stats: {after:?}");
    assert_eq!(cache.num_groups(), 2);
    let cold_b = CompileRequest::new(6, &b)
        .target(Target::Cnot)
        .run()
        .unwrap();
    assert_eq!(out_b.circuit, cold_b.circuit);
    assert_eq!(out_b.term_order, cold_b.term_order);
}

#[test]
fn obs_report_carries_cache_counters_and_bind_span() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let cold = CompileRequest::new(3, &t)
        .target(Target::Cnot)
        .cache(&cache)
        .trace(true)
        .obs(true)
        .run()
        .unwrap();
    let report = cold.obs.unwrap();
    assert_eq!(report.metrics.counter("cache_program_misses"), Some(1));
    assert!(report.root.find("bind").is_some());
    let warm = CompileRequest::new(3, &t)
        .target(Target::Cnot)
        .cache(&cache)
        .obs(true)
        .trace(true)
        .run()
        .unwrap();
    let report = warm.obs.unwrap();
    assert_eq!(report.metrics.counter("cache_program_hits"), Some(1));
    // On a hit the trace honestly shows only what ran: the lowering.
    let trace = warm.trace.unwrap();
    let names: Vec<&str> = trace.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["peephole"]);
}
