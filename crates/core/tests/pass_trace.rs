//! Observability-contract tests for [`PassTrace`].
//!
//! Traces must (a) survive a JSON round-trip unchanged, (b) name exactly
//! the passes the manager ran, in order, and (c) carry monotone cumulative
//! timings with before/after stats that chain between consecutive passes.

use phoenix_core::pass::CircuitStats;
use phoenix_core::{CompileOutcome, CompileRequest, Device, PassTrace, PhoenixOptions, Target};
use phoenix_pauli::PauliString;
use phoenix_topology::CouplingGraph;

fn fig1b() -> (usize, Vec<(PauliString, f64)>) {
    let terms = ["ZYY", "ZZY", "XYY", "XZY"]
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
        .collect();
    (3, terms)
}

/// Compiles with trace retention on; returns the outcome and its trace.
fn traced(
    options: PhoenixOptions,
    n: usize,
    terms: &[(PauliString, f64)],
    target: Target,
) -> (CompileOutcome, PassTrace) {
    let mut out = CompileRequest::new(n, terms)
        .options(options)
        .target(target)
        .trace(true)
        .run()
        .unwrap();
    let trace = out.trace.take().unwrap();
    (out, trace)
}

fn line3() -> Target {
    Target::Device(Device::bare(CouplingGraph::line(3)))
}

#[test]
fn trace_round_trips_through_json() {
    let (n, terms) = fig1b();
    let (_, trace) = traced(PhoenixOptions::default(), n, &terms, Target::Cnot);
    let json = serde_json::to_string(&trace).unwrap();
    let back: PassTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);

    let pretty = serde_json::to_string_pretty(&trace).unwrap();
    let back: PassTrace = serde_json::from_str(&pretty).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn trace_json_exposes_the_documented_schema() {
    let (n, terms) = fig1b();
    let (_, trace) = traced(PhoenixOptions::default(), n, &terms, Target::Logical);
    let value = serde_json::to_value(&trace).unwrap();
    let passes = value.get("passes").and_then(|p| p.as_array()).unwrap();
    assert_eq!(passes.len(), trace.passes.len());
    for record in passes {
        for key in ["name", "millis", "cumulative_millis", "before", "after"] {
            assert!(record.get(key).is_some(), "missing key `{key}`");
        }
        for side in ["before", "after"] {
            let stats = record.get(side).unwrap();
            for key in ["gates", "cnot", "two_qubit", "depth", "depth_2q"] {
                assert!(stats.get(key).is_some(), "missing `{side}.{key}`");
            }
        }
    }
}

#[test]
fn trace_names_match_each_entry_point() {
    let (n, terms) = fig1b();
    let names = |target| traced(PhoenixOptions::default(), n, &terms, target).1;
    let logical = ["group", "simplify-synth", "tetris-order", "concat"];

    let t = names(Target::Logical);
    assert_eq!(t.pass_names(), logical);

    let t = names(Target::Cnot);
    assert_eq!(t.pass_names(), [&logical[..], &["peephole"]].concat());

    let t = names(Target::Su4);
    assert_eq!(t.pass_names(), [&logical[..], &["su4-rebase"]].concat());

    let t = names(Target::CnotViaKak);
    assert_eq!(
        t.pass_names(),
        [&logical[..], &["su4-rebase", "kak-resynthesis", "peephole"]].concat()
    );

    let t = names(line3());
    assert_eq!(
        t.pass_names(),
        [
            &logical[..],
            &[
                "peephole",
                "snapshot-logical",
                "layout-route",
                "cnot-lower",
                "peephole"
            ]
        ]
        .concat()
    );
}

#[test]
fn ablation_options_rename_the_replaced_stages() {
    let (n, terms) = fig1b();
    let options = PhoenixOptions {
        enable_simplification: false,
        enable_ordering: false,
        ..PhoenixOptions::default()
    };
    let (_, t) = traced(options, n, &terms, Target::Logical);
    assert_eq!(
        t.pass_names(),
        ["group", "naive-synth", "program-order", "concat"]
    );
}

#[test]
fn trace_timings_are_monotone_and_stats_chain() {
    let (n, terms) = fig1b();
    let (hw, trace) = traced(PhoenixOptions::default(), n, &terms, line3());

    let mut cumulative = 0.0;
    for record in &trace.passes {
        assert!(record.millis >= 0.0);
        assert!(
            record.cumulative_millis >= cumulative,
            "cumulative timing regressed at `{}`",
            record.name
        );
        cumulative = record.cumulative_millis;
    }
    assert!(trace.total_millis() >= cumulative - f64::EPSILON);

    for pair in trace.passes.windows(2) {
        assert_eq!(
            pair[0].after, pair[1].before,
            "stats do not chain between `{}` and `{}`",
            pair[0].name, pair[1].name
        );
    }
    let last = trace.passes.last().unwrap();
    assert_eq!(last.after, CircuitStats::of(&hw.circuit));
}
