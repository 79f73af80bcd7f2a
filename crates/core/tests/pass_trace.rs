//! Observability-contract tests for [`PassTrace`].
//!
//! Traces must (a) survive a JSON round-trip unchanged, (b) name exactly
//! the passes the manager ran, in order, and (c) carry monotone cumulative
//! timings with before/after stats that chain between consecutive passes.
//! An instrumented compile's pass spans and boundary counters must (d) come
//! from the same measurements as its trace, and (e) one that keeps no trace
//! must count the same and build no span.

use std::sync::Arc;
use std::time::Duration;

use phoenix_core::pass::{CircuitStats, CompileContext, PassManager};
use phoenix_core::passes::{ConcatPass, GroupPass, OrderPass, SimplifySynthPass};
use phoenix_core::phoenix_obs::{MetricId, ObsCollector, ObsReport};
use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, Device, EventKind, PassTrace, PhoenixOptions,
    Target, EVENT_DEGRADED, EVENT_RETRIED, EVENT_TRUNCATED, EVENT_VERIFIED,
};
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

/// Uncached, then through a cold and a warm cache: the cached path runs
/// the structure phase (when it misses) and the lowering as two managers on
/// one clock.
#[test]
fn trace_timings_are_monotone_and_stats_chain() {
    let (n, terms) = fig1b();
    let cache = Arc::new(CompileCache::new());
    for (label, cache) in [
        ("uncached", None),
        ("cold", Some(&cache)),
        ("warm", Some(&cache)),
    ] {
        let mut request = CompileRequest::new(n, &terms).target(line3()).trace(true);
        if let Some(cache) = cache {
            request = request.cache(cache);
        }
        let hw = request.run().unwrap();
        let trace = hw.trace.as_ref().unwrap();

        let mut cumulative = 0.0;
        for record in &trace.passes {
            assert!(record.millis >= 0.0);
            assert!(
                record.cumulative_millis >= cumulative,
                "{label}: cumulative timing regressed at `{}`",
                record.name
            );
            cumulative = record.cumulative_millis;
        }
        assert!(trace.total_millis() >= cumulative - f64::EPSILON);
        let summed: f64 = trace.passes.iter().map(|p| p.millis).sum();
        assert!(
            trace.total_millis() + 1e-9 >= summed,
            "{label}: total {} ms under the {summed} ms its passes took",
            trace.total_millis()
        );

        for pair in trace.passes.windows(2) {
            assert_eq!(
                pair[0].after, pair[1].before,
                "{label}: stats do not chain between `{}` and `{}`",
                pair[0].name, pair[1].name
            );
        }
        let last = trace.passes.last().unwrap();
        assert_eq!(last.after, CircuitStats::of(&hw.circuit), "{label}");
    }
    let stats = cache.stats();
    assert_eq!((stats.program_misses, stats.program_hits), (1, 1));
}

/// Compiles with both trace retention and instrumentation on.
fn instrumented(
    options: PhoenixOptions,
    target: Target,
    cache: Option<&Arc<CompileCache>>,
) -> (PassTrace, ObsReport) {
    let (n, terms) = fig1b();
    let mut request = CompileRequest::new(n, &terms)
        .options(options)
        .target(target)
        .trace(true)
        .obs(true);
    if let Some(cache) = cache {
        request = request.cache(cache);
    }
    let out = request.run().unwrap();
    (out.trace.unwrap(), out.obs.unwrap())
}

fn zero_budget() -> PhoenixOptions {
    PhoenixOptions {
        pass_budget: Some(Duration::ZERO),
        ..PhoenixOptions::default()
    }
}

fn verifying() -> PhoenixOptions {
    PhoenixOptions {
        verify: true,
        ..PhoenixOptions::default()
    }
}

/// The counter each event kind feeds; `round-abandoned` feeds none.
const FED: [(&str, EventKind); 4] = [
    ("stage2_truncated", EVENT_TRUNCATED),
    ("boundaries_verified", EVENT_VERIFIED),
    ("router_retries", EVENT_RETRIED),
    ("stage2_degraded", EVENT_DEGRADED),
];

#[test]
fn obs_counters_fold_the_trace_events() {
    let mut raised = [0usize; FED.len()];
    for (options, target) in [
        (zero_budget(), Target::Cnot),
        (zero_budget(), line3()),
        (verifying(), Target::Cnot),
        (verifying(), line3()),
    ] {
        let (trace, report) = instrumented(options, target, None);
        let counter = |name| report.metrics.counter(name).unwrap();
        for (i, (name, kind)) in FED.into_iter().enumerate() {
            let n = trace.events_of_kind(kind).len();
            assert_eq!(counter(name), n as u64, "`{name}` against `{kind}` events");
            raised[i] += n;
        }
        assert_eq!(counter("passes_run"), trace.passes.len() as u64);
        assert_eq!(report.events, trace.events);
    }
    // The compiles above raise every kind they are meant to exercise.
    assert!(raised[..2].iter().all(|&n| n > 0), "{raised:?}");
}

#[test]
fn degraded_groups_are_counted_at_their_boundary() {
    let (n, terms) = fig1b();
    let mut ctx = CompileContext::new(n, &terms);
    let obs = Arc::new(ObsCollector::new());
    ctx.obs = Some(obs.clone());
    let pm = PassManager::new()
        .with(GroupPass)
        .with(SimplifySynthPass {
            fault_inject_group: Some(0),
            ..SimplifySynthPass::default()
        })
        .with(OrderPass::default())
        .with(ConcatPass);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the contained panic stays quiet
    let trace = pm.run(&mut ctx);
    std::panic::set_hook(prev);
    let trace = trace.unwrap();
    let m = obs.metrics();
    assert_eq!(trace.events_of_kind(EVENT_DEGRADED).len(), 1);
    assert_eq!(m.counter(MetricId::Stage2Degraded), 1);
    assert_eq!(m.counter(MetricId::PassesRun), 4);
}

#[test]
fn each_pass_span_is_its_trace_record() {
    let cache = Arc::new(CompileCache::new());
    let compiles = [
        (PhoenixOptions::default(), Target::Cnot, None),
        (PhoenixOptions::default(), Target::CnotViaKak, None),
        (zero_budget(), line3(), None),
        (verifying(), line3(), None),
        // Cold and warm split paths: a structure phase (or none) plus the
        // lowering, with a `bind` span between them.
        (PhoenixOptions::default(), line3(), Some(&cache)),
        (PhoenixOptions::default(), line3(), Some(&cache)),
    ];
    for (options, target, cache) in compiles {
        let (trace, report) = instrumented(options, target, cache);
        let spans: Vec<_> = report
            .root
            .children
            .iter()
            .filter(|s| s.cat == "pass")
            .collect();
        assert_eq!(spans.len(), trace.passes.len());
        for (span, record) in spans.into_iter().zip(&trace.passes) {
            assert_eq!(span.name, record.name);
            let gap_us = (span.dur_us as f64 - record.millis * 1e3).abs();
            assert!(gap_us <= 1.0, "`{}`: {gap_us} µs apart", record.name);
            let (b, a) = (record.before, record.after);
            let expected = [
                ("gates_before", b.gates),
                ("gates_after", a.gates),
                ("cnot_before", b.cnot),
                ("cnot_after", a.cnot),
                ("two_qubit_before", b.two_qubit),
                ("two_qubit_after", a.two_qubit),
                ("depth_before", b.depth),
                ("depth_after", a.depth),
                ("depth_2q_before", b.depth_2q),
                ("depth_2q_after", a.depth_2q),
            ]
            .map(|(k, v)| (k.to_string(), v.to_string()));
            assert_eq!(span.args, expected, "`{}`", record.name);
        }
    }
}

/// What an obs report records besides its spans.
fn counted(report: &ObsReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &report.metrics.counters,
        &report.metrics.histograms,
        &report.events,
    )
}

/// `compile` run with `obs(true)` alone and with `trace(true).obs(true)`:
/// both count the same, the first builds no span, and the second builds
/// one pass span per record of its trace, in order. Returns both reports.
fn assert_only_the_trace_builds_spans(
    label: &str,
    mut compile: impl FnMut(bool) -> CompileOutcome,
) -> (ObsReport, ObsReport) {
    let (plain, traced) = (compile(false), compile(true));
    let trace = traced.trace.unwrap();
    let (plain, traced) = (plain.obs.unwrap(), traced.obs.unwrap());
    assert_eq!(counted(&plain), counted(&traced), "{label}");
    assert_eq!(plain.root.name, "pipeline", "{label}");
    assert!(plain.root.children.is_empty(), "{label}: {:?}", plain.root);
    let passes: Vec<&str> = traced
        .root
        .children
        .iter()
        .filter(|s| s.cat == "pass")
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(passes, trace.pass_names(), "{label}");
    let passes_run = plain.metrics.counter("passes_run");
    assert_eq!(passes_run, Some(trace.passes.len() as u64), "{label}");
    (plain, traced)
}

#[test]
fn an_obs_compile_without_its_trace_counts_but_builds_no_span() {
    let (n, terms) = fig1b();
    let request = |options: PhoenixOptions, target: Target, trace: bool| {
        CompileRequest::new(n, &terms)
            .options(options)
            .target(target)
            .trace(trace)
            .obs(true)
    };
    for (label, options, target) in [
        ("unsplit", PhoenixOptions::default(), Target::Cnot),
        ("unsplit device", PhoenixOptions::default(), line3()),
        ("zero budget", zero_budget(), Target::Cnot),
        ("zero budget device", zero_budget(), line3()),
    ] {
        assert_only_the_trace_builds_spans(label, |trace| {
            request(options.clone(), target.clone(), trace)
                .run()
                .unwrap()
        });
    }

    // Cached binds, cold then warm, through a cache of their own per
    // setting so both settings see the same hits and misses. The warm
    // device bind binds into the cold one's routing.
    let angles = [[0.1, -0.2, 0.3, 0.05], [0.25, 0.15, -0.1, 0.4]];
    for target in [Target::Cnot, line3()] {
        let caches = [false, true].map(|_| Arc::new(CompileCache::new()));
        for (phase, angles) in ["cold", "warm"].into_iter().zip(&angles) {
            let label = format!("{phase} {target:?}");
            let (plain, traced) = assert_only_the_trace_builds_spans(&label, |trace| {
                request(PhoenixOptions::default(), target.clone(), trace)
                    .cache(&caches[usize::from(trace)])
                    .bind(angles)
                    .unwrap()
            });
            assert!(traced.root.find("bind").is_some(), "{label}");
            if phase == "warm" && target != Target::Cnot {
                assert_eq!(plain.metrics.counter("cache_route_hits"), Some(1));
                let route = traced.root.find("layout-route").unwrap();
                let children: Vec<&str> = route.children.iter().map(|s| s.name.as_str()).collect();
                assert_eq!(children, ["route:memo"], "{label}");
            }
        }
    }

    // Fleet members, each compiled as its device target.
    let devices = [CouplingGraph::line(3), CouplingGraph::ring(3)].map(Device::bare);
    let fleet = |trace: bool| {
        request(PhoenixOptions::default(), Target::Logical, trace)
            .fleet(&devices)
            .unwrap()
    };
    let (plain, traced) = (fleet(false), fleet(true));
    assert_eq!(plain.ranked.len(), devices.len());
    for (p, t) in plain.ranked.into_iter().zip(traced.ranked) {
        let label = format!("fleet member {}", p.device.name());
        let mut members = [Some(p.outcome), Some(t.outcome)];
        assert_only_the_trace_builds_spans(&label, |trace| {
            members[usize::from(trace)].take().unwrap()
        });
    }
}
