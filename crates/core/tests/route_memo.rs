//! Route-memo equivalence: a cached device compile routes each structure
//! once and binds every later compile's angles into the stored routing.
//!
//! The contract under test: with a [`CompileCache`] attached, a device
//! compile equals an uncached [`CompileRequest::run`] field for field
//! (circuit, hardware program, term order, groups, trace events), and the
//! route memo hits exactly when the router's angle-erased input, the
//! coupling graph, the router options and the layout trials all match an
//! earlier successful routing. Circuits are compared through their `Debug`
//! form, which tells `-0.0` from `0.0`.

use std::collections::HashSet;
use std::f64::consts::PI;
use std::sync::Arc;

use phoenix_circuit::{Circuit, Gate};
use phoenix_core::phoenix_obs::ObsReport;
use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, Device, DeviceRegistry, FleetOutcome,
    PhoenixError, PhoenixOptions, Target,
};
use phoenix_hamil::{qaoa, uccsd, Molecule};
use phoenix_pauli::PauliString;
use phoenix_router::RouterOptions;
use phoenix_topology::CouplingGraph;
use phoenix_verify::gen::{Family, RandomProgramGen};
use proptest::prelude::*;

/// The registry devices every random program is routed onto, all wide
/// enough for 12 qubits. `line:12@kak` shares `line:12`'s graph.
const DEVICES: [&str; 7] = [
    "line:12",
    "ring:12",
    "grid:3x4",
    "heavy-hex:3x5",
    "falcon27",
    "ion-trap:12",
    "line:12@kak",
];

fn with_angles(terms: &[(PauliString, f64)], angles: &[f64]) -> Vec<(PauliString, f64)> {
    terms
        .iter()
        .zip(angles)
        .map(|((p, _), a)| (p.clone(), *a))
        .collect()
}

/// The router's input with its angles erased: the gate kinds and qubits of
/// the pre-routing circuit, lowered as the router lowers it.
fn signature(logical: &Circuit) -> Vec<String> {
    logical
        .lower_to_cnot()
        .gates()
        .iter()
        .map(|g| match g {
            Gate::Rx(q, _) => format!("rx {q}"),
            Gate::Ry(q, _) => format!("ry {q}"),
            Gate::Rz(q, _) => format!("rz {q}"),
            other => format!("{other:?}"),
        })
        .collect()
}

/// Everything a route-memo key covers, in the test's own terms.
type Key = (Vec<String>, String, String, usize);

/// Predicts route lookups from the uncached compiles: a device compile
/// hits when an earlier one routed the same key successfully.
#[derive(Default)]
struct Predictor {
    routed: HashSet<Key>,
    hits: u64,
    misses: u64,
}

impl Predictor {
    /// Records the lookup the cached twin of `uncached` makes on `graph`
    /// (the device's topology, without its ISA suffix).
    fn lookup(
        &mut self,
        uncached: &Result<CompileOutcome, PhoenixError>,
        graph: &str,
        options: &PhoenixOptions,
        logical: Option<&Circuit>,
    ) {
        let Some(logical) = logical else { return };
        let key = (
            signature(logical),
            graph.to_string(),
            format!("{:?}", options.router),
            options.layout_trials,
        );
        if self.routed.contains(&key) {
            self.hits += 1;
        } else {
            self.misses += 1;
            if uncached.is_ok() {
                self.routed.insert(key);
            }
        }
    }
}

/// The pre-routing circuit of a device compile: from the hardware program,
/// or for a compile whose routing failed, by compiling to it directly.
fn pre_routing(
    n: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
    out: &Result<CompileOutcome, PhoenixError>,
) -> Option<Circuit> {
    match out {
        Ok(out) => out.hardware.as_ref().map(|hw| hw.logical.clone()),
        Err(PhoenixError::Pass(e)) if e.pass == "layout-route" => {
            let routing_aware = PhoenixOptions {
                routing_aware: true,
                ..options.clone()
            };
            let cnot = CompileRequest::new(n, terms)
                .options(routing_aware)
                .target(Target::Cnot)
                .run()
                .unwrap();
            Some(cnot.circuit)
        }
        Err(_) => None,
    }
}

/// Asserts that a cached compile equals the uncached one field for field.
/// A program-cache hit leaves only the lowering passes in the trace, so
/// the cached pass list must be a suffix of the uncached one.
fn assert_same(
    cached: &Result<CompileOutcome, PhoenixError>,
    uncached: &Result<CompileOutcome, PhoenixError>,
    what: &str,
) {
    match (cached, uncached) {
        (Ok(c), Ok(u)) => {
            assert_eq!(
                format!("{:?}", c.circuit),
                format!("{:?}", u.circuit),
                "circuit {what}"
            );
            assert_eq!(
                format!("{:?}", c.hardware),
                format!("{:?}", u.hardware),
                "hardware {what}"
            );
            assert_eq!(
                format!("{:?}", c.term_order),
                format!("{:?}", u.term_order),
                "term order {what}"
            );
            assert_eq!(c.num_groups, u.num_groups, "groups {what}");
            let (ct, ut) = (c.trace.as_ref().unwrap(), u.trace.as_ref().unwrap());
            assert!(
                ut.pass_names().ends_with(&ct.pass_names()),
                "passes {what}: {:?} vs {:?}",
                ct.pass_names(),
                ut.pass_names()
            );
            assert!(ct.pass_names().contains(&"layout-route"), "{what}");
            assert_eq!(ct.events, ut.events, "events {what}");
        }
        (Err(c), Err(u)) => assert_eq!(c.to_string(), u.to_string(), "error {what}"),
        _ => panic!(
            "{what}: cached {:?} vs uncached {:?}",
            cached.as_ref().err(),
            uncached.as_ref().err()
        ),
    }
}

/// Asserts that a cached fleet ranks the same members in the same order
/// as `reference`, with the same fidelities and outcomes.
fn assert_same_fleet(cached: &FleetOutcome, reference: &FleetOutcome, what: &str) {
    assert_eq!(cached.ranked.len(), reference.ranked.len(), "{what}");
    assert_eq!(cached.failed.len(), reference.failed.len(), "{what}");
    for (c, u) in cached.ranked.iter().zip(&reference.ranked) {
        assert_eq!(c.device.name(), u.device.name(), "{what}");
        assert_eq!(c.fidelity.to_bits(), u.fidelity.to_bits(), "{what}");
        assert_same(
            &Ok(c.outcome.clone()),
            &Ok(u.outcome.clone()),
            &format!("{what} @ {}", c.device.name()),
        );
    }
}

/// The second angle vector of a structure: values that can change what the
/// peephole merges or removes (0, ±π, multiples of 2π, ±1e-13), mixed
/// with generic ones.
fn special_angles(coefficients: &[f64], kinds: &[u8]) -> Vec<f64> {
    coefficients
        .iter()
        .zip(kinds.iter().cycle())
        .map(|(&c, &k)| match k {
            0 => 0.0,
            1 => PI,
            2 => -PI,
            3 => 2.0 * PI,
            4 => -4.0 * PI,
            5 => 1e-13,
            6 => -1e-13,
            _ => -0.73 * c,
        })
        .collect()
}

/// Router settings by index: the defaults, a reweighted lookahead, the
/// bridge, and a SWAP budget tight enough to make the retry ladder abandon
/// attempts (or fail outright).
fn router(variant: usize) -> RouterOptions {
    let base = RouterOptions::default();
    match variant {
        0 => base,
        1 => RouterOptions {
            extended_weight: 0.25,
            ..base
        },
        2 => RouterOptions {
            use_bridge: true,
            ..base
        },
        _ => RouterOptions {
            max_swaps: 2,
            ..base
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Two angle vectors per structure on every registry device (one cache
    /// per program, so devices share it) and a disconnected graph: every
    /// cached compile equals the uncached one, and the memo hits exactly
    /// where the predictor says.
    #[test]
    fn cached_device_compiles_equal_uncached_ones(
        seed in any::<u64>(),
        family in 0usize..3,
        n in 6usize..=12,
        num_terms in 4usize..=20,
        kinds in proptest::collection::vec(0u8..8, 1..=20),
        variant in 0usize..4,
        layout_trials in 1usize..=3,
    ) {
        let family = [Family::Random, Family::IsingLike, Family::UccsdLike][family];
        let program = RandomProgramGen::new(seed).program(family, n, num_terms);
        let coefficients: Vec<f64> = program.terms.iter().map(|(_, c)| *c).collect();
        let angle_vectors = [coefficients.clone(), special_angles(&coefficients, &kinds)];
        let options = PhoenixOptions {
            router: router(variant),
            layout_trials,
            ..PhoenixOptions::default()
        };
        let registry = DeviceRegistry::new();
        let mut devices: Vec<(String, Device)> = DEVICES
            .iter()
            .map(|spec| {
                let graph = spec.split('@').next().unwrap().to_string();
                (graph, registry.build(spec).unwrap())
            })
            .collect();
        // Two components: validation rejects it before anything is routed.
        let split = CouplingGraph::from_edges(12, (0..11).filter(|&q| q != 5).map(|q| (q, q + 1)));
        devices.push(("split:12".to_string(), Device::bare(split)));

        let cache = Arc::new(CompileCache::new());
        let mut predictor = Predictor::default();
        for (graph, device) in &devices {
            for (i, angles) in angle_vectors.iter().enumerate() {
                let terms = with_angles(&program.terms, angles);
                let request = |t: &[(PauliString, f64)]| {
                    CompileRequest::new(n, t)
                        .options(options.clone())
                        .target(Target::Device(device.clone()))
                        .trace(true)
                };
                let uncached = request(&terms).run();
                // The first vector compiles through `run`, as `phoenixd`
                // does; the second through `bind` on the program's own
                // request, the VQE entry point.
                let cached = if i == 0 {
                    request(&terms).cache(&cache).run()
                } else {
                    request(&program.terms).cache(&cache).bind(angles)
                };
                let logical = pre_routing(n, &terms, &options, &uncached);
                predictor.lookup(&uncached, graph, &options, logical.as_ref());
                assert_same(&cached, &uncached, &format!("{} angles {i}", device.name()));
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(
            (stats.route_hits, stats.route_misses),
            (predictor.hits, predictor.misses)
        );
        // One cached compile per routable device and angle vector.
        prop_assert_eq!(stats.route_hits + stats.route_misses, 2 * DEVICES.len() as u64);
    }
}

fn obs_counter(report: &ObsReport, name: &str) -> u64 {
    report.metrics.counter(name).unwrap_or(0)
}

/// Route spans of a compile, by name.
fn route_spans(report: &ObsReport) -> Vec<String> {
    let mut names = Vec::new();
    let mut stack = vec![&report.root];
    while let Some(span) = stack.pop() {
        if span.cat == "route" {
            names.push(span.name.clone());
        }
        stack.extend(span.children.iter());
    }
    names
}

#[test]
fn the_key_covers_graph_router_options_and_trials_but_not_the_isa() {
    let program = RandomProgramGen::new(17).program(Family::Random, 8, 24);
    let registry = DeviceRegistry::new();
    let cache = Arc::new(CompileCache::new());
    let weighted = PhoenixOptions {
        router: RouterOptions {
            extended_weight: 0.25,
            ..RouterOptions::default()
        },
        ..PhoenixOptions::default()
    };
    let one_trial = PhoenixOptions {
        layout_trials: 1,
        ..PhoenixOptions::default()
    };
    let defaults = PhoenixOptions::default();
    // (device, options, coefficient scale, expected hit).
    let steps: [(&str, &PhoenixOptions, f64, bool); 7] = [
        ("line:8", &defaults, 1.0, false),
        ("line:8", &defaults, -0.5, true),
        ("ring:8", &defaults, 1.0, false),
        ("line:8", &weighted, 1.0, false),
        ("line:8", &one_trial, 1.0, false),
        ("line:8@kak", &defaults, 0.25, true),
        ("line:8@su4", &defaults, 2.0, true),
    ];
    for (spec, options, scale, hit) in steps {
        let terms: Vec<(PauliString, f64)> = program
            .terms
            .iter()
            .map(|(p, c)| (p.clone(), c * scale))
            .collect();
        let device = registry.build(spec).unwrap();
        let request = || {
            CompileRequest::new(8, &terms)
                .options(options.clone())
                .target(Target::Device(device.clone()))
                .trace(true)
                .obs(true)
        };
        let before = cache.stats();
        let uncached = request().run();
        let cached = request().cache(&cache).run();
        assert_same(&cached, &uncached, spec);
        let after = cache.stats();
        assert_eq!(
            (
                after.route_hits - before.route_hits,
                after.route_misses - before.route_misses
            ),
            (u64::from(hit), u64::from(!hit)),
            "{spec} {options:?}"
        );

        let (cached, uncached) = (cached.unwrap().obs.unwrap(), uncached.unwrap().obs.unwrap());
        for metric in ["sabre_swaps", "router_retries"] {
            assert_eq!(
                obs_counter(&cached, metric),
                obs_counter(&uncached, metric),
                "{metric} {spec}"
            );
        }
        let device_qubits = |r: &ObsReport| {
            let gauge = r.metrics.gauges.iter().find(|g| g.name == "device_qubits");
            gauge.map(|g| g.value)
        };
        assert_eq!(device_qubits(&cached), device_qubits(&uncached));
        assert_eq!(obs_counter(&cached, "cache_route_hits"), u64::from(hit));
        assert_eq!(obs_counter(&cached, "cache_route_misses"), u64::from(!hit));
        if hit {
            assert_eq!(obs_counter(&cached, "router_attempts"), 0, "{spec}");
            assert_eq!(route_spans(&cached), ["route:memo"], "{spec}");
        } else {
            assert_eq!(
                obs_counter(&cached, "router_attempts"),
                obs_counter(&uncached, "router_attempts"),
                "{spec}"
            );
            assert_eq!(route_spans(&cached), route_spans(&uncached), "{spec}");
        }
    }
    assert_eq!(cache.num_routes(), 4);
}

#[test]
fn requests_the_cache_may_not_serve_never_consult_the_memo() {
    let program = RandomProgramGen::new(5).program(Family::IsingLike, 6, 10);
    let device = DeviceRegistry::new().build("line:6").unwrap();
    let cache = Arc::new(CompileCache::new());
    let budgeted = PhoenixOptions {
        pass_budget: Some(std::time::Duration::from_secs(3600)),
        ..PhoenixOptions::default()
    };
    let verified = PhoenixOptions {
        verify: true,
        ..PhoenixOptions::default()
    };
    for options in [budgeted, verified] {
        CompileRequest::new(6, &program.terms)
            .options(options)
            .target(Target::Device(device.clone()))
            .cache(&cache)
            .run()
            .unwrap();
    }
    // The hardware back end on another compiler's circuit has no cache.
    let logical = CompileRequest::new(6, &program.terms)
        .target(Target::Cnot)
        .run()
        .unwrap()
        .circuit;
    phoenix_core::try_run_hardware_backend(&logical, device.graph(), &RouterOptions::default(), 3)
        .unwrap();
    assert_eq!(cache.stats().route_hits + cache.stats().route_misses, 0);
    assert_eq!(cache.num_routes(), 0);
}

/// The device-route programs (Table IV graphs, LiH and NH frozen JW) on the
/// five device-route devices, one at a time and as a fleet: a second
/// cached compile with new coefficients is a route hit and equals an
/// uncached compile.
#[test]
fn device_route_programs_rebind_from_the_route_memo() {
    let mut programs = qaoa::table4_suite(11);
    for mol in [Molecule::lih(), Molecule::nh()] {
        programs.push(uccsd::ansatz(mol, true, uccsd::Encoding::JordanWigner, 3));
    }
    let registry = DeviceRegistry::new();
    let devices: Vec<Device> = [
        "grid:4x4",
        "falcon27",
        "manhattan65",
        "ion-trap:24",
        "line:16@kak",
    ]
    .iter()
    .map(|spec| registry.build(spec).unwrap())
    .collect();
    let cache = Arc::new(CompileCache::new());
    for h in &programs {
        let n = h.num_qubits();
        let rescaled: Vec<(PauliString, f64)> = h
            .terms()
            .iter()
            .enumerate()
            .map(|(i, (p, c))| (p.clone(), c * (0.5 + 0.01 * i as f64)))
            .collect();
        let fits: Vec<&Device> = devices
            .iter()
            .filter(|d| d.graph().num_qubits() >= n)
            .collect();
        for device in &fits {
            let request = |terms: &[(PauliString, f64)]| {
                CompileRequest::new(n, terms)
                    .target(Target::Device((*device).clone()))
                    .trace(true)
            };
            request(h.terms()).cache(&cache).run().unwrap();
            let before = cache.stats();
            let cached = request(&rescaled).cache(&cache).run();
            assert_eq!(
                cache.stats().route_hits,
                before.route_hits + 1,
                "{} @ {}",
                h.name(),
                device.name()
            );
            assert_same(
                &cached,
                &request(&rescaled).run(),
                &format!("{} @ {}", h.name(), device.name()),
            );
        }
        let members: Vec<Device> = fits.iter().map(|d| (*d).clone()).collect();
        let fleet = |terms: &[(PauliString, f64)], cache: Option<&Arc<CompileCache>>| {
            let request = CompileRequest::new(n, terms).trace(true);
            match cache {
                Some(cache) => request.cache(cache),
                None => request,
            }
            .fleet(&members)
            .unwrap()
        };
        let before = cache.stats();
        let cached = fleet(&rescaled, Some(&cache));
        assert_eq!(
            cache.stats().route_hits,
            before.route_hits + members.len() as u64,
            "fleet {}",
            h.name()
        );
        let uncached = fleet(&rescaled, None);
        assert_same_fleet(&cached, &uncached, &format!("fleet {}", h.name()));
    }
}

/// Fleet members whose devices share a coupling graph share a route-memo
/// key. A cached fleet routes with the first member on each graph before
/// the others start, so on a fresh cache the first routes and every other
/// member hits, in every run, and the ranking is the uncached fleet's and
/// the one-thread fleet's.
#[test]
fn same_graph_fleet_members_route_once() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 3);
    let n = h.num_qubits();
    let registry = DeviceRegistry::new();
    let members: Vec<Device> = ["line:12", "line:12@kak", "line:12@su4", "line:12@cnot"]
        .iter()
        .map(|spec| registry.build(spec).unwrap())
        .collect();
    let fleet = |fleet_threads: usize, cache: Option<&Arc<CompileCache>>| {
        let options = PhoenixOptions {
            fleet_threads,
            ..PhoenixOptions::default()
        };
        let request = CompileRequest::new(n, h.terms())
            .options(options)
            .trace(true);
        match cache {
            Some(cache) => request.cache(cache),
            None => request,
        }
        .fleet(&members)
        .unwrap()
    };
    let uncached = fleet(members.len(), None);
    let one_thread = fleet(1, Some(&Arc::new(CompileCache::new())));
    assert!(uncached.failed.is_empty(), "{:?}", uncached.failed);
    for run in 0..20 {
        let cache = Arc::new(CompileCache::new());
        let cached = fleet(members.len(), Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.route_misses, stats.route_hits), (1, 3), "run {run}");
        assert_same_fleet(&cached, &uncached, &format!("run {run} vs uncached"));
        assert_same_fleet(&cached, &one_thread, &format!("run {run} vs one thread"));
    }
}
