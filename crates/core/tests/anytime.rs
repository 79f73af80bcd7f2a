//! Pins for the anytime iterative-deepening path.
//!
//! Three contracts are pinned here. First, **unbudgeted compiles take the
//! exact legacy code path**: with `pass_budget: None` the anytime pass is
//! never even constructed, so every target must stay bit-for-bit
//! identical to the pre-anytime goldens (the monolithic stage functions,
//! re-implemented verbatim below). Second, **budgeted compiles are a pure
//! function of the logical budget**: `depth_reached` and the returned
//! circuit are deterministic for a fixed `anytime_rounds` cap regardless of
//! `stage2_threads`/`stage2_scan_threads`, checked by a property test.
//! Third, **rounds are kept by what the target delivers**: at
//! `Target::Cnot` the CNOT circuit a client receives never gets worse with
//! a deeper cap, and the full schedule is never worse than the unbudgeted
//! compile.

use std::sync::Arc;
use std::time::Duration;

use phoenix_circuit::{peephole, Circuit};
use phoenix_core::group::group_by_support;
use phoenix_core::order::{order_groups, OrderOptions};
use phoenix_core::simplify::simplify_terms;
use phoenix_core::synth::synthesize_group;
use phoenix_core::{
    CompileCache, CompileRequest, CompilerStrategy, Device, PhoenixCompiler, PhoenixOptions, Target,
};
use phoenix_hamil::{models, uccsd, Molecule};
use phoenix_pauli::PauliString;
use phoenix_topology::CouplingGraph;
use proptest::prelude::*;

/// The Fig. 1(b) example program.
fn fig1b() -> (usize, Vec<(PauliString, f64)>) {
    let terms = ["ZYY", "ZZY", "XYY", "XZY"]
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
        .collect();
    (3, terms)
}

/// A UCCSD ansatz instance (LiH, frozen core, Jordan–Wigner).
fn uccsd_lih() -> (usize, Vec<(PauliString, f64)>) {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    (h.num_qubits(), h.terms().to_vec())
}

/// The pre-anytime logical pipeline, verbatim from the stage functions.
fn monolithic_compile(n: usize, terms: &[(PauliString, f64)], options: &PhoenixOptions) -> Circuit {
    let groups = group_by_support(n, terms);
    let (subcircuits, group_terms): (Vec<Circuit>, Vec<Vec<(PauliString, f64)>>) = groups
        .iter()
        .map(|g| {
            let s = simplify_terms(n, g.terms());
            (synthesize_group(&s), s.term_sequence())
        })
        .unzip();
    let perm = order_groups(
        &subcircuits,
        &OrderOptions {
            lookahead: options.lookahead,
            routing_aware: options.routing_aware,
        },
    );
    let mut circuit = Circuit::new(n);
    let mut term_order = Vec::with_capacity(terms.len());
    for i in perm {
        circuit.append(&subcircuits[i]);
        term_order.extend(group_terms[i].iter().cloned());
    }
    circuit
}

/// Satellite pin: with no `pass_budget`, all five targets stay
/// bit-for-bit on the legacy path — the anytime machinery must be
/// unobservable (no `anytime-deepen` pass, no `depth_reached`, identical
/// circuits).
#[test]
fn unbudgeted_entry_points_match_the_pre_anytime_goldens() {
    for (n, terms) in [fig1b(), uccsd_lih()] {
        let compiler = PhoenixCompiler::default();
        let golden = monolithic_compile(n, &terms, &compiler.options);
        let compile = |target| compiler.request(n, &terms).target(target).run().unwrap();

        let logical = compiler
            .request(n, &terms)
            .target(Target::Logical)
            .trace(true)
            .run()
            .unwrap();
        assert_eq!(logical.circuit, golden, "logical diverged");
        assert_eq!(logical.depth_reached, None, "legacy path reported a depth");
        let names: Vec<&str> = logical
            .trace
            .as_ref()
            .unwrap()
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(
            !names.contains(&"anytime-deepen"),
            "anytime pass leaked into the unbudgeted chain: {names:?}"
        );
        assert!(names.contains(&"simplify-synth"), "{names:?}");

        assert_eq!(
            compile(Target::Cnot).circuit,
            peephole::optimize(&golden),
            "CNOT diverged"
        );
        assert_eq!(
            compile(Target::Su4).circuit,
            phoenix_circuit::rebase::to_su4(&golden),
            "SU(4) diverged"
        );
        assert_eq!(
            compile(Target::CnotViaKak).circuit,
            peephole::optimize(&phoenix_circuit::kak::resynthesize(
                &phoenix_circuit::rebase::to_su4(&golden)
            )),
            "KAK diverged"
        );
    }
}

/// The hardware target stays pinned too: an unbudgeted hardware-aware
/// compile equals PHOENIX's hardware strategy and reports no deepening
/// depth.
#[test]
fn unbudgeted_hardware_entry_point_stays_on_the_legacy_path() {
    let (n, terms) = fig1b();
    let device = CouplingGraph::line(3);
    let out = CompileRequest::new(n, &terms)
        .target(Target::Device(Device::bare(device.clone())))
        .run()
        .unwrap();
    assert_eq!(out.depth_reached, None);
    assert_eq!(
        PhoenixCompiler::default().compile_hardware(n, &terms, &device),
        out.hardware.unwrap()
    );
}

/// A budgeted request runs the anytime pass: the trace shows it, the
/// outcome reports the depth, and a roomy wall budget with an uncapped
/// schedule converges to (at least) legacy quality. `bind` with the same
/// angles compiles exactly as `run`, with or without a cache attached, and
/// leaves the cache untouched.
#[test]
fn budgeted_requests_deepen_and_report_their_depth() {
    let (n, terms) = fig1b();
    let compiler = PhoenixCompiler::default();
    let golden = monolithic_compile(n, &terms, &compiler.options);
    let options = PhoenixOptions {
        pass_budget: Some(Duration::from_secs(600)),
        ..PhoenixOptions::default()
    };

    let out = CompileRequest::new(n, &terms)
        .options(options.clone())
        .trace(true)
        .run()
        .unwrap();
    assert_eq!(out.depth_reached, Some(phoenix_core::MAX_ROUNDS));
    let names: Vec<&str> = out
        .trace
        .as_ref()
        .unwrap()
        .passes
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert!(names.contains(&"anytime-deepen"), "{names:?}");

    let cost = |c: &Circuit| (c.counts().two_qubit(), c.depth_2q(), c.counts().total);
    assert!(
        cost(&out.circuit) <= cost(&golden),
        "full deepening schedule worse than legacy: {:?} vs {:?}",
        cost(&out.circuit),
        cost(&golden)
    );

    let angles: Vec<f64> = terms.iter().map(|(_, c)| *c).collect();
    let cache = Arc::new(CompileCache::new());
    for cached in [false, true] {
        let mut request = CompileRequest::new(n, &terms).options(options.clone());
        if cached {
            request = request.cache(&cache);
        }
        let bound = request.bind(&angles).unwrap();
        assert_eq!(bound.depth_reached, out.depth_reached, "cached: {cached}");
        assert_eq!(bound.circuit, out.circuit, "cached: {cached}");
    }
    let stats = cache.stats();
    assert_eq!(stats.program_hits + stats.program_misses, 0);
    assert_eq!(cache.num_programs(), 0);
}

/// The quality key a `Target::Cnot` client receives: CNOTs, then 2Q
/// depth, then gates.
fn delivered_key(c: &Circuit) -> (usize, usize, usize) {
    (c.counts().two_qubit(), c.depth_2q(), c.counts().total)
}

/// A budgeted `Target::Cnot` compile under a wall budget too large to
/// interrupt, capped at `rounds`.
fn budgeted_cnot(
    n: usize,
    terms: &[(PauliString, f64)],
    rounds: usize,
) -> phoenix_core::CompileOutcome {
    CompileRequest::new(n, terms)
        .options(PhoenixOptions {
            pass_budget: Some(Duration::from_secs(600)),
            anytime_rounds: Some(rounds),
            ..PhoenixOptions::default()
        })
        .target(Target::Cnot)
        .run()
        .unwrap()
}

/// Every Table I program at `Target::Cnot`: the full schedule delivers no
/// more CNOTs (then 2Q depth, then gates) than the unbudgeted compile,
/// because each round is scored on its peephole-lowered circuit rather
/// than on the logical one.
#[test]
fn full_schedule_is_never_worse_than_unbudgeted_on_table1() {
    for h in uccsd::table1_suite(7) {
        let (n, terms) = (h.num_qubits(), h.terms());
        let unbudgeted = CompileRequest::new(n, terms)
            .target(Target::Cnot)
            .run()
            .unwrap();
        let deep = budgeted_cnot(n, terms, phoenix_core::MAX_ROUNDS);
        assert!(
            delivered_key(&deep.circuit) <= delivered_key(&unbudgeted.circuit),
            "{}: full schedule {:?} vs unbudgeted {:?}",
            h.name(),
            delivered_key(&deep.circuit),
            delivered_key(&unbudgeted.circuit)
        );
    }
}

/// The quality-vs-budget curve at `Target::Cnot` on a UCCSD ansatz and two
/// spin chains: every cap is reached, the delivered key never rises with
/// the cap, and deepening pays on the UCCSD program.
#[test]
fn delivered_quality_is_monotone_in_the_round_cap() {
    let (lih_n, lih) = uccsd_lih();
    let tfim = models::tfim_chain(10, 1.0, 0.5);
    let heisenberg = models::heisenberg_chain(10, 1.0, 1.0, 1.0);
    let programs = [
        ("LiH_frz_JW", lih_n, lih),
        ("TFIM_chain_10", tfim.num_qubits(), tfim.terms().to_vec()),
        (
            "Heisenberg_10",
            heisenberg.num_qubits(),
            heisenberg.terms().to_vec(),
        ),
    ];
    for (name, n, terms) in &programs {
        let mut curve = Vec::new();
        for cap in [0, 1, 2, 4, 6, phoenix_core::MAX_ROUNDS] {
            let out = budgeted_cnot(*n, terms, cap);
            assert_eq!(out.depth_reached, Some(cap), "{name}");
            curve.push(delivered_key(&out.circuit));
        }
        assert!(
            curve.windows(2).all(|w| w[1] <= w[0]),
            "{name}: delivered key rose with the cap: {curve:?}"
        );
        if *name == "LiH_frz_JW" {
            assert!(curve[curve.len() - 1] < curve[0], "{name}: {curve:?}");
        }
    }
}

/// A random valid program: `n ∈ 2..=5` qubits, `1..=6` full-width terms
/// with finite coefficients.
fn arb_program() -> impl Strategy<Value = (usize, Vec<(PauliString, f64)>)> {
    (
        2usize..=5,
        proptest::collection::vec(
            (proptest::collection::vec(0usize..4, 5), -1.0f64..1.0),
            1..=6,
        ),
    )
        .prop_map(|(n, raw)| {
            let terms = raw
                .into_iter()
                .map(|(paulis, coeff)| {
                    let label: String = paulis[..n]
                        .iter()
                        .map(|&i| ['I', 'X', 'Y', 'Z'][i])
                        .collect();
                    (label.parse::<PauliString>().expect("valid label"), coeff)
                })
                .collect();
            (n, terms)
        })
}

/// One budgeted compile with a wall budget too large to ever interrupt, so
/// the logical cap alone decides the schedule.
fn deepened(
    n: usize,
    terms: &[(PauliString, f64)],
    rounds: usize,
    threads: usize,
    scan_threads: usize,
) -> (Circuit, Vec<(PauliString, f64)>, Option<usize>) {
    let out = CompileRequest::new(n, terms)
        .options(PhoenixOptions {
            pass_budget: Some(Duration::from_secs(600)),
            anytime_rounds: Some(rounds),
            stage2_threads: threads,
            stage2_scan_threads: scan_threads,
            ..PhoenixOptions::default()
        })
        .run()
        .unwrap();
    (out.circuit, out.term_order, out.depth_reached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite pin: for a fixed logical budget (`anytime_rounds`), the
    /// returned circuit, term order, and `depth_reached` are a pure
    /// function of the program — identical for every
    /// `stage2_threads`/`stage2_scan_threads` combination.
    #[test]
    fn depth_and_circuit_are_thread_count_deterministic(
        (n, terms) in arb_program(),
        rounds in 0usize..=4,
    ) {
        let base = deepened(n, &terms, rounds, 1, 1);
        prop_assert_eq!(base.2, Some(rounds));
        for (threads, scan_threads) in [(2usize, 1usize), (8, 2), (1, 8), (8, 8)] {
            let other = deepened(n, &terms, rounds, threads, scan_threads);
            prop_assert_eq!(
                &other, &base,
                "diverged at stage2_threads={}, scan_threads={}",
                threads, scan_threads
            );
        }
    }
}
