//! Golden-equivalence tests for the pass-manager refactor.
//!
//! The pass pipeline must be a pure re-organization: for every target, its
//! output is gate-for-gate identical to the pre-refactor monolithic
//! pipeline, re-implemented verbatim here from the public stage functions
//! (`group_by_support` → `simplify_terms`/`synthesize_group` →
//! `order_groups` → concatenation, plus the peephole/route back ends).

use phoenix_circuit::{peephole, Circuit};
use phoenix_core::group::group_by_support;
use phoenix_core::order::{order_groups, OrderOptions};
use phoenix_core::simplify::simplify_terms;
use phoenix_core::synth::synthesize_group;
use phoenix_core::{
    try_run_hardware_backend, CompileOutcome, CompileRequest, Device, HardwareProgram,
    PhoenixOptions, Target,
};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_pauli::PauliString;
use phoenix_router::{route, search_layout, Layout, RouterOptions};
use phoenix_topology::CouplingGraph;

/// Logical-to-physical map of a [`Layout`], as recorded on
/// [`HardwareProgram`].
fn l2p(layout: &Layout, n: usize) -> Vec<usize> {
    (0..n).map(|l| layout.phys(l).unwrap()).collect()
}

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

/// The pre-refactor monolithic logical compile, verbatim.
fn monolithic_compile(
    n: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
) -> (Circuit, usize, Vec<(PauliString, f64)>) {
    let groups = group_by_support(n, terms);
    let (subcircuits, group_terms): (Vec<Circuit>, Vec<Vec<(PauliString, f64)>>) =
        if options.enable_simplification {
            groups
                .iter()
                .map(|g| {
                    let s = simplify_terms(n, g.terms());
                    (synthesize_group(&s), s.term_sequence())
                })
                .unzip()
        } else {
            groups
                .iter()
                .map(|g| {
                    (
                        phoenix_circuit::synthesis::naive_circuit(n, g.terms()),
                        g.terms().to_vec(),
                    )
                })
                .unzip()
        };
    let perm: Vec<usize> = if options.enable_ordering {
        order_groups(
            &subcircuits,
            &OrderOptions {
                lookahead: options.lookahead,
                routing_aware: options.routing_aware,
            },
        )
    } else {
        (0..subcircuits.len()).collect()
    };
    let mut circuit = Circuit::new(n);
    let mut term_order = Vec::with_capacity(terms.len());
    for i in perm {
        circuit.append(&subcircuits[i]);
        term_order.extend(group_terms[i].iter().cloned());
    }
    (circuit, groups.len(), term_order)
}

/// The pre-refactor monolithic hardware-aware compile, verbatim.
fn monolithic_hardware(
    n: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
    device: &CouplingGraph,
) -> HardwareProgram {
    let mut hw = options.clone();
    hw.routing_aware = true;
    let (circuit, _, _) = monolithic_compile(n, terms, &hw);
    let logical = peephole::optimize(&circuit);
    let opts = RouterOptions::default();
    let layout = search_layout(&logical, device, &opts, 3);
    let routed = route(&logical, device, layout, &opts);
    HardwareProgram {
        circuit: peephole::optimize(&routed.circuit),
        initial_layout: l2p(&routed.initial_layout, logical.num_qubits()),
        final_layout: l2p(&routed.final_layout, logical.num_qubits()),
        logical,
        num_swaps: routed.num_swaps,
    }
}

fn compile(
    options: &PhoenixOptions,
    n: usize,
    terms: &[(PauliString, f64)],
    target: Target,
) -> CompileOutcome {
    CompileRequest::new(n, terms)
        .options(options.clone())
        .target(target)
        .run()
        .unwrap()
}

fn assert_logical_golden(n: usize, terms: &[(PauliString, f64)]) {
    let options = PhoenixOptions::default();
    let (circuit, num_groups, term_order) = monolithic_compile(n, terms, &options);

    let out = compile(&options, n, terms, Target::Logical);
    assert_eq!(out.circuit, circuit, "high-level circuit diverged");
    assert_eq!(out.num_groups, num_groups);
    assert_eq!(out.term_order, term_order);

    assert_eq!(
        compile(&options, n, terms, Target::Cnot).circuit,
        peephole::optimize(&circuit),
        "CNOT-ISA output diverged"
    );
    assert_eq!(
        compile(&options, n, terms, Target::Su4).circuit,
        phoenix_circuit::rebase::to_su4(&circuit),
        "SU(4)-ISA output diverged"
    );
    assert_eq!(
        compile(&options, n, terms, Target::CnotViaKak).circuit,
        peephole::optimize(&phoenix_circuit::kak::resynthesize(
            &phoenix_circuit::rebase::to_su4(&circuit)
        )),
        "KAK-resynthesis output diverged"
    );
}

#[test]
fn fig1b_outputs_match_the_monolithic_pipeline() {
    let (n, terms) = fig1b();
    assert_logical_golden(n, &terms);
}

#[test]
fn uccsd_outputs_match_the_monolithic_pipeline() {
    let (n, terms) = uccsd_lih();
    assert_logical_golden(n, &terms);
}

#[test]
fn hardware_outputs_match_the_monolithic_pipeline() {
    let (n, terms) = uccsd_lih();
    let options = PhoenixOptions::default();
    let device = CouplingGraph::manhattan65();
    let golden = monolithic_hardware(n, &terms, &options, &device);
    let target = Target::Device(Device::bare(device));
    let hw = compile(&options, n, &terms, target).hardware;
    assert_eq!(hw, Some(golden), "hardware-aware output diverged");
}

#[test]
fn baseline_hardware_wrapper_matches_the_monolithic_backend() {
    let (n, terms) = fig1b();
    let logical = compile(&PhoenixOptions::default(), n, &terms, Target::Logical).circuit;
    let device = CouplingGraph::line(3);

    // The pre-refactor baseline hardware back end, verbatim.
    let golden = {
        let logical = peephole::optimize(&logical);
        let opts = RouterOptions::default();
        let layout = search_layout(&logical, &device, &opts, 3);
        let routed = route(&logical, &device, layout, &opts);
        HardwareProgram {
            circuit: peephole::optimize(&routed.circuit),
            initial_layout: l2p(&routed.initial_layout, logical.num_qubits()),
            final_layout: l2p(&routed.final_layout, logical.num_qubits()),
            logical,
            num_swaps: routed.num_swaps,
        }
    };
    let got = try_run_hardware_backend(&logical, &device, &RouterOptions::default(), 3);
    assert_eq!(got, Ok(golden));
}

#[test]
fn parallel_stage2_is_bit_identical_across_thread_counts() {
    let (n, terms) = uccsd_lih();
    let at = |threads| {
        let options = PhoenixOptions {
            stage2_threads: threads,
            ..PhoenixOptions::default()
        };
        compile(&options, n, &terms, Target::Logical)
    };
    let baseline = at(1);
    for threads in [0, 2, 4, 16] {
        let out = at(threads);
        assert_eq!(out.circuit, baseline.circuit, "stage2_threads = {threads}");
        assert_eq!(out.num_groups, baseline.num_groups);
        assert_eq!(out.term_order, baseline.term_order);
    }
}
