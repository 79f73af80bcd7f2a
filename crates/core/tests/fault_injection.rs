//! Fault-injection suite for the compilation boundary: malformed IR and
//! mutated QASM must come back as typed errors — never panics — from every
//! compile target, a forced in-pass panic must degrade to the
//! conventional fallback with a `degraded` trace entry (in an unbudgeted
//! compile and in every deepening round of a budgeted one), and on valid
//! input the fallible request path must be bit-identical to the infallible
//! strategy paths.

use std::panic::{self, AssertUnwindSafe};

use phoenix_circuit::qasm::{from_qasm, to_qasm};
use phoenix_circuit::{kak, peephole, rebase};
use phoenix_core::pass::{CompileContext, PassManager, TraceEvent};
use phoenix_core::passes::{ConcatPass, GroupPass, OrderPass, SimplifySynthPass};
use phoenix_core::{
    AnytimePass, CompileOutcome, CompileRequest, CompilerStrategy, Device, PhoenixCompiler,
    PhoenixError, Target,
};
use phoenix_pauli::PauliString;
use phoenix_topology::CouplingGraph;
use phoenix_verify::engine::{check_exact_unitary, Outcome};
use proptest::prelude::*;

/// A random *valid* program: `n ∈ 2..=5` qubits, `1..=5` full-width terms
/// with finite coefficients (5-wide draws truncated to the register, in
/// the style of the repo's other property tests).
fn arb_program() -> impl Strategy<Value = (usize, Vec<(PauliString, f64)>)> {
    (
        2usize..=5,
        proptest::collection::vec(
            (proptest::collection::vec(0usize..4, 5), -1.0f64..1.0),
            1..=5,
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

fn compile(
    n: usize,
    terms: &[(PauliString, f64)],
    target: Target,
) -> Result<CompileOutcome, PhoenixError> {
    CompileRequest::new(n, terms).target(target).run()
}

/// Every target applied to one input; `Some(err)` per target that
/// rejected it.
fn reject_all(
    n: usize,
    terms: &[(PauliString, f64)],
    device: &CouplingGraph,
) -> Vec<Option<PhoenixError>> {
    [
        Target::Logical,
        Target::Cnot,
        Target::Su4,
        Target::CnotViaKak,
        Target::Device(Device::bare(device.clone())),
    ]
    .into_iter()
    .map(|target| compile(n, terms, target).err())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wrong-length Pauli strings, non-finite coefficients and zero-qubit
    /// declarations are rejected with a typed error by every entry point,
    /// under a `catch_unwind` harness proving no panic escapes.
    #[test]
    fn malformed_programs_are_rejected_not_panicked(
        (n, mut terms) in arb_program(),
        corruption in 0usize..3,
        which in 0usize..5,
        bad_sel in 0usize..3,
    ) {
        let bad_coeff = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_sel];
        let i = which % terms.len();
        let n = match corruption {
            0 => {
                // One term wider than the register.
                let wider = format!("{}X", terms[i].0);
                terms[i].0 = wider.parse().expect("valid label");
                n
            }
            1 => {
                terms[i].1 = bad_coeff;
                n
            }
            // Zero-qubit program that still claims terms.
            _ => 0,
        };
        let device = CouplingGraph::line(n.max(2));
        let outcomes = panic::catch_unwind(AssertUnwindSafe(|| reject_all(n, &terms, &device)))
            .expect("compiles must not panic on malformed input");
        for (entry, err) in outcomes.into_iter().enumerate() {
            prop_assert!(err.is_some(), "target {entry} accepted malformed input");
        }
    }

    /// A device smaller than the program, or disconnected, is rejected by
    /// the hardware-aware target with the matching typed error.
    #[test]
    fn unfit_devices_are_rejected((n, terms) in arb_program()) {
        let small = Device::bare(CouplingGraph::line(n - 1));
        prop_assert!(matches!(
            compile(n, &terms, Target::Device(small)),
            Err(PhoenixError::DeviceTooSmall { .. })
        ));
        let disconnected = Device::bare(CouplingGraph::from_edges(n, std::iter::empty()));
        prop_assert!(matches!(
            compile(n, &terms, Target::Device(disconnected)),
            Err(PhoenixError::DisconnectedDevice { .. })
        ));
    }

    /// Randomly mutated QASM (truncations, byte flips, dropped and
    /// duplicated lines) either parses or returns `ParseQasmError` — the
    /// parser never panics.
    #[test]
    fn mutated_qasm_never_panics(
        (n, terms) in arb_program(),
        mutation in 0usize..4,
        pos in 0usize..1024,
        byte in 32u8..127,
    ) {
        let circuit = compile(n, &terms, Target::Cnot).unwrap().circuit;
        let text = to_qasm(&circuit);
        let mutated = match mutation {
            0 => text[..pos % (text.len() + 1)].to_string(),
            1 => {
                let mut bytes = text.clone().into_bytes();
                let i = pos % bytes.len();
                bytes[i] = byte;
                String::from_utf8(bytes).expect("ascii stays ascii")
            }
            2 => {
                let lines: Vec<&str> = text.lines().collect();
                let drop = pos % lines.len();
                lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, l)| *l)
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            _ => {
                let lines: Vec<&str> = text.lines().collect();
                let dup = pos % lines.len();
                let mut out: Vec<&str> = lines.clone();
                out.insert(dup, lines[dup]);
                out.join("\n")
            }
        };
        let parsed = panic::catch_unwind(AssertUnwindSafe(|| from_qasm(&mutated)))
            .expect("from_qasm must not panic on mutated input");
        if let Ok(c) = parsed {
            // Whatever survived mutation is a well-formed circuit.
            prop_assert!(c.gates().iter().all(|g| {
                let (a, b) = g.qubits();
                a < c.num_qubits() && b.is_none_or(|b| b < c.num_qubits())
            }));
        }
    }

    /// On valid input the fallible request path is bit-identical to the
    /// infallible strategy paths and to the ISA lowerings of its logical
    /// output (golden equivalence of the error boundary).
    #[test]
    fn valid_programs_compile_identically_via_try_paths((n, terms) in arb_program()) {
        let c = PhoenixCompiler::default();
        let logical = compile(n, &terms, Target::Logical).unwrap().circuit;
        prop_assert_eq!(&logical, &c.compile_logical(n, &terms));
        prop_assert_eq!(
            compile(n, &terms, Target::Cnot).unwrap().circuit,
            c.compile_optimized(n, &terms)
        );
        let su4 = rebase::to_su4(&logical);
        prop_assert_eq!(compile(n, &terms, Target::Su4).unwrap().circuit, su4.clone());
        prop_assert_eq!(
            compile(n, &terms, Target::CnotViaKak).unwrap().circuit,
            peephole::optimize(&kak::resynthesize(&su4))
        );
        let device = CouplingGraph::line(n);
        let target = Target::Device(Device::bare(device.clone()));
        prop_assert_eq!(
            compile(n, &terms, target).unwrap().hardware,
            Some(c.compile_hardware(n, &terms, &device))
        );
    }
}

#[test]
fn forced_in_pass_panic_degrades_with_trace_entry() {
    let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "IZZ", "XIX"]
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
        .collect();
    let mut ctx = CompileContext::new(3, &terms);
    let pm = PassManager::new()
        .with(GroupPass)
        .with(SimplifySynthPass {
            fault_inject_group: Some(0),
            ..SimplifySynthPass::default()
        })
        .with(OrderPass::default())
        .with(ConcatPass);
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {})); // the contained panic stays quiet
    let trace = pm.run(&mut ctx).expect("degradation is not an error");
    panic::set_hook(prev);
    assert!(trace.is_degraded());
    let degraded = trace.events_of_kind(phoenix_core::EVENT_DEGRADED);
    assert_eq!(degraded.len(), 1);
    assert!(degraded[0].detail.contains("group 0"));
    // The program still compiled end to end: every input term is emitted.
    assert_eq!(ctx.term_order.len(), terms.len());
    assert!(!ctx.circuit.is_empty());
}

/// A budgeted compile's groups, emitted terms, circuit and events.
type Budgeted = (
    Vec<phoenix_circuit::Circuit>,
    Vec<Vec<(PauliString, f64)>>,
    phoenix_circuit::Circuit,
    Vec<(PauliString, f64)>,
    Vec<TraceEvent>,
);

/// A full-schedule budgeted compile of `terms` on `stage2_threads`
/// threads, with the group at `fault` forced to panic in every round.
fn budgeted(
    n: usize,
    terms: &[(PauliString, f64)],
    threads: usize,
    fault: Option<usize>,
) -> Budgeted {
    let mut ctx = CompileContext::new(n, terms);
    let pm = PassManager::new()
        .with(GroupPass)
        .with(AnytimePass {
            stage2: SimplifySynthPass {
                threads,
                fault_inject_group: fault,
                ..SimplifySynthPass::default()
            },
            ..AnytimePass::default()
        })
        .with_budget(std::time::Duration::from_secs(600));
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {})); // the contained panics stay quiet
    let trace = pm.run(&mut ctx);
    panic::set_hook(prev);
    let trace = trace.expect("degradation is not an error");
    assert_eq!(ctx.depth_reached, Some(phoenix_core::MAX_ROUNDS));
    (
        ctx.subcircuits,
        ctx.group_terms,
        ctx.circuit,
        ctx.term_order,
        trace.events,
    )
}

/// Fault injection reaches budgeted compiles: the injected group falls
/// back to conventional synthesis in every deepening round, only that
/// group is reported, every other group compiles exactly as without the
/// fault, and the result is exact and the same for every thread count.
#[test]
fn forced_panic_degrades_one_group_in_every_budgeted_round() {
    // Two groups of one shape (qubits {0, 1, 2} and {3, 4, 5}) and one
    // group of another; the first is injected.
    let terms: Vec<(PauliString, f64)> = [
        "ZYYIII", "ZZYIII", "XYYIII", "XZYIII", "IIIZYY", "IIIZZY", "IIIXYY", "IIIXZY", "IXYZII",
        "IYYXII", "IZXYII",
    ]
    .iter()
    .enumerate()
    .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
    .collect();
    let clean = budgeted(6, &terms, 1, None);
    assert!(clean.4.is_empty(), "{:?}", clean.4);
    let injected = budgeted(6, &terms, 1, Some(0));
    let (subcircuits, group_terms, circuit, term_order, events) = &injected;

    assert!(
        matches!(check_exact_unitary(circuit, term_order), Outcome::Pass(_)),
        "the degraded compile is not exact"
    );
    let mut emitted: Vec<String> = term_order
        .iter()
        .map(|(p, c)| format!("{p}{c:?}"))
        .collect();
    let mut input: Vec<String> = terms.iter().map(|(p, c)| format!("{p}{c:?}")).collect();
    emitted.sort();
    input.sort();
    assert_eq!(emitted, input);

    assert_eq!(events.len(), phoenix_core::MAX_ROUNDS, "{events:?}");
    for e in events {
        assert_eq!(e.kind, phoenix_core::EVENT_DEGRADED);
        assert_eq!(e.pass, "anytime-deepen");
        assert!(e.detail.starts_with("group 0 "), "{}", e.detail);
    }
    assert_eq!(
        subcircuits[0],
        phoenix_circuit::synthesis::naive_circuit(6, &terms[..4])
    );
    for g in 1..subcircuits.len() {
        assert_eq!(subcircuits[g], clean.0[g], "group {g}");
        assert_eq!(group_terms[g], clean.1[g], "group {g}");
    }
    for threads in [2, 8] {
        assert_eq!(
            &budgeted(6, &terms, threads, Some(0)),
            &injected,
            "stage2_threads {threads}"
        );
    }
}

#[test]
fn whole_pipeline_panic_becomes_a_typed_error() {
    // A pass that panics without a per-unit fallback (concat on garbage
    // state) is contained by the manager and surfaces as PhoenixError::Pass.
    struct Corrupt;
    impl phoenix_core::Pass for Corrupt {
        fn name(&self) -> &str {
            "corrupt"
        }
        fn run(&self, _ctx: &mut CompileContext) -> Result<(), phoenix_core::PassError> {
            panic!("simulated internal bug");
        }
    }
    let mut ctx = CompileContext::new(2, &[]);
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let err = PassManager::new().with(Corrupt).run(&mut ctx).unwrap_err();
    panic::set_hook(prev);
    let phoenix_err: PhoenixError = err.into();
    assert!(phoenix_err.to_string().contains("simulated internal bug"));
}

#[test]
fn out_of_range_qasm_qubits_are_typed_errors() {
    let err = from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];").unwrap_err();
    assert!(err.to_string().contains("line 3"));
    let wrapped: PhoenixError = err.into();
    assert!(matches!(wrapped, PhoenixError::Qasm(_)));
}
