//! The one PHOENIX pipeline definition.
//!
//! Every compilation is [`logical_passes`] (stages 1–3 plus
//! concatenation) followed by [`lowering_passes`] for its
//! [`Target`](crate::Target): the target's [`pre_routing_passes`], then its
//! [`routing_suffix`]. [`CompileRequest::run`] appends them into one
//! manager ([`compile_passes`]); the cached structure/bind path runs the
//! logical stages and the lowering on either side of the angle
//! substitution. A budgeted compile's anytime pass delivers the
//! pre-routing lowering itself, so only the routing suffix follows it.
//! [`try_run_hardware_backend`] runs a bare device's lowering on circuits
//! other compilers produced.

use std::sync::Arc;
use std::time::Duration;

use crate::anytime::AnytimePass;
use crate::cancel::CancelToken;
use crate::error::{validate_device, PhoenixError};
use crate::pass::{CompileContext, PassError, PassManager, Recording};
use crate::passes::{
    ConcatPass, GroupPass, LayoutRoutePass, OrderPass, SimplifySynthPass, SnapshotLogicalPass,
    TransformPass,
};
use crate::request::{CompileRequest, Target};
use crate::verify::BoundaryVerifier;
use phoenix_circuit::Circuit;
use phoenix_device::{Device, NativeIsa};
use phoenix_pauli::PauliString;
use phoenix_router::RouterOptions;
use phoenix_topology::CouplingGraph;

/// Compiler configuration.
///
/// The two `enable_*` switches exist for ablation studies (see the
/// `ablation` experiment binary): disabling them replaces a pipeline stage
/// with its trivial counterpart while keeping everything else identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoenixOptions {
    /// Lookahead window of the Tetris-like ordering.
    pub lookahead: usize,
    /// Apply the Eq. (7) routing-similarity factor during ordering even for
    /// logical compilation (always on in hardware-aware mode).
    pub routing_aware: bool,
    /// Run the BSF-simplification pass (Algorithm 1). When disabled, each
    /// IR group is synthesized with conventional CNOT chains.
    pub enable_simplification: bool,
    /// Run the Tetris-like group ordering. When disabled, groups keep their
    /// first-appearance order.
    pub enable_ordering: bool,
    /// SABRE router tuning used by the hardware-aware back end.
    pub router: RouterOptions,
    /// Forward/backward refinement rounds of the initial-layout search
    /// (deterministic; see `phoenix_router::search_layout`).
    pub layout_trials: usize,
    /// Cap on the threads compiling stage-2 group shapes (and anytime
    /// rounds): the calling thread plus up to `stage2_threads − 1` workers
    /// of the process-wide pool (`0` = one per available core, `1` =
    /// inline on the caller). No compile creates a thread; the pool holds
    /// `available_parallelism() − 1` workers. The output is identical for
    /// every value.
    pub stage2_threads: usize,
    /// Cap on the threads of the candidate scan inside each group's greedy
    /// epoch (`0` = one per available core, `1` = inline), drawn from the
    /// same pool as `stage2_threads`, so the two never oversubscribe the
    /// machine. The output is identical for every value. Useful for
    /// programs with few, very wide groups where group-level parallelism
    /// alone cannot use every core.
    pub stage2_scan_threads: usize,
    /// Wall-clock budget for optimization effort. A budgeted compile runs
    /// stages 2–4 and the target's pre-routing lowering as anytime
    /// deepening rounds that always hold a valid best-so-far circuit. The
    /// budget only decides how many rounds run (a round not started is a
    /// `truncated` event, a round cut off a `round-abandoned` one in the
    /// [`PassTrace`](crate::PassTrace)); every pass that starts runs in
    /// full. Each round is kept by the quality of the circuit the target's
    /// lowering delivers before routing, and that lowered circuit is what
    /// the compile delivers (routed, for a device target), so the output
    /// equals an untimed compile capped at the `depth_reached` it reports.
    /// `None` (the default) never truncates.
    pub pass_budget: Option<Duration>,
    /// Logical cap on the anytime deepening schedule used by budgeted
    /// compiles: the optimizer runs at most this many deepening rounds
    /// (clamped to [`crate::anytime::MAX_ROUNDS`]; `None` = the full
    /// schedule). Because rounds are deterministic, the output under a huge
    /// `pass_budget` is a pure function of this cap, independent of wall
    /// clock and thread counts. Ignored when `pass_budget` is `None` — the
    /// unbudgeted pipeline takes the legacy single-shot path.
    pub anytime_rounds: Option<usize>,
    /// Translation validation: attach a [`BoundaryVerifier`] so every pass
    /// boundary is semantically re-checked (the `--verify` flag of the
    /// experiment binaries). Compilation fails with a pass-pinpointing
    /// error on the first violated invariant. Dense equivalence checks run
    /// only up to [`MAX_DENSE_QUBITS`](crate::verify::MAX_DENSE_QUBITS)
    /// qubits (of a stage-2 group's support, of the program, or of the
    /// device) — beyond that only the structural invariants are enforced.
    /// Orthogonal to `pass_budget`: every pass runs, and every pass is
    /// verified.
    pub verify: bool,
    /// Cap on the threads of fleet compilation: how many devices of a
    /// [`CompileRequest::fleet`](crate::CompileRequest::fleet) compile
    /// concurrently, the caller plus pool workers
    /// (`0` = one per available core, capped at the fleet size; `1` =
    /// inline). Each member's stage 2 fans out on the same pool. The ranked
    /// outcome is identical for every value. Not part of the program-cache
    /// key, like the stage-2 thread caps.
    pub fleet_threads: usize,
    /// Cooperative cancellation token. When set, a fired token ends the
    /// compile at its next poll point (a pass boundary, a stage-2 greedy
    /// epoch, the ordering loop or a deepening round) with
    /// [`PhoenixError::Cancelled`](crate::PhoenixError::Cancelled), with or
    /// without a `pass_budget`. Token equality is identity (shared state),
    /// so the derived `PartialEq` on options stays meaningful; the token is
    /// not part of the program-cache key.
    pub cancel: Option<CancelToken>,
}

impl Default for PhoenixOptions {
    fn default() -> Self {
        PhoenixOptions {
            lookahead: 20,
            routing_aware: false,
            enable_simplification: true,
            enable_ordering: true,
            router: RouterOptions::default(),
            layout_trials: 3,
            stage2_threads: 0,
            stage2_scan_threads: 1,
            pass_budget: None,
            anytime_rounds: None,
            verify: false,
            fleet_threads: 0,
            cancel: None,
        }
    }
}

/// The result of hardware-aware compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProgram {
    /// The final physical CNOT-ISA circuit (SWAPs lowered and re-optimized).
    pub circuit: Circuit,
    /// The logical CNOT-ISA circuit before routing.
    pub logical: Circuit,
    /// Number of SWAPs the router inserted.
    pub num_swaps: usize,
    /// Physical position of each logical qubit before the first gate:
    /// logical `l` enters at physical `initial_layout[l]`. The routed
    /// circuit's unitary equals the logical circuit embedded at this layout,
    /// composed with the qubit permutation taking `initial_layout` to
    /// `final_layout`.
    pub initial_layout: Vec<usize>,
    /// Physical position of each logical qubit after the last gate.
    pub final_layout: Vec<usize>,
}

impl HardwareProgram {
    /// The `#2Q(mapped)/#2Q(logical)` multiple (dashed lines of Fig. 6,
    /// "Routing overhead" of Table IV). Counted over all 2Q gates so the
    /// ratio stays meaningful on SU(4)-native devices; for CNOT-ISA
    /// circuits (`su4 == 0`) this is exactly the paper's CNOT ratio.
    pub fn routing_overhead(&self) -> f64 {
        let two_q = |c: &Circuit| {
            let k = c.counts();
            k.cnot + k.su4
        };
        two_q(&self.circuit) as f64 / two_q(&self.logical).max(1) as f64
    }
}

/// The logical stages every target starts with: grouping, then BSF
/// simplification and synthesis, Tetris ordering and concatenation.
///
/// A pass budget runs the last three once per deepening round inside one
/// interruptible [`AnytimePass`], which scores each round on what
/// `delivered`'s [`pre_routing_passes`] make of it and delivers the kept
/// round so lowered; the budget rides on the returned manager, and the
/// anytime pass is its only reader. `verify` attaches the compilation's
/// one [`BoundaryVerifier`], which [`PassManager::append`] keeps, so a
/// suffix appended here is verified by the same instance.
pub(crate) fn logical_passes(
    options: &PhoenixOptions,
    routing_aware: bool,
    delivered: &Target,
) -> PassManager {
    let stage2 = SimplifySynthPass {
        simplify: options.enable_simplification,
        threads: options.stage2_threads,
        scan_threads: options.stage2_scan_threads,
        fault_inject_group: None,
    };
    let order = OrderPass {
        lookahead: options.lookahead,
        routing_aware: routing_aware || options.routing_aware,
        enabled: options.enable_ordering,
    };
    let manager = PassManager::new().with(GroupPass);
    let manager = match options.pass_budget {
        // Budgeted compiles deepen anytime-style: the same stages, run
        // once per round, always hold a valid best-so-far.
        Some(budget) => manager
            .with(AnytimePass {
                stage2,
                order,
                max_rounds: options.anytime_rounds,
                lowering: pre_routing_passes(delivered),
            })
            .with_budget(budget),
        None => manager.with(stage2).with(order).with(ConcatPass),
    };
    if options.verify {
        manager.with_observer(Arc::new(BoundaryVerifier::default()))
    } else {
        manager
    }
}

/// The part of `target`'s lowering that runs before routing, which is all
/// of it for a target that does not route: nothing for
/// [`Target::Logical`], the peephole for [`Target::Cnot`], an SU(4) rebase
/// for [`Target::Su4`], and rebase + KAK resynthesis + peephole for
/// [`Target::CnotViaKak`]. A [`Target::Device`] routes what the CNOT
/// target delivers ([`routing_suffix`]).
fn pre_routing_passes(target: &Target) -> Vec<TransformPass> {
    match target {
        Target::Logical => Vec::new(),
        Target::Cnot | Target::Device(_) => vec![TransformPass::peephole()],
        Target::Su4 => vec![TransformPass::su4_rebase()],
        Target::CnotViaKak => vec![
            TransformPass::su4_rebase(),
            TransformPass::kak_resynthesis(),
            TransformPass::peephole(),
        ],
    }
}

/// The part of `target`'s lowering that runs from routing on, which is
/// nothing for a target that does not route. A [`Target::Device`] runs the
/// shared hardware back end after the CNOT target's lowering (peephole,
/// "O3"): logical snapshot, layout search + SABRE routing, SWAP lowering
/// and a final peephole, then the passes that fold the routed CNOT circuit
/// into the device's native ISA — nothing for [`NativeIsa::Cnot`], an
/// SU(4) rebase for [`NativeIsa::Su4`], and rebase + KAK resynthesis +
/// peephole for [`NativeIsa::CnotViaKak`]. [`try_run_hardware_backend`]
/// runs the same back end on the baselines' outputs, so strategy
/// differences dominate comparisons.
pub(crate) fn routing_suffix(target: &Target, options: &PhoenixOptions) -> PassManager {
    let Target::Device(device) = target else {
        return PassManager::new();
    };
    let manager = PassManager::new()
        .with(SnapshotLogicalPass)
        .with(LayoutRoutePass {
            router: options.router.clone(),
            layout_trials: options.layout_trials,
        })
        .with(TransformPass::swap_lower())
        .with(TransformPass::peephole());
    match device.isa() {
        NativeIsa::Cnot => manager,
        NativeIsa::Su4 => manager.with(TransformPass::su4_rebase()),
        NativeIsa::CnotViaKak => manager
            .with(TransformPass::su4_rebase())
            .with(TransformPass::kak_resynthesis())
            .with(TransformPass::peephole()),
    }
}

/// The circuit-level suffix that lowers the concatenated logical circuit
/// into `target`: its [`pre_routing_passes`], then its [`routing_suffix`].
pub(crate) fn lowering_passes(target: &Target, options: &PhoenixOptions) -> PassManager {
    pre_routing_passes(target)
        .into_iter()
        .fold(PassManager::new(), PassManager::with)
        .append(routing_suffix(target, options))
}

/// The whole pass list of one direct compile to `target`: the
/// [`logical_passes`], then the target's lowering. Under a pass budget the
/// anytime pass has already delivered the pre-routing lowering of the
/// round it kept, so only the [`routing_suffix`] follows it.
pub(crate) fn compile_passes(options: &PhoenixOptions, target: &Target) -> PassManager {
    let lowering = match options.pass_budget {
        Some(_) => routing_suffix(target, options),
        None => lowering_passes(target, options),
    };
    logical_passes(options, target.routes(), target).append(lowering)
}

/// Routes a circuit some other compiler produced onto `device` through the
/// shared hardware back end (peephole, logical snapshot, layout search +
/// SABRE routing, SWAP lowering, final peephole) — the baselines' path to
/// the hardware back end.
///
/// # Errors
///
/// Returns a typed [`PhoenixError`] when the circuit does not fit the
/// device or a pass fails (including a contained panic).
pub fn try_run_hardware_backend(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> Result<HardwareProgram, PhoenixError> {
    validate_device(logical.num_qubits(), device)?;
    let mut ctx = CompileContext::from_circuit(logical.clone());
    ctx.device = Some(device.clone());
    let target = Target::Device(Device::bare(device.clone()));
    let options = PhoenixOptions {
        router: router.clone(),
        layout_trials,
        ..PhoenixOptions::default()
    };
    // It returns no trace, so it measures no boundary.
    lowering_passes(&target, &options).run_from(&mut ctx, Recording::now(false))?;
    extract_hardware_program(ctx)
}

/// Pulls a [`HardwareProgram`] out of a routed [`CompileContext`].
pub(crate) fn extract_hardware_program(
    ctx: CompileContext,
) -> Result<HardwareProgram, PhoenixError> {
    let snapshot = ctx
        .logical
        .ok_or_else(|| PassError::new("snapshot-logical", "logical snapshot missing"))?;
    let initial_layout = ctx
        .initial_layout
        .ok_or_else(|| PassError::new("layout-route", "initial layout missing"))?;
    let final_layout = ctx
        .final_layout
        .ok_or_else(|| PassError::new("layout-route", "final layout missing"))?;
    Ok(HardwareProgram {
        circuit: ctx.circuit,
        logical: snapshot,
        num_swaps: ctx.num_swaps,
        initial_layout,
        final_layout,
    })
}

/// The PHOENIX compiler: a set of [`PhoenixOptions`] that builds
/// [`CompileRequest`]s, and PHOENIX's
/// [`CompilerStrategy`](crate::CompilerStrategy) next to the baselines.
///
/// # Examples
///
/// ```
/// use phoenix_core::{PhoenixCompiler, Target};
/// use phoenix_pauli::PauliString;
///
/// let terms: Vec<(PauliString, f64)> = vec![
///     ("XXXX".parse().unwrap(), 0.1),
///     ("YYXX".parse().unwrap(), 0.2),
///     ("ZZII".parse().unwrap(), 0.3),
/// ];
/// let out = PhoenixCompiler::default().request(4, &terms).run().unwrap();
/// assert_eq!(out.num_groups, 2);
/// let cnot = PhoenixCompiler::default()
///     .request(4, &terms)
///     .target(Target::Cnot)
///     .run()
///     .unwrap();
/// assert!(cnot.circuit.counts().cnot > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhoenixCompiler {
    /// Tuning options.
    pub options: PhoenixOptions,
}

impl PhoenixCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: PhoenixOptions) -> Self {
        PhoenixCompiler { options }
    }

    /// A [`CompileRequest`] for `terms` carrying this compiler's options.
    pub fn request(&self, n: usize, terms: &[(PauliString, f64)]) -> CompileRequest {
        CompileRequest::new(n, terms).options(self.options.clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pass::{PassTrace, EVENT_TRUNCATED};
    use crate::request::CompileOutcome;
    use phoenix_circuit::synthesis::naive_circuit;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    fn compile(
        options: &PhoenixOptions,
        n: usize,
        t: &[(PauliString, f64)],
        target: Target,
    ) -> Result<CompileOutcome, PhoenixError> {
        CompileRequest::new(n, t)
            .options(options.clone())
            .target(target)
            .trace(true)
            .run()
    }

    fn bare(graph: &CouplingGraph) -> Target {
        Target::Device(Device::bare(graph.clone()))
    }

    fn trace_of(out: &CompileOutcome) -> &PassTrace {
        out.trace.as_ref().unwrap()
    }

    #[test]
    fn compile_beats_naive_on_fig1b() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let phoenix = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot)
            .unwrap()
            .circuit;
        let naive = naive_circuit(3, &t);
        assert!(
            phoenix.counts().cnot < naive.counts().cnot,
            "{} vs {}",
            phoenix.counts().cnot,
            naive.counts().cnot
        );
    }

    #[test]
    fn su4_output_contains_only_su4_two_qubit_gates() {
        let t = terms(&["XYZX", "YYZZ", "ZIIZ", "XIIX"]);
        let su4 = compile(&PhoenixOptions::default(), 4, &t, Target::Su4)
            .unwrap()
            .circuit;
        let k = su4.counts();
        assert_eq!(k.cnot + k.clifford2 + k.pauli_rot2 + k.swap, 0);
        assert!(k.su4 > 0);
    }

    #[test]
    fn hardware_aware_respects_coupling() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let hw = compile(&PhoenixOptions::default(), 4, &t, bare(&dev))
            .unwrap()
            .hardware
            .unwrap();
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        assert!(hw.routing_overhead() >= 1.0);
    }

    #[test]
    fn empty_program_compiles_to_empty_circuit() {
        let out = compile(&PhoenixOptions::default(), 3, &[], Target::Logical).unwrap();
        assert!(out.circuit.is_empty());
        assert_eq!(out.num_groups, 0);
    }

    #[test]
    fn qaoa_terms_compile_without_cliffords() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let out = compile(&PhoenixOptions::default(), 4, &t, Target::Logical).unwrap();
        assert_eq!(out.circuit.counts().clifford2, 0);
        assert_eq!(out.circuit.counts().pauli_rot2, 3);
    }

    #[test]
    fn logical_trace_names_the_canonical_sequence() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot).unwrap();
        assert_eq!(
            trace_of(&out).pass_names(),
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );
    }

    #[test]
    fn malformed_programs_are_rejected_without_panicking() {
        let o = PhoenixOptions::default();
        let mixed = terms(&["ZZ", "ZZI"]);
        assert!(matches!(
            compile(&o, 2, &mixed, Target::Logical),
            Err(PhoenixError::TermWidthMismatch { index: 1, .. })
        ));
        let nan = vec![("XX".parse::<PauliString>().unwrap(), f64::NAN)];
        for target in [Target::Cnot, Target::Su4, Target::CnotViaKak] {
            assert!(compile(&o, 2, &nan, target).is_err());
        }
        let dev = CouplingGraph::line(2);
        assert!(matches!(
            compile(&o, 3, &terms(&["ZZI"]), bare(&dev)),
            Err(PhoenixError::DeviceTooSmall {
                program: 3,
                device: 2
            })
        ));
    }

    #[test]
    fn pass_budget_truncates_but_still_compiles_hardware_aware() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let o = PhoenixOptions {
            pass_budget: Some(Duration::ZERO),
            ..PhoenixOptions::default()
        };
        let out = compile(&o, 4, &t, bare(&dev)).unwrap();
        for g in out.hardware.as_ref().unwrap().circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        // Deepening was truncated and the trace says so; the anytime pass
        // delivered the pre-routing lowering, and routing ran in full.
        let trace = trace_of(&out);
        assert_eq!(out.depth_reached, Some(0));
        assert!(!trace.events_of_kind(EVENT_TRUNCATED).is_empty());
        assert_eq!(
            trace.pass_names(),
            [
                "group",
                "anytime-deepen",
                "snapshot-logical",
                "layout-route",
                "cnot-lower",
                "peephole"
            ]
        );
        // The same compile as round 0 of an untimed schedule.
        let capped = PhoenixOptions {
            pass_budget: Some(Duration::from_secs(3600)),
            anytime_rounds: Some(0),
            ..PhoenixOptions::default()
        };
        let reference = compile(&capped, 4, &t, bare(&dev)).unwrap();
        assert_eq!(out.hardware, reference.hardware);
    }

    #[test]
    fn verify_option_validates_every_executed_boundary() {
        use crate::pass::EVENT_VERIFIED;
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let o = PhoenixOptions {
            verify: true,
            ..PhoenixOptions::default()
        };
        let out = compile(&o, 3, &t, Target::Cnot).unwrap();
        let verified: Vec<&str> = trace_of(&out)
            .events
            .iter()
            .filter(|e| e.kind == EVENT_VERIFIED)
            .map(|e| e.pass.as_str())
            .collect();
        assert_eq!(
            verified,
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );

        let dev = CouplingGraph::line(3);
        let hw_out = compile(&o, 3, &t, bare(&dev)).unwrap();
        assert!(trace_of(&hw_out)
            .events
            .iter()
            .any(|e| e.kind == EVENT_VERIFIED && e.pass == "layout-route"));
        let hw = hw_out.hardware.unwrap();
        assert_eq!(hw.initial_layout.len(), 3);
        assert_eq!(hw.final_layout.len(), 3);

        // The verified output is identical to the unverified one.
        let plain = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot).unwrap();
        assert_eq!(out.circuit, plain.circuit);
    }

    #[test]
    fn verify_option_catches_an_injected_miscompilation() {
        use crate::pass::Pass;

        /// A rewrite that silently corrupts the circuit — the kind of bug
        /// translation validation exists to catch.
        struct SabotagePass;
        impl Pass for SabotagePass {
            fn name(&self) -> &str {
                "peephole" // masquerades as a legitimate rewrite
            }
            fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
                ctx.circuit.push(phoenix_circuit::Gate::H(0));
                Ok(())
            }
        }

        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let manager = logical_passes(&PhoenixOptions::default(), false, &Target::Logical)
            .with(SabotagePass)
            .with_observer(Arc::new(crate::verify::BoundaryVerifier::default()));
        let mut ctx = CompileContext::new(3, &t);
        let err = manager.run(&mut ctx).unwrap_err();
        assert!(
            err.to_string().contains("translation validation failed"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn try_run_hardware_backend_rejects_undersized_devices() {
        let t = terms(&["ZZZ"]);
        let logical = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot)
            .unwrap()
            .circuit;
        let small = CouplingGraph::line(2);
        assert!(try_run_hardware_backend(&logical, &small, &RouterOptions::default(), 1).is_err());
    }

    #[test]
    fn hardware_trace_covers_the_full_pipeline() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let dev = CouplingGraph::line(4);
        let out = compile(&PhoenixOptions::default(), 4, &t, bare(&dev)).unwrap();
        assert_eq!(
            trace_of(&out).pass_names(),
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole",
                "snapshot-logical",
                "layout-route",
                "cnot-lower",
                "peephole"
            ]
        );
        assert!(!out.hardware.unwrap().circuit.is_empty());
    }
}
