//! The end-to-end PHOENIX compiler.
//!
//! Every entry point is a thin wrapper over the unified
//! [`CompileRequest`](crate::CompileRequest) builder: it picks the
//! [`Target`](crate::Target) and retention flags matching the legacy
//! signature and delegates. The golden-equivalence tests in
//! `tests/compile_request.rs` pin each wrapper to the request path.

use std::sync::Arc;
use std::time::Duration;

use crate::anytime::AnytimePass;
use crate::cancel::CancelToken;
use crate::error::{validate_device, PhoenixError};
use crate::pass::{CompileContext, PassError, PassManager, PassTrace};
use crate::passes::{
    ConcatPass, GroupPass, LayoutRoutePass, OrderPass, SimplifySynthPass, SnapshotLogicalPass,
    TransformPass,
};
use crate::request::{CompileOutcome, CompileRequest, Target};
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
    /// Worker threads for the per-group simplification+synthesis stage
    /// (`0` = one per available core, `1` = sequential). The output is
    /// identical for every value.
    pub stage2_threads: usize,
    /// Worker threads for the candidate scan inside each group's greedy
    /// epoch (`0` = one per available core, `1` = sequential), composing
    /// multiplicatively with `stage2_threads`. The output is identical for
    /// every value. Useful for programs with few, very wide groups where
    /// group-level parallelism alone cannot saturate the machine.
    pub stage2_scan_threads: usize,
    /// Wall-clock budget for optimization effort. Once elapsed, remaining
    /// optimization epochs are cut short (each affected unit of work falls
    /// back to its unoptimized form, recorded as `truncated`/`skipped`
    /// events in the [`PassTrace`]) while correctness-critical stages run
    /// to completion — the output is always valid, just less optimized.
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
    /// only up to [`BoundaryVerifier::max_qubits`] — beyond that only the
    /// structural invariants are enforced. Orthogonal to `pass_budget`:
    /// a budget may *skip* optimization passes (never verified, never run),
    /// but every pass that does execute is verified.
    pub verify: bool,
    /// Worker threads for fleet compilation: how many devices of a
    /// `Target::Fleet` compile concurrently (`0` = one per available core,
    /// capped at the fleet size; `1` = sequential). The ranked outcome is
    /// identical for every value. Excluded from the parametric options
    /// fingerprint, like the stage-2 thread counts.
    pub fleet_threads: usize,
    /// Cooperative cancellation token. When set, the pass manager checks it
    /// before every pass (and stage 2 checks it between groups) and aborts
    /// with [`PhoenixError::Cancelled`](crate::PhoenixError::Cancelled) or
    /// [`PhoenixError::DeadlineExceeded`](crate::PhoenixError::DeadlineExceeded)
    /// once it fires. Token equality is identity (shared state), so the
    /// derived `PartialEq` on options stays meaningful; the token is
    /// excluded from the parametric options fingerprint.
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

/// The result of logical compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The ordered high-level circuit (Clifford2Q generators + ≤2Q Pauli
    /// rotations), still ISA-independent.
    pub circuit: Circuit,
    /// Number of IR groups the program decomposed into.
    pub num_groups: usize,
    /// The input terms in the order the emitted circuit implements them —
    /// a permutation of the input (compilation only reorders the Trotter
    /// product). The circuit's unitary equals this order's exact Trotter
    /// product up to global phase.
    pub term_order: Vec<(PauliString, f64)>,
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

/// The shared hardware-aware back end as a pass sequence: peephole ("O3"),
/// logical snapshot, layout search + SABRE routing, SWAP lowering, final
/// peephole. Used both by [`PhoenixCompiler::compile_hardware_aware`] and by
/// the baseline harness, so strategy differences dominate comparisons.
pub fn hardware_backend(router: &RouterOptions, layout_trials: usize) -> PassManager {
    PassManager::new()
        .with(TransformPass::peephole())
        .with(SnapshotLogicalPass)
        .with(LayoutRoutePass {
            router: router.clone(),
            layout_trials,
        })
        .with(TransformPass::swap_lower())
        .with(TransformPass::peephole())
}

/// The hardware back end for a [`Device`]: [`hardware_backend`] followed by
/// the pass suffix that folds the routed CNOT circuit into the device's
/// native ISA — nothing for [`NativeIsa::Cnot`], an SU(4) rebase for
/// [`NativeIsa::Su4`], and rebase + KAK resynthesis + peephole for
/// [`NativeIsa::CnotViaKak`]. The rebase passes are *required* (not
/// budget-skippable), and a budget-skipped peephole still lowers to
/// `{1Q, CNOT}` ([`Pass::run_skipped`](crate::pass::Pass::run_skipped)), so
/// the native-ISA guarantee survives `pass_budget` truncation exactly as it
/// does for the logical ISA targets.
pub fn device_backend(
    device: &Device,
    router: &RouterOptions,
    layout_trials: usize,
) -> PassManager {
    let manager = hardware_backend(router, layout_trials);
    match device.isa() {
        NativeIsa::Cnot => manager,
        NativeIsa::Su4 => manager.with(TransformPass::su4_rebase()),
        NativeIsa::CnotViaKak => manager
            .with(TransformPass::su4_rebase())
            .with(TransformPass::kak_resynthesis())
            .with(TransformPass::peephole()),
    }
}

/// Fallible [`run_hardware_backend_with_trace`]: validates that the
/// circuit fits the device before routing, and surfaces pass failures
/// (including contained panics) as a typed [`PhoenixError`].
pub fn try_run_hardware_backend_with_trace(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> Result<(HardwareProgram, PassTrace), PhoenixError> {
    validate_device(logical.num_qubits(), device)?;
    let mut ctx = CompileContext::from_circuit(logical.clone());
    ctx.device = Some(device.clone());
    let trace = hardware_backend(router, layout_trials).run(&mut ctx)?;
    extract_hardware_program(ctx).map(|p| (p, trace))
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

/// [`try_run_hardware_backend_with_trace`] without the trace.
pub fn try_run_hardware_backend(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> Result<HardwareProgram, PhoenixError> {
    try_run_hardware_backend_with_trace(logical, device, router, layout_trials).map(|(p, _)| p)
}

/// Runs the shared hardware back end on an already-compiled logical
/// circuit, returning the routed program and the pass trace.
///
/// # Panics
///
/// Panics if the device does not fit the circuit or routing fails — use
/// [`try_run_hardware_backend_with_trace`] for graceful rejection.
pub fn run_hardware_backend_with_trace(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> (HardwareProgram, PassTrace) {
    try_run_hardware_backend_with_trace(logical, device, router, layout_trials)
        .unwrap_or_else(|e| panic!("hardware backend failed: {e}"))
}

/// [`run_hardware_backend_with_trace`] without the trace.
pub fn run_hardware_backend(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> HardwareProgram {
    run_hardware_backend_with_trace(logical, device, router, layout_trials).0
}

/// The PHOENIX compiler: grouping → BSF simplification → Tetris ordering,
/// with CNOT-ISA, SU(4)-ISA and hardware-aware back ends.
///
/// # Examples
///
/// ```
/// use phoenix_core::PhoenixCompiler;
/// use phoenix_pauli::PauliString;
///
/// let terms: Vec<(PauliString, f64)> = vec![
///     ("XXXX".parse().unwrap(), 0.1),
///     ("YYXX".parse().unwrap(), 0.2),
///     ("ZZII".parse().unwrap(), 0.3),
/// ];
/// let out = PhoenixCompiler::default().compile(4, &terms);
/// assert_eq!(out.num_groups, 2);
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

    /// The canonical logical pass sequence (stages 1–3 + concatenation),
    /// parameterized by this compiler's options (including the pass
    /// budget, which survives [`PassManager::append`]).
    pub fn logical_passes(&self, routing_aware: bool) -> PassManager {
        let manager = match self.options.pass_budget {
            // Budgeted compiles deepen anytime-style: stages 2–4 become one
            // interruptible pass that always holds a valid best-so-far.
            Some(budget) => PassManager::new()
                .with(GroupPass)
                .with(AnytimePass {
                    lookahead: self.options.lookahead,
                    simplify: self.options.enable_simplification,
                    order_enabled: self.options.enable_ordering,
                    routing_aware: routing_aware || self.options.routing_aware,
                    threads: self.options.stage2_threads,
                    scan_threads: self.options.stage2_scan_threads,
                    max_rounds: self.options.anytime_rounds,
                })
                .with_budget(budget),
            // Unbudgeted compiles take the exact legacy single-shot path.
            None => PassManager::new()
                .with(GroupPass)
                .with(SimplifySynthPass {
                    simplify: self.options.enable_simplification,
                    threads: self.options.stage2_threads,
                    scan_threads: self.options.stage2_scan_threads,
                    fault_inject_group: None,
                })
                .with(OrderPass {
                    lookahead: self.options.lookahead,
                    routing_aware: routing_aware || self.options.routing_aware,
                    enabled: self.options.enable_ordering,
                })
                .with(ConcatPass),
        };
        if self.options.verify {
            // One verifier per compilation: it carries a unitary snapshot
            // across rewrites. `append` keeps the observer, so the
            // hardware back end is verified by the same instance.
            manager.with_observer(Arc::new(BoundaryVerifier::default()))
        } else {
            manager
        }
    }

    /// A [`CompileRequest`] for `terms` carrying this compiler's options —
    /// the preferred entry point; every legacy method below delegates to
    /// it.
    pub fn request(&self, n: usize, terms: &[(PauliString, f64)]) -> CompileRequest {
        CompileRequest::new(n, terms).options(self.options.clone())
    }

    /// Logical compilation to the high-level IR-group circuit.
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`PhoenixCompiler::try_compile`] for
    /// graceful rejection.
    pub fn compile(&self, n: usize, terms: &[(PauliString, f64)]) -> CompiledProgram {
        self.try_compile(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// Fallible [`PhoenixCompiler::compile`]: validates the program up
    /// front and returns a typed [`PhoenixError`] instead of panicking.
    pub fn try_compile(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<CompiledProgram, PhoenixError> {
        self.request(n, terms)
            .run()
            .map(CompileOutcome::into_program)
    }

    /// [`PhoenixCompiler::compile`] plus the recorded pass trace.
    pub fn compile_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> (CompiledProgram, PassTrace) {
        self.try_compile_with_trace(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// [`PhoenixCompiler::try_compile`] plus the recorded pass trace.
    pub fn try_compile_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<(CompiledProgram, PassTrace), PhoenixError> {
        self.request(n, terms)
            .trace(true)
            .run()
            .map(CompileOutcome::into_program_and_trace)
    }

    /// Logical compilation to the CNOT ISA (lowered + peephole-optimized).
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`PhoenixCompiler::try_compile_to_cnot`].
    pub fn compile_to_cnot(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        self.try_compile_to_cnot(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// Fallible [`PhoenixCompiler::compile_to_cnot`].
    pub fn try_compile_to_cnot(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<Circuit, PhoenixError> {
        self.request(n, terms)
            .target(Target::Cnot)
            .run()
            .map(|out| out.circuit)
    }

    /// [`PhoenixCompiler::compile_to_cnot`] plus the recorded pass trace.
    pub fn compile_to_cnot_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> (Circuit, PassTrace) {
        self.try_compile_to_cnot_with_trace(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// [`PhoenixCompiler::try_compile_to_cnot`] plus the recorded pass
    /// trace.
    pub fn try_compile_to_cnot_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<(Circuit, PassTrace), PhoenixError> {
        self.request(n, terms)
            .target(Target::Cnot)
            .trace(true)
            .run()
            .map(CompileOutcome::into_circuit_and_trace)
    }

    /// Logical compilation to the SU(4) ISA: PHOENIX emits SU(4) blocks
    /// directly from its simplified IR (no CNOT detour).
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`PhoenixCompiler::try_compile_to_su4`].
    pub fn compile_to_su4(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        self.try_compile_to_su4(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// Fallible [`PhoenixCompiler::compile_to_su4`].
    pub fn try_compile_to_su4(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<Circuit, PhoenixError> {
        self.request(n, terms)
            .target(Target::Su4)
            .run()
            .map(|out| out.circuit)
    }

    /// [`PhoenixCompiler::compile_to_su4`] plus the recorded pass trace.
    pub fn compile_to_su4_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> (Circuit, PassTrace) {
        self.try_compile_to_su4_with_trace(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// [`PhoenixCompiler::try_compile_to_su4`] plus the recorded pass
    /// trace.
    pub fn try_compile_to_su4_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<(Circuit, PassTrace), PhoenixError> {
        self.request(n, terms)
            .target(Target::Su4)
            .trace(true)
            .run()
            .map(CompileOutcome::into_circuit_and_trace)
    }

    /// Logical compilation to the CNOT ISA *through* the SU(4) layer:
    /// blocks are KAK-resynthesized to their ≤3-rotation canonical forms
    /// before lowering, capping every same-pair run at its Weyl floor.
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use
    /// [`PhoenixCompiler::try_compile_to_cnot_via_kak`].
    pub fn compile_to_cnot_via_kak(&self, n: usize, terms: &[(PauliString, f64)]) -> Circuit {
        self.try_compile_to_cnot_via_kak(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// Fallible [`PhoenixCompiler::compile_to_cnot_via_kak`].
    pub fn try_compile_to_cnot_via_kak(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<Circuit, PhoenixError> {
        self.request(n, terms)
            .target(Target::CnotViaKak)
            .run()
            .map(|out| out.circuit)
    }

    /// [`PhoenixCompiler::compile_to_cnot_via_kak`] plus the recorded pass
    /// trace.
    pub fn compile_to_cnot_via_kak_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> (Circuit, PassTrace) {
        self.try_compile_to_cnot_via_kak_with_trace(n, terms)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// [`PhoenixCompiler::try_compile_to_cnot_via_kak`] plus the recorded
    /// pass trace.
    pub fn try_compile_to_cnot_via_kak_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
    ) -> Result<(Circuit, PassTrace), PhoenixError> {
        self.request(n, terms)
            .target(Target::CnotViaKak)
            .trace(true)
            .run()
            .map(CompileOutcome::into_circuit_and_trace)
    }

    /// Hardware-aware compilation: routing-aware ordering, CNOT lowering,
    /// SABRE routing on `device`, SWAP lowering and final peephole.
    ///
    /// # Panics
    ///
    /// Panics on invalid input or an unroutable device — use
    /// [`PhoenixCompiler::try_compile_hardware_aware`].
    pub fn compile_hardware_aware(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> HardwareProgram {
        self.try_compile_hardware_aware(n, terms, device)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// Fallible [`PhoenixCompiler::compile_hardware_aware`]: additionally
    /// validates that the device fits the program and is connected.
    pub fn try_compile_hardware_aware(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> Result<HardwareProgram, PhoenixError> {
        self.try_compile_hardware_aware_with_trace(n, terms, device)
            .map(|(p, _)| p)
    }

    /// [`PhoenixCompiler::compile_hardware_aware`] plus the recorded pass
    /// trace.
    pub fn compile_hardware_aware_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> (HardwareProgram, PassTrace) {
        self.try_compile_hardware_aware_with_trace(n, terms, device)
            .unwrap_or_else(|e| panic!("phoenix compilation failed: {e}"))
    }

    /// [`PhoenixCompiler::try_compile_hardware_aware`] plus the recorded
    /// pass trace.
    pub fn try_compile_hardware_aware_with_trace(
        &self,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &CouplingGraph,
    ) -> Result<(HardwareProgram, PassTrace), PhoenixError> {
        self.request(n, terms)
            .target(Target::Hardware(device.clone()))
            .trace(true)
            .run()?
            .into_hardware_and_trace()
            .map_err(|_| PassError::new("layout-route", "hardware program missing").into())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use phoenix_circuit::synthesis::naive_circuit;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn compile_beats_naive_on_fig1b() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let phoenix = PhoenixCompiler::default().compile_to_cnot(3, &t);
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
        let su4 = PhoenixCompiler::default().compile_to_su4(4, &t);
        let k = su4.counts();
        assert_eq!(k.cnot + k.clifford2 + k.pauli_rot2 + k.swap, 0);
        assert!(k.su4 > 0);
    }

    #[test]
    fn hardware_aware_respects_coupling() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let hw = PhoenixCompiler::default().compile_hardware_aware(4, &t, &dev);
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        assert!(hw.routing_overhead() >= 1.0);
    }

    #[test]
    fn empty_program_compiles_to_empty_circuit() {
        let out = PhoenixCompiler::default().compile(3, &[]);
        assert!(out.circuit.is_empty());
        assert_eq!(out.num_groups, 0);
    }

    #[test]
    fn qaoa_terms_compile_without_cliffords() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let out = PhoenixCompiler::default().compile(4, &t);
        assert_eq!(out.circuit.counts().clifford2, 0);
        assert_eq!(out.circuit.counts().pauli_rot2, 3);
    }

    #[test]
    fn logical_trace_names_the_canonical_sequence() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let (_, trace) = PhoenixCompiler::default().compile_to_cnot_with_trace(3, &t);
        assert_eq!(
            trace.pass_names(),
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
    fn try_compile_rejects_malformed_programs_without_panicking() {
        let c = PhoenixCompiler::default();
        let mixed = terms(&["ZZ", "ZZI"]);
        assert!(matches!(
            c.try_compile(2, &mixed),
            Err(crate::error::PhoenixError::TermWidthMismatch { index: 1, .. })
        ));
        let nan = vec![("XX".parse::<PauliString>().unwrap(), f64::NAN)];
        assert!(c.try_compile_to_cnot(2, &nan).is_err());
        assert!(c.try_compile_to_su4(2, &nan).is_err());
        assert!(c.try_compile_to_cnot_via_kak(2, &nan).is_err());
        let dev = CouplingGraph::line(2);
        assert!(matches!(
            c.try_compile_hardware_aware(3, &terms(&["ZZI"]), &dev),
            Err(crate::error::PhoenixError::DeviceTooSmall {
                program: 3,
                device: 2
            })
        ));
    }

    #[test]
    fn try_paths_match_infallible_paths_on_valid_input() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let c = PhoenixCompiler::default();
        assert_eq!(c.try_compile(3, &t).unwrap(), c.compile(3, &t));
        assert_eq!(
            c.try_compile_to_cnot(3, &t).unwrap(),
            c.compile_to_cnot(3, &t)
        );
        let dev = CouplingGraph::line(3);
        assert_eq!(
            c.try_compile_hardware_aware(3, &t, &dev).unwrap(),
            c.compile_hardware_aware(3, &t, &dev)
        );
    }

    #[test]
    fn pass_budget_truncates_but_still_compiles_hardware_aware() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let c = PhoenixCompiler::new(PhoenixOptions {
            pass_budget: Some(Duration::ZERO),
            ..PhoenixOptions::default()
        });
        let (hw, trace) = c
            .try_compile_hardware_aware_with_trace(4, &t, &dev)
            .unwrap();
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        // Required passes (lowering, routing) still ran; optimization was
        // truncated or skipped and the trace says so.
        assert!(!trace.events.is_empty());
        assert!(trace
            .pass_names()
            .iter()
            .all(|p| *p != "peephole" && *p != "kak-resynthesis"));
    }

    #[test]
    fn verify_option_validates_every_executed_boundary() {
        use crate::pass::EVENT_VERIFIED;
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let c = PhoenixCompiler::new(PhoenixOptions {
            verify: true,
            ..PhoenixOptions::default()
        });
        let (_, trace) = c.try_compile_to_cnot_with_trace(3, &t).unwrap();
        let verified: Vec<&str> = trace
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
        let (hw, trace) = c
            .try_compile_hardware_aware_with_trace(3, &t, &dev)
            .unwrap();
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EVENT_VERIFIED && e.pass == "layout-route"));
        assert_eq!(hw.initial_layout.len(), 3);
        assert_eq!(hw.final_layout.len(), 3);

        // The verified output is identical to the unverified one.
        let plain = PhoenixCompiler::default();
        assert_eq!(c.compile_to_cnot(3, &t), plain.compile_to_cnot(3, &t));
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
        let compiler = PhoenixCompiler::default();
        let manager = compiler
            .logical_passes(false)
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
        let logical = PhoenixCompiler::default().compile_to_cnot(3, &t);
        let small = CouplingGraph::line(2);
        assert!(try_run_hardware_backend(&logical, &small, &RouterOptions::default(), 1).is_err());
    }

    #[test]
    fn hardware_trace_covers_the_full_pipeline() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let dev = CouplingGraph::line(4);
        let (hw, trace) = PhoenixCompiler::default().compile_hardware_aware_with_trace(4, &t, &dev);
        assert_eq!(
            trace.pass_names(),
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
        assert!(!hw.circuit.is_empty());
    }
}
