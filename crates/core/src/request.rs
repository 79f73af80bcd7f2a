//! The unified compilation API: [`CompileRequest`] → [`CompileOutcome`].
//!
//! Every compilation goes through one builder: pick a [`Target`], set
//! options and retention flags, then [`CompileRequest::run`] (or
//! [`CompileRequest::bind`] / [`CompileRequest::structure`] for the cached
//! parametric path, [`CompileRequest::fleet`] for a ranked fleet):
//!
//! ```
//! use phoenix_core::{CompileRequest, Target};
//! use phoenix_pauli::PauliString;
//!
//! let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
//!     .iter()
//!     .map(|s| (s.parse().unwrap(), 0.1))
//!     .collect();
//! let outcome = CompileRequest::new(3, &terms)
//!     .target(Target::Cnot)
//!     .trace(true)
//!     .obs(true)
//!     .run()
//!     .unwrap();
//! assert!(outcome.circuit.counts().cnot < 16);
//! assert!(outcome.trace.is_some());
//! let report = outcome.obs.unwrap();
//! assert_eq!(report.metrics.counter("groups_compiled"), Some(1));
//! ```
//!
//! Every path runs the one pass list of `pipeline.rs`: the logical stages,
//! then the target's lowering suffix.

use std::sync::Arc;
use std::time::Instant;

use phoenix_cache::{check_angles, CompileCache, StructureArtifact};
use phoenix_circuit::Circuit;
use phoenix_device::Device;
use phoenix_obs::{metrics, MetricId, ObsCollector, ObsReport, Span};
use phoenix_pauli::PauliString;

use crate::error::{validate_device, validate_program, PhoenixError};
use crate::par;
use crate::parametric;
use crate::pass::{CompileContext, PassManager, PassTrace, Recording};
use crate::pipeline::{
    compile_passes, extract_hardware_program, lowering_passes, HardwareProgram, PhoenixOptions,
};

/// The compilation target a [`CompileRequest`] lowers to.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Target {
    /// The ordered high-level IR-group circuit (Clifford2Q generators +
    /// ≤2Q Pauli rotations), still ISA-independent.
    #[default]
    Logical,
    /// The CNOT ISA (lowered + peephole-optimized).
    Cnot,
    /// The SU(4) ISA: SU(4) blocks emitted directly from the simplified IR.
    Su4,
    /// The CNOT ISA *through* the SU(4) layer: blocks KAK-resynthesized to
    /// their Weyl floor before lowering.
    CnotViaKak,
    /// Hardware-aware compilation onto a [`Device`]: routing-aware
    /// ordering, CNOT lowering, layout search + SABRE routing, SWAP
    /// lowering, peephole, then rebase into the device's native ISA
    /// (see [`phoenix_device::NativeIsa`]). A bare coupling graph compiles
    /// as [`Device::bare`], a noiseless CNOT-ISA device.
    Device(Device),
}

impl Target {
    /// Whether this target routes onto hardware, which makes stage 3's
    /// ordering routing-aware (Eq. (7)).
    pub(crate) fn routes(&self) -> bool {
        matches!(self, Target::Device(_))
    }
}

/// A single compilation, fully described: program, target, options, and
/// which observability artifacts to retain.
///
/// Build with [`CompileRequest::new`], refine with the builder methods,
/// execute with [`CompileRequest::run`].
#[derive(Debug, Clone)]
pub struct CompileRequest {
    num_qubits: usize,
    terms: Vec<(PauliString, f64)>,
    target: Target,
    options: PhoenixOptions,
    trace: bool,
    obs: bool,
    cache: Option<Arc<CompileCache>>,
}

impl CompileRequest {
    /// A request to compile `terms` on `num_qubits` qubits with default
    /// options, targeting [`Target::Logical`], retaining neither trace nor
    /// observability report.
    pub fn new(num_qubits: usize, terms: &[(PauliString, f64)]) -> Self {
        CompileRequest {
            num_qubits,
            terms: terms.to_vec(),
            target: Target::default(),
            options: PhoenixOptions::default(),
            trace: false,
            obs: false,
            cache: None,
        }
    }

    /// Sets the compilation target (builder style).
    pub fn target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Sets the compiler options (builder style).
    pub fn options(mut self, options: PhoenixOptions) -> Self {
        self.options = options;
        self
    }

    /// Whether to retain the [`PassTrace`] in the outcome. It is the only
    /// thing that makes a compile measure its pass boundaries: a compile
    /// that keeps no trace takes no boundary statistics at all. With
    /// [`CompileRequest::obs`] on as well, the obs report also gets the
    /// span tree, built from the same measurements.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Whether to instrument the compilation: attach an [`ObsCollector`]
    /// whose per-compilation counters, gauges and histograms the passes and
    /// the pass manager feed. The resulting [`ObsReport`] lands in
    /// [`CompileOutcome::obs`]; its events are the [`PassTrace`]'s, and its
    /// `global_metrics` are the process-wide counters' delta over the
    /// compile. Its span tree is built only when the request also keeps its
    /// trace ([`CompileRequest::trace`]); without it, the root `pipeline`
    /// span has no children and no boundary is measured.
    pub fn obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// Attaches a shared parametric compilation cache (builder style).
    ///
    /// With a cache attached, [`CompileRequest::run`] splits into a
    /// structure phase (memoized in the cache under the program's ordered
    /// Pauli masks and the values of the options the structure phase
    /// reads, compared in full) and an angle-binding phase; stage 2
    /// additionally reuses per-shape group artifacts, and a
    /// [`Target::Device`] lowering reuses the routing of any earlier
    /// compile whose router input had the same gates on the same qubits
    /// (on the same graph, router options and layout trials), copying the
    /// new angles into it. Outputs are bit-for-bit identical to the
    /// uncached path. Requests carrying a pass budget or verification fall
    /// back to the legacy path — time-boxed or verifier-audited runs must
    /// not be served from (or leak into) a cache.
    pub fn cache(mut self, cache: &Arc<CompileCache>) -> Self {
        self.cache = Some(Arc::clone(cache));
        self
    }

    /// Runs only the structure phase: grouping, simplification, ordering
    /// and synthesis on the angle-erased program, returning the rebindable
    /// [`StructureArtifact`]. Served from the attached cache when possible.
    /// The request's coefficients are ignored — only the Pauli strings
    /// (and their order) matter.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PhoenixError`] on invalid input or a failing pass.
    pub fn structure(self) -> Result<Arc<StructureArtifact>, PhoenixError> {
        let (artifact, _, _) = parametric::obtain_structure(
            self.num_qubits,
            &self.terms,
            &self.options,
            self.target.routes(),
            self.cache.as_ref(),
            None,
            Recording::now(false),
        )?;
        Ok(artifact)
    }

    /// Compiles with `angles` substituted for the request's coefficients:
    /// exactly [`CompileRequest::run`] on the program with these angles as
    /// its coefficients. This is the VQE-sweep entry point — with a cache
    /// attached, `run` takes the structure/bind path, so on a warm cache
    /// everything but the substitution and target lowering is skipped, and
    /// a device target's lowering binds into the cached routing instead of
    /// searching a layout.
    ///
    /// # Errors
    ///
    /// [`PhoenixError::Bind`] when the angle vector's length differs from
    /// the term count or an angle is not finite, whatever the options and
    /// cache; otherwise the errors of [`CompileRequest::run`].
    pub fn bind(mut self, angles: &[f64]) -> Result<CompileOutcome, PhoenixError> {
        check_angles(angles, self.terms.len())?;
        for ((_, c), a) in self.terms.iter_mut().zip(angles) {
            *c = *a;
        }
        self.run()
    }

    /// Executes the request.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PhoenixError`] on invalid input, an unroutable
    /// device, a failing pass, or a rejected verification boundary — never
    /// panics on bad input.
    pub fn run(self) -> Result<CompileOutcome, PhoenixError> {
        validate_program(self.num_qubits, &self.terms)?;
        if self.cache.is_some() && parametric::split_path_allowed(&self.options) {
            let coefficients: Vec<f64> = self.terms.iter().map(|(_, c)| *c).collect();
            return self.run_split(&coefficients);
        }
        let start = Instant::now();
        let ctx = self.context()?;
        let manager = compile_passes(&self.options, &self.target);
        let collector = self.collector();
        self.execute(manager, ctx, PassTrace::default(), collector, start)
    }

    /// Compiles the request's program against every device of `devices` in
    /// parallel and ranks the successful outcomes by predicted fidelity.
    ///
    /// Each member compiles exactly as [`Target::Device`] on that device
    /// would — routing onto its topology, rebasing into its native ISA,
    /// retaining trace/obs per the request's flags — over at most
    /// [`PhoenixOptions::fleet_threads`] threads of the crate's worker pool
    /// (the stage-2 discipline: index-aligned slots). The ranked outcome is
    /// identical for every `fleet_threads` value, and a fleet of one equals
    /// the single-device path bit for bit. With a [`CompileCache`] attached
    /// (and no pass budget or verification), the fleet obtains the
    /// structure phase, which no device changes, once on the calling thread
    /// before the members start, and every member binds from it: a fleet
    /// over a fresh cache records one program miss and one hit per member.
    /// Members whose devices share a coupling graph also share a route-memo
    /// key, so the fleet runs in two rounds: the first member on each graph
    /// routes in the first, and the rest bind into those routings in the
    /// second, one route miss per graph.
    ///
    /// Ties in predicted fidelity keep the input device order. The
    /// request's own `target` field is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`PhoenixError::EmptyFleet`] when `devices` is empty.
    /// Per-device failures (e.g. a device too small for the program) do
    /// not fail the fleet — they land in [`FleetOutcome::failed`].
    pub fn fleet(mut self, devices: &[Device]) -> Result<FleetOutcome, PhoenixError> {
        if devices.is_empty() {
            return Err(PhoenixError::EmptyFleet);
        }
        metrics::global().incr(MetricId::FleetCompiles);
        metrics::global().add(MetricId::FleetMembersCompiled, devices.len() as u64);
        // Per-member targets are assigned below; drop any device so member
        // clones stay cheap.
        self.target = Target::Logical;
        // One structure compile for all members, before they could race to
        // compile it. Only a program some member accepts is compiled, and
        // an error is left to the members, which report it per device.
        let n = self.num_qubits;
        let cached = self.cache.is_some() && parametric::split_path_allowed(&self.options);
        if cached
            && validate_program(n, &self.terms).is_ok()
            && devices
                .iter()
                .any(|d| validate_device(n, d.graph()).is_ok())
        {
            let _ = parametric::obtain_structure(
                n,
                &self.terms,
                &self.options,
                true, // every member routes
                self.cache.as_ref(),
                None,
                Recording::now(false),
            );
        }
        // With the cache in use, members on one coupling graph share a
        // route-memo key: the first member on each graph runs in a first
        // round and routes, and every other member runs in a second round
        // and binds into that routing. Without the cache every member runs
        // in one round.
        let mut rounds = [Vec::new(), Vec::new()];
        for (i, dev) in devices.iter().enumerate() {
            let later = cached && devices[..i].iter().any(|d| d.graph() == dev.graph());
            rounds[usize::from(later)].push(i);
        }
        // Members run on pool threads, so each round's job owns the
        // request, the devices and its indices; each member's stage 2
        // nests on the same pool.
        let fleet_threads = self.options.fleet_threads;
        let base = Arc::new(self);
        let members: Arc<[Device]> = devices.into();
        let mut slots: Vec<_> = devices.iter().map(|_| None).collect();
        for round in rounds.into_iter().filter(|round| !round.is_empty()) {
            let threads = par::resolve_threads(fleet_threads).clamp(1, round.len());
            let round: Arc<[usize]> = round.into();
            let (job_base, job_members, job_round) =
                (Arc::clone(&base), Arc::clone(&members), Arc::clone(&round));
            let done = par::map(
                round.len(),
                threads,
                || (),
                move |_, k| {
                    let dev = &job_members[job_round[k]];
                    let req = CompileRequest::clone(&job_base).target(Target::Device(dev.clone()));
                    match req.run() {
                        Ok(outcome) => Ok(FleetEntry {
                            fidelity: dev.predicted_fidelity(&outcome.circuit),
                            device: dev.clone(),
                            outcome,
                        }),
                        Err(e) => Err((dev.name().to_string(), e)),
                    }
                },
            );
            for (&i, out) in round.iter().zip(done) {
                slots[i] = Some(out);
            }
        }
        let mut ranked = Vec::new();
        let mut failed = Vec::new();
        for slot in slots.into_iter().flatten() {
            match slot {
                Ok(entry) => ranked.push(entry),
                Err(fail) => failed.push(fail),
            }
        }
        // Stable sort: fidelity descending, input order breaking ties.
        ranked.sort_by(|a, b| b.fidelity.total_cmp(&a.fidelity));
        Ok(FleetOutcome { ranked, failed })
    }

    /// The split structure/bind execution path: obtain the structure
    /// artifact (cache-aware), bind `angles`, then run the target's
    /// circuit-level lowering on the bound circuit, with the cache mounted
    /// for the route memo. The retained trace honestly reflects what ran:
    /// on a program-cache hit it contains only the lowering passes. Both
    /// phases time their passes from one start, so `cumulative_millis`
    /// runs on across them.
    fn run_split(self, angles: &[f64]) -> Result<CompileOutcome, PhoenixError> {
        let start = Instant::now();
        let mut ctx = self.context()?;
        let collector = self.collector();
        let (artifact, _hit, trace) = parametric::obtain_structure(
            self.num_qubits,
            &self.terms,
            &self.options,
            self.target.routes(),
            self.cache.as_ref(),
            collector.as_ref(),
            self.recording(start),
        )?;
        // The bind gets a span under the rule every pass span follows: only
        // a compile that keeps its trace builds spans.
        let spans = collector.as_ref().filter(|_| self.trace);
        let bind_start = spans.map(|c| c.now_us());
        let bound = artifact.bind(angles)?;
        if let Some(c) = spans {
            let mut span = Span::new("bind", "bind");
            span.start_us = bind_start.unwrap_or(0);
            span.dur_us = c.now_us().saturating_sub(span.start_us);
            c.push_root(span);
        }
        ctx.circuit = bound.circuit;
        ctx.term_order = bound.term_order;
        ctx.num_groups = bound.num_groups;
        // The lowering sees the cache too: `layout-route` memoizes routed
        // templates in it.
        ctx.cache = self.cache.clone();
        let manager = lowering_passes(&self.target, &self.options);
        self.execute(manager, ctx, trace, collector, start)
    }

    /// A fresh context for the request's program, on its device (checked
    /// to fit) when the target routes onto one.
    fn context(&self) -> Result<CompileContext, PhoenixError> {
        match &self.target {
            Target::Device(device) => {
                validate_device(self.num_qubits, device.graph())?;
                Ok(CompileContext::for_device(
                    self.num_qubits,
                    &self.terms,
                    device.graph(),
                ))
            }
            _ => Ok(CompileContext::new(self.num_qubits, &self.terms)),
        }
    }

    /// How the compile's managers record, on a clock started at `start`:
    /// boundaries are measured only when the request keeps its trace.
    fn recording(&self, start: Instant) -> Recording {
        Recording {
            t0: start,
            measure: self.trace,
        }
    }

    /// The request's observability collector, when `obs` is on.
    fn collector(&self) -> Option<Arc<ObsCollector>> {
        self.obs.then(|| Arc::new(ObsCollector::new()))
    }

    /// Runs `manager` over `ctx` on the compile's clock, started at
    /// `start`, and assembles the outcome. `trace` holds the passes that
    /// already ran on that clock (the split path's structure phase);
    /// `manager`'s passes are appended to it.
    fn execute(
        &self,
        manager: PassManager,
        mut ctx: CompileContext,
        mut trace: PassTrace,
        collector: Option<Arc<ObsCollector>>,
        start: Instant,
    ) -> Result<CompileOutcome, PhoenixError> {
        ctx.obs = collector.clone();
        ctx.cancel = self.options.cancel.clone();
        let ran = manager.run_from(&mut ctx, self.recording(start))?;
        trace.passes.extend(ran.passes);
        trace.events.extend(ran.events);
        let obs = collector.map(|c| {
            c.finish(if self.trace {
                trace.events.clone()
            } else {
                std::mem::take(&mut trace.events)
            })
        });
        let num_groups = ctx.num_groups;
        let depth_reached = ctx.depth_reached;
        let term_order = std::mem::take(&mut ctx.term_order);
        let (circuit, hardware) = match &self.target {
            Target::Device(_) => {
                let hw = extract_hardware_program(ctx)?;
                (hw.circuit.clone(), Some(hw))
            }
            _ => (ctx.circuit, None),
        };
        Ok(CompileOutcome {
            circuit,
            num_groups,
            term_order,
            hardware,
            depth_reached,
            trace: self.trace.then_some(trace),
            obs,
        })
    }
}

/// Everything a compilation produced.
///
/// `circuit` is always the final circuit of the requested target (for
/// [`Target::Device`] it equals `hardware.circuit`); the optional fields
/// are populated according to the request's target and retention flags.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The compiled circuit in the requested target ISA.
    pub circuit: Circuit,
    /// Number of IR groups the program decomposed into.
    pub num_groups: usize,
    /// The input terms in the order the emitted circuit implements them.
    pub term_order: Vec<(PauliString, f64)>,
    /// The full hardware program ([`Target::Device`] only).
    pub hardware: Option<HardwareProgram>,
    /// Deepening rounds the anytime optimizer completed (budgeted compiles
    /// only; `None` on the legacy unbudgeted path). `0` means the naive
    /// round-0 baseline was returned.
    pub depth_reached: Option<usize>,
    /// The pass trace (when requested via [`CompileRequest::trace`]).
    pub trace: Option<PassTrace>,
    /// The observability report (when requested via
    /// [`CompileRequest::obs`]).
    pub obs: Option<ObsReport>,
}

/// One fleet member's compilation: the device, its predicted fidelity for
/// the compiled circuit, and the full per-device outcome (trace and obs
/// retention apply per member, exactly as for a single-device request).
#[derive(Debug, Clone)]
pub struct FleetEntry {
    /// The device this member compiled onto.
    pub device: Device,
    /// Predicted fidelity of the compiled circuit on the device (the
    /// product of per-gate and readout success probabilities; see
    /// [`Device::predicted_fidelity`]).
    pub fidelity: f64,
    /// The member's compilation outcome, hardware program included.
    pub outcome: CompileOutcome,
}

/// The result of compiling one program against a fleet of devices.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Successful members, best predicted fidelity first; ties keep the
    /// input device order.
    pub ranked: Vec<FleetEntry>,
    /// Members that failed to compile, as `(device name, error)`, in
    /// input device order. A failed member never fails the fleet.
    pub failed: Vec<(String, PhoenixError)>,
}

impl FleetOutcome {
    /// The best-ranked member, if any member compiled.
    pub fn best(&self) -> Option<&FleetEntry> {
        self.ranked.first()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use phoenix_topology::CouplingGraph;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn default_request_targets_logical_without_artifacts() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = CompileRequest::new(3, &t).run().unwrap();
        assert_eq!(out.num_groups, 1);
        assert!(out.trace.is_none());
        assert!(out.obs.is_none());
        assert!(out.hardware.is_none());
        assert!(!out.circuit.is_empty());
    }

    #[test]
    fn device_target_populates_the_hardware_program() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let dev = CouplingGraph::line(4);
        let out = CompileRequest::new(4, &t)
            .target(Target::Device(Device::bare(dev.clone())))
            .trace(true)
            .run()
            .unwrap();
        assert!(!out.trace.unwrap().passes.is_empty());
        let hw = out.hardware.unwrap();
        assert_eq!(hw.circuit, out.circuit);
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
    }

    #[test]
    fn non_device_outcomes_carry_no_hardware_program() {
        let t = terms(&["ZZ"]);
        for target in [
            Target::Logical,
            Target::Cnot,
            Target::Su4,
            Target::CnotViaKak,
        ] {
            let out = CompileRequest::new(2, &t).target(target).run().unwrap();
            assert!(out.hardware.is_none());
        }
    }

    #[test]
    fn obs_report_carries_spans_metrics_and_events() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = CompileRequest::new(3, &t)
            .target(Target::Cnot)
            .trace(true)
            .obs(true)
            .run()
            .unwrap();
        let report = out.obs.unwrap();
        assert_eq!(report.root.name, "pipeline");
        let names: Vec<&str> = report
            .root
            .children
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );
        assert_eq!(report.metrics.counter("passes_run"), Some(5));
        assert_eq!(report.metrics.counter("groups_compiled"), Some(1));
        assert_eq!(report.metrics.counter("terms_compiled"), Some(4));
        // The report renders without panicking and names every pass.
        let text = report.render();
        assert!(text.contains("simplify-synth"), "{text}");
    }

    /// `f`'s result and the [`CircuitStats`](crate::pass::CircuitStats)
    /// it took on this thread.
    fn stats_taken<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let count = || crate::pass::STATS_TAKEN.with(std::cell::Cell::get);
        let before = count();
        let out = f();
        (out, count() - before)
    }

    /// The passes a compile recorded in its trace.
    fn passes_recorded(out: &CompileOutcome) -> usize {
        out.trace.as_ref().unwrap().passes.len()
    }

    #[test]
    fn only_a_compile_that_keeps_a_record_measures_its_boundaries() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX"]);
        let angles: Vec<f64> = (0..t.len()).map(|i| 0.3 - 0.1 * i as f64).collect();
        let line = Target::Device(Device::bare(CouplingGraph::line(3)));
        let request = |target: &Target, trace: bool, obs: bool| {
            CompileRequest::new(3, &t)
                .target(target.clone())
                .trace(trace)
                .obs(obs)
        };

        // Untraced compiles take no statistics, whether or not they keep an
        // obs report: unsplit, cold and warm cached binds (the warm device
        // bind binds into the cold one's routing), and fleet members (on
        // the calling thread with one fleet thread).
        for obs in [false, true] {
            for target in [Target::Cnot, line.clone()] {
                let (_, taken) = stats_taken(|| request(&target, false, obs).run().unwrap());
                assert_eq!(taken, 0, "obs {obs}, {target:?}");
                let cache = Arc::new(CompileCache::new());
                for phase in ["cold", "warm"] {
                    let (_, taken) = stats_taken(|| {
                        request(&target, false, obs)
                            .cache(&cache)
                            .bind(&angles)
                            .unwrap()
                    });
                    assert_eq!(taken, 0, "obs {obs}, {phase} bind, {target:?}");
                }
                assert_eq!(cache.stats().route_hits, u64::from(target.routes()));
            }
            let devices = [CouplingGraph::line(3), CouplingGraph::ring(3)].map(Device::bare);
            let one_thread = PhoenixOptions {
                fleet_threads: 1,
                ..PhoenixOptions::default()
            };
            let (_, taken) = stats_taken(|| {
                request(&Target::Logical, false, obs)
                    .options(one_thread)
                    .fleet(&devices)
                    .unwrap()
            });
            assert_eq!(taken, 0, "obs {obs}, fleet");
        }
        // A budgeted compile scores its rounds on statistics of its own; an
        // obs report adds none.
        let budgeted = |obs| {
            let options = PhoenixOptions {
                pass_budget: Some(std::time::Duration::from_secs(3600)),
                anytime_rounds: Some(2),
                ..PhoenixOptions::default()
            };
            let compile = || request(&line, false, obs).options(options).run().unwrap();
            stats_taken(compile).1
        };
        assert_eq!(budgeted(true), budgeted(false), "budgeted");
        let (_, taken) = stats_taken(|| request(&Target::Cnot, true, true).structure().unwrap());
        assert_eq!(taken, 0, "structure()");
        let logical = request(&Target::Logical, false, false).run().unwrap();
        let (_, taken) = stats_taken(|| {
            crate::try_run_hardware_backend(
                &logical.circuit,
                &CouplingGraph::line(3),
                &Default::default(),
                1,
            )
            .unwrap()
        });
        assert_eq!(taken, 0, "try_run_hardware_backend");

        // A kept trace takes one measurement per boundary: each manager
        // measures before its first pass and after every pass. Unsplit
        // compiles run one manager; a cold cached bind runs two (the
        // structure phase and the lowering), a warm one only the lowering.
        for obs in [false, true] {
            for (target, passes) in [(Target::Cnot, 5), (line.clone(), 9)] {
                let (out, taken) = stats_taken(|| request(&target, true, obs).run().unwrap());
                assert_eq!(passes_recorded(&out), passes, "obs {obs}, {target:?}");
                assert_eq!(taken, passes + 1, "obs {obs}, {target:?}");
            }
            let cache = Arc::new(CompileCache::new());
            for (phase, passes, managers) in [("cold", 5, 2), ("warm", 1, 1)] {
                let (out, taken) = stats_taken(|| {
                    request(&Target::Cnot, true, obs)
                        .cache(&cache)
                        .bind(&angles)
                        .unwrap()
                });
                assert_eq!(passes_recorded(&out), passes, "obs {obs}, {phase}");
                assert_eq!(taken, passes + managers, "obs {obs}, {phase}");
            }
        }
    }

    #[test]
    fn invalid_programs_are_rejected_with_typed_errors() {
        let nan = vec![("XX".parse::<PauliString>().unwrap(), f64::NAN)];
        assert!(CompileRequest::new(2, &nan).run().is_err());
        let dev = CouplingGraph::line(2);
        assert!(matches!(
            CompileRequest::new(3, &terms(&["ZZI"]))
                .target(Target::Device(Device::bare(dev)))
                .run(),
            Err(PhoenixError::DeviceTooSmall { .. })
        ));
    }
}
