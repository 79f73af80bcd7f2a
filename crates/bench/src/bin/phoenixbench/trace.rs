//! The traced replay: spans recorded from the benchmark's own code around
//! each call into a layer's public entry point.
//!
//! A traced op re-runs one operation of a workload as the sequence of
//! layer calls the program makes internally — each pipeline pass as a
//! one-pass `PassManager`, the cache's `structure()` and `bind`, the
//! service's parse, execute and render — and times each call as a child
//! span of the op. A layer's self time is its span's duration (the spans
//! here have no children of their own); what no child covers is the op's
//! unattributed time.
//!
//! The replay mirrors the pipeline definition, so it can drift from it.
//! [`Recorder::check_replay`] guards that: a replayed op must produce the
//! program's own circuit bit for bit and run the passes its `PassTrace`
//! names, and the child spans must cover at least [`MIN_COVERAGE`] of the
//! op. A traced run that fails any of these fails loudly. Work the replay
//! leaves outside its spans misses coverage on every attempt, while a
//! scheduler stall between two spans is a one-off, so [`covered`] re-runs
//! an op that misses before the guard counts it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use phoenix_circuit::Circuit;
use phoenix_core::passes::{
    ConcatPass, GroupPass, LayoutRoutePass, OrderPass, SimplifySynthPass, SnapshotLogicalPass,
    TransformPass,
};
use phoenix_core::phoenix_obs::metrics::MetricsRegistry;
use phoenix_core::phoenix_obs::{perfetto, ObsReport, Span};
use phoenix_core::{
    CompileContext, Device, NativeIsa, Pass, PassManager, PhoenixOptions, EVENT_RETRIED,
};

use crate::Traced;

/// Every per-layer metric a traced run reports, with its unit; a workload
/// reports 0 for a layer it never calls. A layer's self time is reported as
/// its share of the traced op time (`<layer>.share`; multiply by
/// `trace.op_ms` for milliseconds), so the only time-valued metrics are
/// ones every workload measures.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("core.group.share", "ratio"),
    ("core.simplify-synth.share", "ratio"),
    ("core.simplify-synth.groups", "count"),
    ("core.simplify-synth.cnot_saved_ratio", "ratio"),
    ("core.tetris-order.share", "ratio"),
    ("core.concat.share", "ratio"),
    ("circuit.peephole.share", "ratio"),
    ("circuit.peephole.removed_ratio", "ratio"),
    ("circuit.rebase.share", "ratio"),
    ("router.layout-route.share", "ratio"),
    ("router.swaps", "count"),
    ("router.swaps_per_route", "count"),
    ("router.retry_ratio", "ratio"),
    ("cache.lookup.share", "ratio"),
    ("cache.bind.share", "ratio"),
    ("cache.program_hit_ratio", "ratio"),
    ("cache.group_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("serve.parse.share", "ratio"),
    ("serve.execute.share", "ratio"),
    ("serve.render.share", "ratio"),
    ("serve.queue_wait.p50_share", "ratio"),
    ("serve.queue_wait.p99_share", "ratio"),
    ("serve.unattributed.p50_share", "ratio"),
    ("serve.slo_miss_ratio", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("hamil.generate.ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_ratio", "ratio"),
];

/// The least share of a traced op its child spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// The layer a pipeline pass belongs to. The logical snapshot is routing
/// bookkeeping; SWAP lowering and the native-ISA rebases are all rebasing.
pub fn layer_of(pass: &str) -> Result<&'static str, String> {
    Ok(match pass {
        "group" => "core.group",
        "simplify-synth" => "core.simplify-synth",
        "tetris-order" => "core.tetris-order",
        "concat" => "core.concat",
        "peephole" => "circuit.peephole",
        "snapshot-logical" | "layout-route" => "router.layout-route",
        "cnot-lower" | "su4-rebase" | "kak-resynthesis" => "circuit.rebase",
        other => return Err(format!("no layer for pass `{other}`")),
    })
}

/// The logical pipeline passes with the options' values, in the order the
/// unbudgeted pipeline runs them.
pub fn logical_passes(options: &PhoenixOptions, routing_aware: bool) -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(GroupPass),
        Box::new(SimplifySynthPass {
            simplify: options.enable_simplification,
            threads: options.stage2_threads,
            scan_threads: options.stage2_scan_threads,
            fault_inject_group: None,
        }),
        Box::new(OrderPass {
            lookahead: options.lookahead,
            routing_aware: routing_aware || options.routing_aware,
            enabled: options.enable_ordering,
        }),
        Box::new(ConcatPass),
    ]
}

/// The passes of a `Target::Device` compile: the routing-aware logical
/// pipeline, the hardware back end, and the device's native-ISA suffix.
pub fn device_passes(device: &Device, options: &PhoenixOptions) -> Vec<Box<dyn Pass>> {
    let mut passes = logical_passes(options, true);
    passes.push(Box::new(TransformPass::peephole()));
    passes.push(Box::new(SnapshotLogicalPass));
    passes.push(Box::new(LayoutRoutePass {
        router: options.router.clone(),
        layout_trials: options.layout_trials,
    }));
    passes.push(Box::new(TransformPass::swap_lower()));
    passes.push(Box::new(TransformPass::peephole()));
    match device.isa() {
        NativeIsa::Cnot => {}
        NativeIsa::Su4 => passes.push(Box::new(TransformPass::su4_rebase())),
        NativeIsa::CnotViaKak => {
            passes.push(Box::new(TransformPass::su4_rebase()));
            passes.push(Box::new(TransformPass::kak_resynthesis()));
            passes.push(Box::new(TransformPass::peephole()));
        }
    }
    passes
}

/// Work counts taken at the pass boundaries of replayed compiles.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    compiles: u64,
    groups: u64,
    naive_cnot: u64,
    synth_cnot: u64,
    peephole_in: u64,
    peephole_out: u64,
    routes: u64,
    swaps: u64,
    retries: u64,
}

impl Counters {
    /// The per-layer ratios and counts these boundaries measured.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert(
            "core.simplify-synth.groups",
            ratio(self.groups, self.compiles),
        );
        out.insert(
            "core.simplify-synth.cnot_saved_ratio",
            ratio(
                self.naive_cnot.saturating_sub(self.synth_cnot),
                self.naive_cnot,
            ),
        );
        out.insert(
            "circuit.peephole.removed_ratio",
            ratio(
                self.peephole_in.saturating_sub(self.peephole_out),
                self.peephole_in,
            ),
        );
        out.insert("router.swaps_per_route", ratio(self.swaps, self.routes));
        out.insert("router.retry_ratio", ratio(self.retries, self.routes));
    }
}

/// One traced op: its start, the layer calls made inside it, and the
/// benchmark's own bookkeeping time, which is not part of the op.
#[derive(Debug)]
pub struct Op {
    label: String,
    start: Instant,
    calls: Vec<(&'static str, String, Instant, Instant)>,
    aside: Duration,
    end: Option<Instant>,
}

impl Op {
    /// Starts timing an op.
    pub fn start(label: impl Into<String>) -> Self {
        Op {
            label: label.into(),
            start: Instant::now(),
            calls: Vec::new(),
            aside: Duration::ZERO,
            end: None,
        }
    }

    /// Stops the op's clock.
    pub fn stop(&mut self) {
        self.end.get_or_insert_with(Instant::now);
    }

    /// The op's duration, without the benchmark's bookkeeping, in ns.
    fn total_ns(&self) -> f64 {
        let end = self.end.unwrap_or_else(Instant::now);
        (end - self.start).saturating_sub(self.aside).as_secs_f64() * 1e9
    }

    /// Share of the op its layer calls cover.
    fn coverage(&self) -> f64 {
        self.attributed_ms() * 1e6 / self.total_ns()
    }

    /// Runs `f`, the benchmark's own bookkeeping, off the op's clock.
    pub fn aside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.aside += start.elapsed();
        out
    }

    /// Runs `f` as a call into `layer`, recorded as a child span `name`.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls
            .push((layer, name.to_string(), start, Instant::now()));
        out
    }

    /// Milliseconds of the op covered by its layer calls so far.
    pub fn attributed_ms(&self) -> f64 {
        self.calls
            .iter()
            .map(|(_, _, start, stop)| (*stop - *start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Replays `passes` on `ctx`, each as a one-pass `PassManager` in a
    /// span of its layer, counting work at the boundaries. Returns the
    /// names of the passes run.
    pub fn replay(
        &mut self,
        ctx: &mut CompileContext,
        passes: Vec<Box<dyn Pass>>,
        counters: &mut Counters,
    ) -> Result<Vec<String>, String> {
        counters.compiles += 1;
        let mut names = Vec::with_capacity(passes.len());
        for pass in passes {
            let name = pass.name().to_string();
            let layer = layer_of(&name)?;
            // Peephole lowers to CNOTs before it optimizes: count what it
            // removes from the lowered circuit.
            let gates_in = if name == "peephole" {
                self.aside(|| ctx.circuit.lower_to_cnot().len() as u64)
            } else {
                0
            };
            let trace = self
                .span(layer, &name, || {
                    PassManager::with_passes(vec![pass]).run(ctx)
                })
                .map_err(|e| format!("replayed pass failed: {e}"))?;
            self.aside(|| match name.as_str() {
                "group" => {
                    counters.groups += ctx.num_groups as u64;
                    counters.naive_cnot += ctx
                        .terms
                        .iter()
                        .map(|(p, _)| 2 * (p.weight().max(1) as u64 - 1))
                        .sum::<u64>();
                }
                "simplify-synth" => {
                    counters.synth_cnot += ctx
                        .subcircuits
                        .iter()
                        .map(|c| c.counts().two_qubit() as u64)
                        .sum::<u64>();
                }
                "peephole" => {
                    counters.peephole_in += gates_in;
                    counters.peephole_out += ctx.circuit.len() as u64;
                }
                "layout-route" => {
                    counters.routes += 1;
                    counters.swaps += ctx.num_swaps as u64;
                    counters.retries += trace.events_of_kind(EVENT_RETRIED).len() as u64;
                }
                _ => {}
            });
            names.push(name);
        }
        Ok(names)
    }
}

/// Runs `replay` — which starts, fills and returns an [`Op`] — until its
/// spans cover [`MIN_COVERAGE`] of it, at most three times.
pub fn covered<T>(mut replay: impl FnMut() -> (Op, T)) -> (Op, T) {
    let mut attempt = 1;
    loop {
        let (mut op, out) = replay();
        op.stop();
        if op.coverage() >= MIN_COVERAGE || attempt == 3 {
            return (op, out);
        }
        attempt += 1;
    }
}

/// Collects traced ops: per-layer self time, the untraced time of the same
/// ops, drift failures, and the spans for the Perfetto export.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    ops: Vec<Span>,
    self_ns: BTreeMap<&'static str, f64>,
    traced_ns: f64,
    attributed_ns: f64,
    untraced_ns: f64,
    /// Drift-guard violations; any entry fails the traced run.
    pub failures: Vec<String>,
}

impl Recorder {
    /// An empty recorder; span timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            ops: Vec::new(),
            self_ns: BTreeMap::new(),
            traced_ns: 0.0,
            attributed_ns: 0.0,
            untraced_ns: 0.0,
            failures: Vec::new(),
        }
    }

    /// Number of traced ops recorded.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Closes `op`, checks its span coverage, and records it. `untraced_ms`
    /// is the time the same op took when the program ran it itself.
    pub fn finish(&mut self, mut op: Op, untraced_ms: f64) {
        op.stop();
        let end = op.end.unwrap_or(op.start);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_micros() as u64;
        let total = op.total_ns();
        let mut attributed = 0.0;
        let mut children = Vec::with_capacity(op.calls.len());
        for (layer, name, start, stop) in &op.calls {
            let ns = (*stop - *start).as_secs_f64() * 1e9;
            attributed += ns;
            *self.self_ns.entry(layer).or_insert(0.0) += ns;
            let mut span = Span::new(name.as_str(), *layer).arg("layer", layer);
            span.start_us = us(*start);
            span.dur_us = us(*stop).saturating_sub(span.start_us);
            children.push(span);
        }
        if attributed < MIN_COVERAGE * total {
            self.failures.push(format!(
                "op `{}`: spans cover {:.1}% of it, below {:.0}%",
                op.label,
                100.0 * attributed / total,
                100.0 * MIN_COVERAGE
            ));
        }
        self.traced_ns += total;
        self.attributed_ns += attributed;
        self.untraced_ns += untraced_ms * 1e6;
        let mut span = Span::new(op.label.as_str(), "op").arg("req", self.ops.len());
        span.start_us = us(op.start);
        span.dur_us = us(end).saturating_sub(span.start_us);
        span.children = children;
        self.ops.push(span);
    }

    /// The drift guard for one compile: the replay must reproduce the
    /// program's circuit bit for bit and run the passes its trace names.
    pub fn check_replay(
        &mut self,
        label: &str,
        replayed: (&Circuit, &[String]),
        program: (&Circuit, &[&str]),
    ) {
        if replayed.0 != program.0 {
            self.failures.push(format!(
                "op `{label}`: replayed circuit differs from the program's"
            ));
        }
        if replayed.1 != program.1 {
            self.failures.push(format!(
                "op `{label}`: replayed passes {:?}, the program ran {:?}",
                replayed.1, program.1
            ));
        }
    }

    /// Each called layer's share of the traced op time and its mean self
    /// time per op, the mean op time, the trace overhead and the attributed
    /// share, in `out`.
    pub fn metrics(&self, out: &mut Traced) {
        if self.ops.is_empty() || self.traced_ns <= 0.0 {
            return;
        }
        let ops = self.ops.len() as f64;
        for (layer, ns) in &self.self_ns {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".share") == Some(*layer))
                .expect("every layer has a `.share` metric");
            out.metrics.insert(name, ns / self.traced_ns);
            out.self_ms.insert(layer, ns / ops / 1e6);
        }
        out.metrics
            .insert("trace.op_ms", self.traced_ns / ops / 1e6);
        out.metrics.insert(
            "trace.attributed_ratio",
            self.attributed_ns / self.traced_ns,
        );
        if self.untraced_ns > 0.0 {
            out.metrics
                .insert("trace.overhead_ratio", self.traced_ns / self.untraced_ns);
        }
    }

    /// Writes the spans as a Perfetto trace, one op per `op` span, to
    /// `results/phoenixbench_trace_<workload>.json`.
    pub fn write(&self, workload: &str) -> std::io::Result<String> {
        let mut root = Span::new(workload, "workload");
        if let (Some(first), Some(last)) = (self.ops.first(), self.ops.last()) {
            root.start_us = first.start_us;
            root.dur_us = (last.start_us + last.dur_us).saturating_sub(first.start_us);
        }
        root.children = self.ops.clone();
        let empty = MetricsRegistry::new().snapshot();
        let report = ObsReport {
            root,
            metrics: empty.clone(),
            global_metrics: empty,
            events: Vec::new(),
        };
        let json = perfetto::to_json(&perfetto::to_trace_file(workload, &report))
            .map_err(std::io::Error::other)?;
        std::fs::create_dir_all("results")?;
        let path = format!("results/phoenixbench_trace_{workload}.json");
        std::fs::write(&path, json)?;
        Ok(path)
    }
}
