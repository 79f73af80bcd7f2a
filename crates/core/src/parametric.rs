//! The structure/angle phase split: parametric compilation orchestration.
//!
//! PHOENIX's pipeline factors cleanly into an **angle-independent structure
//! phase** (grouping, BSF simplification, candidate search, Tetris ordering,
//! concatenation — everything expensive) and a trivial **angle-binding
//! phase** (substituting `θ = 2·(±coeff)` into the synthesized skeleton).
//! This module runs the structure phase with each input coefficient replaced
//! by its [`encode_slot`] payload, decodes the resulting skeleton into a
//! rebindable [`StructureArtifact`], and memoizes it in a shared
//! [`CompileCache`] under a [`ProgramKey`]: the program's ordered masks
//! plus the values of the options the structure phase reads, compared in
//! full.
//!
//! The slot encoding makes the factoring an *observation*, not a rewrite:
//! the structure phase runs the unmodified passes. No pass reads coefficient
//! magnitudes — Clifford conjugation only flips signs, and the cost
//! functions of Eqs. (6)–(7) are support-based — so every angle the
//! synthesizer emits is exactly `±2(slot+1)`, decodable because integer
//! negation and doubling are exact in IEEE-754. Binding performs the same
//! float operations the cold pipeline would have, so warm and cold outputs
//! are bit-for-bit identical (enforced by `phoenix-verify`'s parametric
//! differential checks).
//!
//! Circuit-level lowering (peephole, SU(4) rebase, KAK, routing) runs
//! *after* binding: peephole merges adjacent rotations by adding their
//! angles, and a sum of two slot payloads is not a slot payload — it would
//! decode silently to the wrong parameter. Keeping the skeleton at the
//! logical level makes every cached angle a pristine encoding.
//!
//! Routing, the costly part of that lowering, is memoized one layer
//! further down: `layout-route` slot-encodes the *bound, peephole-lowered*
//! circuit it is about to route, so its templates see pristine encodings
//! too, and the same cache holds them (DESIGN.md §2.10, "The route
//! memo").

use std::sync::Arc;

use phoenix_cache::{encode_slot, CompileCache, ProgramKey, StructureArtifact};
use phoenix_obs::metrics::MetricId;
use phoenix_obs::ObsCollector;
use phoenix_pauli::{CanonicalIr, PauliString};

use crate::error::{validate_program, PhoenixError};
use crate::pass::{CompileContext, PassTrace, Recording};
use crate::pipeline::{logical_passes, PhoenixOptions};
use crate::request::Target;

/// The program-cache key of `terms` over `num_qubits` qubits compiled with
/// `options`, routing-aware when `routing_aware` or the options say so: the
/// ordered masks plus every option the structure phase reads. Thread
/// counts change no output, router options act after binding, and a
/// budgeted or verified compile never takes the cached path.
fn program_key(
    num_qubits: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
    routing_aware: bool,
) -> ProgramKey {
    ProgramKey::new(
        CanonicalIr::from_terms(num_qubits, terms),
        options.lookahead,
        options.enable_simplification,
        options.enable_ordering,
        routing_aware || options.routing_aware,
    )
}

/// Whether the split structure/bind path may serve a request with these
/// options. Pass budgets make outputs time-dependent and verification
/// carries state across the whole pipeline, so `run()` and `bind()` compile
/// both unsplit, through one manager (the cache is simply not consulted).
pub(crate) fn split_path_allowed(options: &PhoenixOptions) -> bool {
    options.pass_budget.is_none() && !options.verify
}

/// Runs the structure phase cold: compiles `terms` slot-encoded through the
/// logical pipeline and decodes the skeleton into a [`StructureArtifact`].
///
/// `cache` (when given) is threaded into the context so stage 2 can reuse
/// per-shape group artifacts; `obs` instruments the run, and `rec` puts it
/// on the compile's clock and says whether its boundaries are measured.
pub(crate) fn compile_structure(
    num_qubits: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
    routing_aware: bool,
    cache: Option<&Arc<CompileCache>>,
    obs: Option<&Arc<ObsCollector>>,
    rec: Recording,
) -> Result<(Arc<StructureArtifact>, PassTrace), PhoenixError> {
    // Validate on the slot-encoded terms: structure compilation is
    // independent of the request's coefficients, so a program whose angles
    // are not yet known (or not yet finite) still has a valid structure.
    let slot_terms: Vec<(PauliString, f64)> = terms
        .iter()
        .enumerate()
        .map(|(i, (p, _))| (p.clone(), encode_slot(i)))
        .collect();
    validate_program(num_qubits, &slot_terms)?;
    let mut ctx = CompileContext::new(num_qubits, &slot_terms);
    ctx.cache = cache.cloned();
    ctx.obs = obs.cloned();
    ctx.cancel = options.cancel.clone();
    // The same logical stages `run()` starts with: a budget deepens them
    // anytime-style, scored on the logical circuit, and `verify` audits
    // them on the slot-encoded terms. Only
    // `structure()` brings either here, with the cache filtered out;
    // `run()` and `bind()` compile such requests unsplit.
    let trace = logical_passes(options, routing_aware, &Target::Logical).run_from(&mut ctx, rec)?;
    let artifact = StructureArtifact::from_slot_encoded(
        num_qubits,
        terms.len(),
        ctx.num_groups,
        ctx.circuit,
        &ctx.term_order,
    )?;
    Ok((Arc::new(artifact), trace))
}

/// Obtains the structure artifact for a request: from the program-level
/// cache when possible, compiling (and inserting) otherwise. Returns the
/// artifact, whether it was a program-cache hit, and the structure-phase
/// trace (empty on a hit — those passes never ran), recorded as `rec` says.
pub(crate) fn obtain_structure(
    num_qubits: usize,
    terms: &[(PauliString, f64)],
    options: &PhoenixOptions,
    routing_aware: bool,
    cache: Option<&Arc<CompileCache>>,
    obs: Option<&Arc<ObsCollector>>,
    rec: Recording,
) -> Result<(Arc<StructureArtifact>, bool, PassTrace), PhoenixError> {
    // `structure()` lands here regardless of options, so re-apply the
    // same gating `run()` uses before taking the split path: a request
    // carrying a pass budget (even `Duration::ZERO`) or verification must
    // never be served from — or leak into — the cache. A zero/expired
    // budget thus deterministically takes the truncated compile path. A
    // key reads `num_qubits` qubits of each term, so a term of another
    // width is left to the uncached compile, which rejects it.
    let cache = cache.filter(|_| {
        split_path_allowed(options) && terms.iter().all(|(p, _)| p.num_qubits() == num_qubits)
    });
    let Some(cache) = cache else {
        let (artifact, trace) =
            compile_structure(num_qubits, terms, options, routing_aware, None, obs, rec)?;
        return Ok((artifact, false, trace));
    };
    let key = program_key(num_qubits, terms, options, routing_aware);
    if let Some(artifact) = cache.get_program(&key) {
        if let Some(o) = obs {
            o.metrics().incr(MetricId::CacheProgramHits);
        }
        return Ok((artifact, true, PassTrace::default()));
    }
    if let Some(o) = obs {
        o.metrics().incr(MetricId::CacheProgramMisses);
    }
    let (artifact, trace) = compile_structure(
        num_qubits,
        terms,
        options,
        routing_aware,
        Some(cache),
        obs,
        rec,
    )?;
    let artifact = cache.insert_program(key, artifact);
    Ok((artifact, false, trace))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn keys_separate_structure_relevant_options() {
        let t = terms(&["ZYY", "ZZY"]);
        let key = |options: &PhoenixOptions, routes: bool| program_key(3, &t, options, routes);
        let base = PhoenixOptions::default();
        let changed = [
            PhoenixOptions {
                lookahead: base.lookahead + 1,
                ..base.clone()
            },
            PhoenixOptions {
                enable_simplification: false,
                ..base.clone()
            },
            PhoenixOptions {
                enable_ordering: false,
                ..base.clone()
            },
        ];
        for options in &changed {
            assert_ne!(key(&base, false), key(options, false), "{options:?}");
        }
        assert_ne!(key(&base, false), key(&base, true));
        // Routing awareness from the target or from the options is one
        // setting.
        let aware = PhoenixOptions {
            routing_aware: true,
            ..base.clone()
        };
        assert_eq!(key(&aware, false), key(&base, true));
        // Thread counts never change the output, so they share artifacts.
        let threads = PhoenixOptions {
            stage2_threads: 8,
            stage2_scan_threads: 3,
            fleet_threads: 2,
            ..base.clone()
        };
        assert_eq!(key(&base, false), key(&threads, false));
    }

    #[test]
    fn structure_bind_reproduces_the_legacy_logical_compile() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX"]);
        let opts = PhoenixOptions::default();
        let (artifact, trace) =
            compile_structure(3, &t, &opts, false, None, None, Recording::now(true)).unwrap();
        assert_eq!(trace.passes.len(), 4);
        let angles: Vec<f64> = t.iter().map(|(_, c)| *c).collect();
        let bound = artifact.bind(&angles).unwrap();
        let legacy = crate::CompileRequest::new(3, &t).run().unwrap();
        assert_eq!(bound.circuit, legacy.circuit);
        assert_eq!(bound.term_order, legacy.term_order);
        assert_eq!(bound.num_groups, legacy.num_groups);
    }

    #[test]
    fn structure_ignores_the_request_coefficients() {
        let a = terms(&["ZYY", "ZZY", "XYY"]);
        let mut b = a.clone();
        for (_, c) in &mut b {
            *c *= -3.25;
        }
        let opts = PhoenixOptions::default();
        let (art_a, _) =
            compile_structure(3, &a, &opts, false, None, None, Recording::now(true)).unwrap();
        let (art_b, _) =
            compile_structure(3, &b, &opts, false, None, None, Recording::now(true)).unwrap();
        assert_eq!(art_a.skeleton(), art_b.skeleton());
    }

    #[test]
    fn obtain_structure_hits_the_program_cache_on_recompile() {
        let t = terms(&["ZYY", "ZZY", "IZZ", "XIX"]);
        let opts = PhoenixOptions::default();
        let cache = Arc::new(CompileCache::new());
        let (first, hit1, trace1) = obtain_structure(
            3,
            &t,
            &opts,
            false,
            Some(&cache),
            None,
            Recording::now(true),
        )
        .unwrap();
        assert!(!hit1);
        assert!(!trace1.passes.is_empty());
        let (second, hit2, trace2) = obtain_structure(
            3,
            &t,
            &opts,
            false,
            Some(&cache),
            None,
            Recording::now(true),
        )
        .unwrap();
        assert!(hit2);
        assert!(trace2.passes.is_empty());
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(stats.program_hits, 1);
        assert_eq!(stats.program_misses, 1);
    }

    #[test]
    fn zero_budget_never_enters_the_cached_structure_path() {
        use crate::pass::EVENT_TRUNCATED;
        use std::time::Duration;
        let t = terms(&["ZYY", "ZZY", "IZZ", "XIX"]);
        let cache = Arc::new(CompileCache::new());
        // Warm the cache budget-free, so a program-cache hit *would* be
        // available if the gating were broken.
        crate::CompileRequest::new(3, &t)
            .cache(&cache)
            .run()
            .unwrap();
        let warmed = cache.stats();
        assert_eq!(warmed.program_misses, 1);
        assert_eq!(cache.num_programs(), 1);
        let budgeted = PhoenixOptions {
            pass_budget: Some(Duration::ZERO),
            ..PhoenixOptions::default()
        };
        // `bind()` under a zero budget: the cache must not be consulted
        // (no new hits or misses of any kind) and the structure phase must
        // deterministically take the truncated path.
        let angles: Vec<f64> = t.iter().map(|(_, c)| *c).collect();
        let out = crate::CompileRequest::new(3, &t)
            .options(budgeted.clone())
            .cache(&cache)
            .trace(true)
            .bind(&angles)
            .unwrap();
        assert_eq!(cache.stats(), warmed);
        assert_eq!(cache.num_programs(), 1);
        let trace = out.trace.unwrap();
        assert!(
            !trace.events_of_kind(EVENT_TRUNCATED).is_empty(),
            "zero budget must truncate: {:?}",
            trace.events
        );
        // `structure()` under the same budget also bypasses the cache.
        crate::CompileRequest::new(3, &t)
            .options(budgeted)
            .cache(&cache)
            .structure()
            .unwrap();
        assert_eq!(cache.stats(), warmed);
        assert_eq!(cache.num_programs(), 1);
    }
}
