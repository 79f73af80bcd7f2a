//! `vqe-sweep`: the VQE inner loop. Set-up primes a shared `CompileCache`
//! with four UCCSD structures; one caller then binds a fresh angle vector
//! per call, cycling the programs, all warm. Canonical-IR hashing,
//! `StructureArtifact::bind` and the post-bind peephole do all the work;
//! grouping, ordering and routing do none. A change to the compile passes
//! should leave this workload unchanged.

use std::sync::Arc;

use phoenix_circuit::Circuit;
use phoenix_core::{CompileCache, CompileContext, CompileRequest, Target};
use phoenix_hamil::{uccsd, Hamiltonian, Molecule};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;

use crate::trace::{self, Counters, Op, Recorder};
use crate::{median_cpu_ms, setup_repeated, timed, verify, Measured, Quality, RunArgs, Traced};

/// Binds a traced run replays.
const TRACED_OPS: usize = 400;

/// Every this many timed binds, one is kept for the correctness gate.
const SAMPLE_EVERY: usize = 2500;

/// The four structures of the sweep (frozen core).
fn programs(seed: u64) -> Vec<Hamiltonian> {
    use uccsd::Encoding::{BravyiKitaev as Bk, JordanWigner as Jw};
    [
        (Molecule::lih(), Jw),
        (Molecule::lih(), Bk),
        (Molecule::nh(), Jw),
        (Molecule::h2o(), Bk),
    ]
    .into_iter()
    .map(|(mol, enc)| uccsd::ansatz(mol, true, enc, seed))
    .collect()
}

/// Programs plus a cache primed with each one's structure.
fn setup(seed: u64) -> Result<(Vec<Hamiltonian>, Arc<CompileCache>), String> {
    let programs = programs(seed);
    let cache = Arc::new(CompileCache::new());
    for h in &programs {
        request(h, &cache)
            .structure()
            .map_err(|e| format!("priming {}: {e}", h.name()))?;
    }
    Ok((programs, cache))
}

fn request(h: &Hamiltonian, cache: &Arc<CompileCache>) -> CompileRequest {
    CompileRequest::new(h.num_qubits(), h.terms())
        .target(Target::Cnot)
        .cache(cache)
}

fn angles(h: &Hamiltonian, rng: &mut Xoshiro256) -> Vec<f64> {
    (0..h.len())
        .map(|_| rng.next_range_f64(-0.1, 0.1))
        .collect()
}

/// The correctness gate for one bind: it must equal an uncached compile
/// of the same program with the angles as coefficients, and implement it.
fn check(
    h: &Hamiltonian,
    angles: &[f64],
    circuit: &Circuit,
    term_order: &[(PauliString, f64)],
    rng: &mut Xoshiro256,
) -> Result<(), String> {
    let terms: Vec<(PauliString, f64)> = h
        .terms()
        .iter()
        .zip(angles)
        .map(|((p, _), a)| (p.clone(), *a))
        .collect();
    let uncached = CompileRequest::new(h.num_qubits(), &terms)
        .target(Target::Cnot)
        .run()
        .map_err(|e| format!("{}: uncached compile: {e}", h.name()))?;
    if &uncached.circuit != circuit {
        return Err(format!(
            "{}: warm bind differs from an uncached compile",
            h.name()
        ));
    }
    verify::check_logical(circuit, term_order, &terms, rng)
        .map_err(|e| format!("{}: {e}", h.name()))
}

/// The untimed warm-up binds plus the timed closed loop.
pub fn run(args: RunArgs) -> Measured {
    let (ready, setup) = setup_repeated(|| setup(args.seed));
    let mut m = Measured {
        setup,
        ..Measured::default()
    };
    let (programs, cache) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            m.failures.push(e);
            return m;
        }
    };
    m.classes = programs.iter().map(|h| h.name().to_string()).collect();
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let mut verify_rng = Xoshiro256::seed_from_u64(args.seed ^ 0x5eed);
    let mut reference = Vec::with_capacity(programs.len());
    for h in &programs {
        m.attempted += 1;
        let a = angles(h, &mut rng);
        let checked = request(h, &cache)
            .bind(&a)
            .map_err(|e| format!("{}: {e}", h.name()))
            .and_then(|out| {
                check(h, &a, &out.circuit, &out.term_order, &mut verify_rng)
                    .map(|()| Quality::of(&out.circuit, 0))
            });
        match checked {
            Ok(q) => {
                m.quality.add(q);
                reference.push(Some(q));
            }
            Err(e) => {
                m.failures.push(e);
                reference.push(None);
            }
        }
    }
    let mut kept = Vec::new();
    let start = std::time::Instant::now();
    let mut k = 0;
    while k < crate::MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        let i = k % programs.len();
        let h = &programs[i];
        let a = angles(h, &mut rng);
        let req = request(h, &cache);
        let (out, cost) = timed(|| req.bind(&a));
        m.attempted += 1;
        m.ops.push((i, cost));
        m.calibration.tick();
        match out {
            Ok(out) if Some(Quality::of(&out.circuit, 0)) == reference[i] => {
                if k % SAMPLE_EVERY == 0 {
                    kept.push((i, a, out.circuit, out.term_order));
                }
            }
            Ok(_) => m.failures.push(format!(
                "{}: bind did not repeat the verified quality",
                h.name()
            )),
            Err(e) => m.failures.push(format!("{}: {e}", h.name())),
        }
        k += 1;
    }
    for (i, a, circuit, term_order) in kept {
        if let Err(e) = check(&programs[i], &a, &circuit, &term_order, &mut verify_rng) {
            m.failures.push(e);
        }
    }
    let stats = cache.stats();
    m.notes
        .push(("cache_program_hit_ratio", stats.program_hit_rate(), "ratio"));
    m
}

/// The traced replay: `structure()` (a warm cache lookup), the artifact's
/// `bind`, and the post-bind peephole, against the program's own `bind`.
pub fn trace(args: RunArgs) -> Traced {
    let mut out = Traced::default();
    out.metrics
        .insert("hamil.generate.ms", median_cpu_ms(|| programs(args.seed)));
    let (programs, cache) = match setup(args.seed) {
        Ok(ready) => ready,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let mut recorder = Recorder::new();
    let mut counters = Counters::default();
    let mut untraced_ms = 0.0;
    let mut replayed = Vec::with_capacity(TRACED_OPS);
    for k in 0..TRACED_OPS {
        let h = &programs[k % programs.len()];
        let a = angles(h, &mut rng);
        out.attempted += 1;
        let req = request(h, &cache).trace(true);
        let (program, cost) = timed(|| req.bind(&a));
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                out.failures.push(format!("{}: {e}", h.name()));
                continue;
            }
        };
        untraced_ms += cost.wall_ms;
        let (op, replay) = trace::covered(|| {
            let lookup = request(h, &cache);
            let peephole = phoenix_core::passes::TransformPass::peephole();
            let mut op = Op::start(h.name());
            let bound = op
                .span("cache.lookup", "structure", || lookup.structure())
                .map_err(|e| e.to_string())
                .and_then(|artifact| {
                    op.span("cache.bind", "bind", || artifact.bind(&a))
                        .map_err(|e| e.to_string())
                });
            let replay = bound.and_then(|bound| {
                let mut ctx = CompileContext::from_circuit(bound.circuit);
                op.replay(&mut ctx, vec![Box::new(peephole)], &mut counters)
                    .map(|names| (ctx.circuit, names))
            });
            (op, replay)
        });
        recorder.finish(op, cost.wall_ms);
        match replay {
            Ok((circuit, names)) => {
                let program_trace = program.trace.clone().unwrap_or_default();
                recorder.check_replay(
                    h.name(),
                    (&circuit, &names),
                    (&program.circuit, &program_trace.pass_names()),
                );
            }
            Err(e) => out.failures.push(format!("{}: replay: {e}", h.name())),
        }
        replayed.push((k % programs.len(), a));
    }
    // Instrumented binds last: `obs(true)` turns on process-global metric
    // recording for good.
    let (_, obs) = timed(|| {
        for (i, a) in &replayed {
            drop(request(&programs[*i], &cache).obs(true).bind(a));
        }
    });
    out.metrics
        .insert("obs.overhead_ratio", obs.wall_ms / untraced_ms);
    let stats = cache.stats();
    out.metrics
        .insert("cache.program_hit_ratio", stats.program_hit_rate());
    out.metrics
        .insert("cache.group_hit_ratio", stats.group_hit_rate());
    out.metrics
        .insert("cache.evictions", stats.evictions as f64);
    counters.metrics(&mut out.metrics);
    recorder.metrics(&mut out);
    crate::suite::finish_trace(&mut out, recorder, "vqe-sweep");
    out
}
