//! The any-deadline differential suite for the anytime deepening path.
//!
//! The anytime contract is stronger than "budgeted compiles succeed":
//! **every** interruption point must yield a circuit exactly equivalent to
//! the program (checked against the dense Trotter reference), and quality
//! must be monotone in the budget — a deeper logical budget never returns
//! a worse circuit, and `depth_reached` never shrinks. [`verify_anytime`]
//! checks one program three ways:
//!
//! 1. **Logical-budget ladder** — `anytime_rounds` caps 0, 2 and
//!    [`MAX_ROUNDS`] under a wall budget too large to interrupt, at
//!    `Target::Logical` and at `Target::Cnot`: exact equivalence at every
//!    rung, `depth_reached` equal to the cap, the delivered cost
//!    lexicographically non-increasing and depth non-decreasing up the
//!    ladder.
//! 2. **Adversarial wall budgets** — zero, one-tick (1 ns) and seeded
//!    random microsecond budgets: the compile must still *succeed* with an
//!    exactly equivalent circuit (the round-0 baseline is always
//!    available).
//! 3. **Mid-round cancellation** — a [`CancelToken`] fired from another
//!    thread after a seeded random delay: a cancel that lands before the
//!    compile finishes, mid-round included, must surface as the typed
//!    [`PhoenixError::Cancelled`] (check `cancel-is-typed`), and a compile
//!    that finished first must be equivalent.
//!
//! [`anytime_failures`] sweeps seeded programs round-robin over the three
//! generator families and additionally demands *progress*: at least one
//! UCCSD-like program must compile strictly better at the deepest budget
//! than at the shallowest — deepening that never improves anything would
//! be vacuously monotone.

use std::time::Duration;

use phoenix_core::{
    CancelToken, CompileOutcome, CompileRequest, PhoenixError, PhoenixOptions, Target, MAX_ROUNDS,
};
use phoenix_pauli::PauliString;

use crate::differential::Failure;
use crate::engine::{check_exact_unitary, Outcome};
use crate::gen::{Family, Program, RandomProgramGen};

/// A wall budget no test machine exhausts: the ladder rungs are decided by
/// the logical cap alone.
const ROOMY: Duration = Duration::from_secs(600);

fn fail(failures: &mut Vec<Failure>, pipeline: &str, check: &str, detail: String) {
    failures.push(Failure {
        pipeline: pipeline.to_string(),
        check: check.to_string(),
        metric: None,
        detail,
    });
}

/// Lexicographic quality key mirroring the anytime pass's objective:
/// 2Q gates, then 2Q depth, then total gates of the delivered circuit.
pub type CostKey = (usize, usize, usize);

/// Computes the [`CostKey`] of a compile outcome.
pub fn cost_key(outcome: &CompileOutcome) -> CostKey {
    let counts = outcome.circuit.counts();
    (counts.two_qubit(), outcome.circuit.depth_2q(), counts.total)
}

/// Checks one interruption point's result: the circuit implements exactly
/// its reported term order, and that order is a permutation of the program.
fn check_equivalent(
    failures: &mut Vec<Failure>,
    pipeline: &str,
    program: &Program,
    outcome: &CompileOutcome,
) {
    if let Outcome::Fail { metric, detail } =
        check_exact_unitary(&outcome.circuit, &outcome.term_order)
    {
        failures.push(Failure {
            pipeline: pipeline.to_string(),
            check: "exact-unitary".into(),
            metric: if metric.is_nan() { None } else { Some(metric) },
            detail,
        });
    }
    let key = |t: &(PauliString, f64)| (t.0.to_string(), t.1.to_bits());
    let mut got: Vec<_> = outcome.term_order.iter().map(key).collect();
    let mut want: Vec<_> = program.terms.iter().map(key).collect();
    got.sort();
    want.sort();
    if got != want {
        fail(
            failures,
            pipeline,
            "term-permutation",
            "implemented term order is not a permutation of the program".into(),
        );
    }
    if outcome.depth_reached.is_none() {
        fail(
            failures,
            pipeline,
            "depth-reported",
            "budgeted compile reported no depth_reached".into(),
        );
    }
}

fn budgeted(
    program: &Program,
    target: Target,
    budget: Duration,
    rounds: Option<usize>,
    cancel: Option<CancelToken>,
) -> Result<CompileOutcome, PhoenixError> {
    CompileRequest::new(program.num_qubits, &program.terms)
        .options(PhoenixOptions {
            pass_budget: Some(budget),
            anytime_rounds: rounds,
            cancel,
            ..PhoenixOptions::default()
        })
        .target(target)
        .run()
}

/// The logical-budget ladder this suite climbs per program.
pub const LADDER: [usize; 3] = [0, 2, MAX_ROUNDS];

/// Verifies the anytime contract on one program. Returns all failures, and
/// (on a clean ladder) the cost keys at the shallowest and deepest rungs —
/// the caller's raw material for the strict-improvement sweep check.
pub fn verify_anytime(
    program: &Program,
    failures: &mut Vec<Failure>,
) -> Option<(CostKey, CostKey)> {
    let tag = format!(
        "PHOENIX/anytime-{} (seed {})",
        program.family.name(),
        program.seed
    );
    let mut rng = phoenix_mathkit::Xoshiro256::seed_from_u64(program.seed ^ 0xA277_1E50_DEAD_11E5);

    // 1. The logical-budget ladder under a roomy wall budget, on the
    // logical circuit and on the CNOT circuit a client receives.
    let mut logical: Vec<CostKey> = Vec::new();
    for (isa, target) in [("logical", Target::Logical), ("cnot", Target::Cnot)] {
        let mut ladder: Vec<CostKey> = Vec::new();
        let mut prev_depth = 0usize;
        for cap in LADDER {
            let pipeline = format!("{tag} {isa} cap={cap}");
            let out = match budgeted(program, target.clone(), ROOMY, Some(cap), None) {
                Ok(out) => out,
                Err(e) => {
                    fail(failures, &pipeline, "compiles", e.to_string());
                    return None;
                }
            };
            check_equivalent(failures, &pipeline, program, &out);
            let depth = out.depth_reached.unwrap_or(0);
            if depth != cap {
                fail(
                    failures,
                    &pipeline,
                    "depth-equals-cap",
                    format!("uninterrupted cap {cap} reported depth {depth}"),
                );
            }
            if depth < prev_depth {
                fail(
                    failures,
                    &pipeline,
                    "depth-monotone",
                    format!("depth shrank from {prev_depth} to {depth}"),
                );
            }
            prev_depth = depth;
            let cost = cost_key(&out);
            if let Some(&worse) = ladder.last() {
                if cost > worse {
                    fail(
                        failures,
                        &pipeline,
                        "cost-monotone",
                        format!("cost rose from {worse:?} to {cost:?} with a deeper budget"),
                    );
                }
            }
            ladder.push(cost);
        }
        if isa == "logical" {
            logical = ladder;
        }
    }

    // 2. Adversarial wall-clock budgets: zero, one tick, random microseconds.
    let random_us = 1 + rng.next_below(5_000) as u64;
    for (label, budget) in [
        ("0", Duration::ZERO),
        ("1ns", Duration::from_nanos(1)),
        ("random", Duration::from_micros(random_us)),
    ] {
        let pipeline = format!("{tag} wall={label}");
        match budgeted(program, Target::Logical, budget, None, None) {
            Ok(out) => check_equivalent(failures, &pipeline, program, &out),
            Err(e) => fail(
                failures,
                &pipeline,
                "anytime-never-fails",
                format!("wall budget {budget:?} errored: {e}"),
            ),
        }
    }

    // 3. Mid-round cancellation from another thread.
    let pipeline = format!("{tag} cancelled");
    let token = CancelToken::new();
    let delay = Duration::from_micros(20 + rng.next_below(500) as u64);
    let result = std::thread::scope(|scope| {
        let killer = token.clone();
        scope.spawn(move || {
            std::thread::sleep(delay);
            killer.cancel();
        });
        budgeted(program, Target::Logical, ROOMY, None, Some(token))
    });
    match result {
        Ok(out) => check_equivalent(failures, &pipeline, program, &out),
        Err(PhoenixError::Cancelled) => {}
        Err(e) => fail(
            failures,
            &pipeline,
            "cancel-is-typed",
            format!("cancellation surfaced as {e}"),
        ),
    }

    logical.first().copied().zip(logical.last().copied())
}

/// Verifies `count` seeded programs (round-robin over the three families,
/// 3–6 qubits) against the anytime contract, and demands that deepening
/// *pays* on at least one UCCSD-like program: its deepest-budget compile
/// must be strictly cheaper than its shallowest. Returns all failures.
pub fn anytime_failures(count: usize, base_seed: u64) -> Vec<Failure> {
    let mut failures = Vec::new();
    let mut gen = RandomProgramGen::new(base_seed);
    let mut uccsd_improved = false;
    for i in 0..count {
        let family = Family::ALL[i % Family::ALL.len()];
        let num_qubits = 3 + i % 4;
        let num_terms = 5 + (i * 3) % 10;
        let program = gen.program(family, num_qubits, num_terms);
        if let Some((shallow, deep)) = verify_anytime(&program, &mut failures) {
            if family == Family::UccsdLike && deep < shallow {
                uccsd_improved = true;
            }
        }
    }
    if count >= Family::ALL.len() && !uccsd_improved {
        fail(
            &mut failures,
            "PHOENIX/anytime-uccsd-like (sweep)",
            "deepening-pays",
            format!(
                "no UCCSD-like program out of {count} compiled strictly better at the \
                 deepest budget than at the shallowest"
            ),
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_interruption_point_yields_an_equivalent_circuit_across_200_seeded_programs() {
        let failures = anytime_failures(200, 0xDAC5_2025);
        assert!(
            failures.is_empty(),
            "{} anytime failures, first: {:?}",
            failures.len(),
            failures.first()
        );
    }
}
