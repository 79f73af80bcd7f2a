//! KAK resynthesis preserves semantics and finds gate-count floors.

use phoenix::circuit::{kak, peephole, rebase, Circuit, Gate};
use phoenix::core::CompileRequest;
use phoenix::hamil::models;
use phoenix::mathkit::Xoshiro256;
use phoenix::sim::{circuit_unitary, infidelity};

fn random_program(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let a = rng.next_below(n);
        let b = (a + 1 + rng.next_below(n - 1)) % n;
        match rng.next_below(4) {
            0 => c.push(Gate::Cnot(a, b)),
            1 => c.push(Gate::Rz(a, rng.next_range_f64(-2.0, 2.0))),
            2 => c.push(Gate::Ry(a, rng.next_range_f64(-2.0, 2.0))),
            _ => c.push(Gate::H(a)),
        }
    }
    c
}

#[test]
fn resynthesis_preserves_unitary_on_random_programs() {
    for seed in 0..6 {
        let c = random_program(4, 40, seed);
        let fused = rebase::to_su4(&c);
        let resynth = kak::resynthesize(&fused);
        let u = circuit_unitary(&c);
        let v = circuit_unitary(&resynth);
        assert!(
            infidelity(&u, &v) < 1e-8,
            "seed {seed}: infid {}",
            infidelity(&u, &v)
        );
    }
}

#[test]
fn resynthesis_caps_same_pair_runs_at_three_rotations() {
    // A long same-pair run is one SU(4) block: resynthesis must collapse it
    // to ≤ 3 two-qubit rotations regardless of its original length.
    let mut c = Circuit::new(2);
    let mut rng = Xoshiro256::seed_from_u64(3);
    for _ in 0..15 {
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Ry(0, rng.next_range_f64(-1.0, 1.0)));
        c.push(Gate::Rz(1, rng.next_range_f64(-1.0, 1.0)));
    }
    let resynth = kak::resynthesize(&rebase::to_su4(&c));
    let lowered = peephole::optimize(&resynth);
    assert!(
        lowered.counts().cnot <= 6,
        "≤3 rotations → ≤6 CNOTs, got {}",
        lowered.counts().cnot
    );
    let u = circuit_unitary(&c);
    let v = circuit_unitary(&lowered);
    assert!(infidelity(&u, &v) < 1e-8);
}

#[test]
fn kak_pipeline_preserves_compiled_program_semantics() {
    let h = models::heisenberg_chain(4, 0.4, -0.3, 0.6);
    let out = CompileRequest::new(h.num_qubits(), h.terms())
        .run()
        .unwrap();
    let su4 = rebase::to_su4(&out.circuit);
    let resynth = kak::resynthesize(&su4);
    let u = circuit_unitary(&out.circuit);
    let v = circuit_unitary(&resynth);
    assert!(infidelity(&u, &v) < 1e-8);
    // The resynthesized SU(4) stream lowers to no more CNOTs than before.
    let before = peephole::optimize(&su4).counts().cnot;
    let after = peephole::optimize(&resynth).counts().cnot;
    assert!(after <= before, "{after} vs {before}");
}
