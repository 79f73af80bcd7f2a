//! Whole-device verification: routed circuits on the 65-qubit heavy-hex
//! device are checked against their logical counterparts with the
//! stabilizer simulator — a scale far beyond state-vector reach.

use phoenix::circuit::{Circuit, Gate};
use phoenix::mathkit::Xoshiro256;
use phoenix::pauli::{Pauli, PauliString};
use phoenix::router::{route, search_layout, RouterOptions};
use phoenix::sim::StabilizerState;
use phoenix::topology::CouplingGraph;
use phoenix_verify::check_routed_equivalence;
use phoenix_verify::gen::{Family, RandomProgramGen};

fn random_clifford_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let a = rng.next_below(n);
        let b = (a + 1 + rng.next_below(n - 1)) % n;
        match rng.next_below(4) {
            0 => c.push(Gate::H(a)),
            1 => c.push(Gate::S(a)),
            2 => c.push(Gate::Cnot(a, b)),
            _ => c.push(Gate::Cnot(b, a)),
        }
    }
    c
}

#[test]
fn routed_clifford_circuits_match_logical_state_on_heavy_hex() {
    let device = CouplingGraph::manhattan65();
    for seed in [3u64, 17, 99] {
        let n_logical = 20;
        let logical = random_clifford_circuit(n_logical, 120, seed);

        let opts = RouterOptions::default();
        let layout = search_layout(&logical, &device, &opts, 2);
        let routed = route(&logical, &device, layout.clone(), &opts);

        // Logical reference state.
        let ref_state = StabilizerState::zero(n_logical)
            .evolved(&logical)
            .expect("clifford circuit");
        // Physical state on the whole device.
        let phys_state = StabilizerState::zero(device.num_qubits())
            .evolved(&routed.circuit)
            .expect("routed circuit is clifford");

        // Every logical Pauli observable embeds through the *final* layout.
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..25 {
            let mut logical_obs = PauliString::identity(n_logical);
            for q in 0..n_logical {
                logical_obs.set(
                    q,
                    [Pauli::I, Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.next_below(5)],
                );
            }
            let placement: Vec<usize> = (0..n_logical)
                .map(|q| routed.final_layout.phys(q).expect("mapped"))
                .collect();
            let phys_obs = logical_obs.embed(device.num_qubits(), &placement);
            assert_eq!(
                ref_state.expectation(&logical_obs),
                phys_state.expectation(&phys_obs),
                "seed {seed}, observable {logical_obs}"
            );
        }
    }
}

#[test]
fn bridge_routing_matches_logical_state() {
    let device = CouplingGraph::manhattan65();
    let logical = random_clifford_circuit(12, 60, 5);
    let opts = RouterOptions {
        use_bridge: true,
        ..RouterOptions::default()
    };
    let layout = search_layout(&logical, &device, &opts, 2);
    let routed = route(&logical, &device, layout, &opts);
    let ref_state = StabilizerState::zero(12)
        .evolved(&logical)
        .expect("clifford");
    let phys_state = StabilizerState::zero(65)
        .evolved(&routed.circuit)
        .expect("clifford");
    let mut rng = Xoshiro256::seed_from_u64(1);
    for _ in 0..20 {
        let mut obs = PauliString::identity(12);
        for q in 0..12 {
            obs.set(
                q,
                [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.next_below(4)],
            );
        }
        let placement: Vec<usize> = (0..12)
            .map(|q| routed.final_layout.phys(q).expect("mapped"))
            .collect();
        let phys_obs = obs.embed(65, &placement);
        assert_eq!(
            ref_state.expectation(&obs),
            phys_state.expectation(&phys_obs),
            "observable {obs}"
        );
    }
}

/// The tests above start from |0…0⟩, which every qubit permutation fixes —
/// so they cannot tell a correct initial layout from a wrong one. Here a
/// nontrivial stabilizer input is prepared at the *initial* layout before
/// the routed circuit runs, so the routed/logical comparison fails for any
/// placement other than `routed.initial_layout`.
#[test]
fn routed_circuit_respects_the_initial_layout_on_heavy_hex() {
    let device = CouplingGraph::manhattan65();
    let n_logical = 16;
    for seed in [11u64, 42] {
        let logical = random_clifford_circuit(n_logical, 100, seed);
        let prep = random_clifford_circuit(n_logical, 40, seed ^ 0xfeed);

        let opts = RouterOptions::default();
        let layout = search_layout(&logical, &device, &opts, 2);
        let routed = route(&logical, &device, layout, &opts);

        let initial: Vec<usize> = (0..n_logical)
            .map(|q| routed.initial_layout.phys(q).expect("mapped"))
            .collect();
        let final_placement: Vec<usize> = (0..n_logical)
            .map(|q| routed.final_layout.phys(q).expect("mapped"))
            .collect();

        // Logical reference: prep then circuit, all at logical indices.
        let ref_state = StabilizerState::zero(n_logical)
            .evolved(&prep)
            .expect("clifford")
            .evolved(&logical)
            .expect("clifford");
        // Physical run: prep embedded at the initial layout, then the
        // routed circuit on the whole device.
        let phys_prep = prep.map_qubits(device.num_qubits(), |q| initial[q]);
        let phys_state = StabilizerState::zero(device.num_qubits())
            .evolved(&phys_prep)
            .expect("clifford")
            .evolved(&routed.circuit)
            .expect("clifford");

        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x1a10);
        for _ in 0..25 {
            let mut obs = PauliString::identity(n_logical);
            for q in 0..n_logical {
                obs.set(
                    q,
                    [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.next_below(4)],
                );
            }
            let phys_obs = obs.embed(device.num_qubits(), &final_placement);
            assert_eq!(
                ref_state.expectation(&obs),
                phys_state.expectation(&phys_obs),
                "seed {seed}, observable {obs}"
            );
        }
    }
}

/// Dense permutation-aware equivalence on a small device: the routed
/// unitary times the inverse of the logical unitary (embedded at the
/// initial layout) must decode to exactly the basis permutation that maps
/// the initial layout to the final layout. Covers PHOENIX's hardware-aware
/// path and every baseline through the shared hardware backend.
#[test]
fn routed_unitaries_decode_to_the_layout_permutation() {
    use phoenix::baselines::Baseline;
    use phoenix::core::{try_run_hardware_backend, CompileRequest, Device, Target};

    let device = CouplingGraph::line(5);
    let mut gen = RandomProgramGen::new(0x10c4);
    for family in Family::ALL {
        let program = gen.program(family, 5, 8);
        let n = program.num_qubits;

        let hw = CompileRequest::new(n, &program.terms)
            .target(Target::Device(Device::bare(device.clone())))
            .run()
            .expect("hardware compile")
            .hardware
            .expect("hardware program");
        let outcome = check_routed_equivalence(
            &hw.circuit,
            &hw.logical,
            &hw.initial_layout,
            &hw.final_layout,
        );
        assert!(!outcome.is_fail(), "PHOENIX {}: {outcome:?}", family.name());

        for b in [Baseline::Naive, Baseline::TetrisStyle] {
            let logical = b.compile_logical(n, &program.terms);
            let hw = try_run_hardware_backend(&logical, &device, &RouterOptions::default(), 3)
                .expect("hardware backend");
            let outcome = check_routed_equivalence(
                &hw.circuit,
                &hw.logical,
                &hw.initial_layout,
                &hw.final_layout,
            );
            assert!(
                !outcome.is_fail(),
                "{} {}: {outcome:?}",
                Baseline::name(b),
                family.name()
            );
        }
    }
}
