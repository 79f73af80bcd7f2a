//! Fleet compilation: determinism across thread counts, the fleet-of-one
//! == single-device guarantee, and fidelity ranking.

use phoenix_core::{
    CompileRequest, Device, DeviceRegistry, NativeIsa, NoiseProfile, PhoenixError, PhoenixOptions,
    Target,
};
use phoenix_hamil::qaoa;
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;
use proptest::prelude::*;

/// A deterministic random program on `n` qubits.
fn random_terms(n: usize, count: usize, seed: u64) -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        let mut label = String::new();
        let mut nontrivial = false;
        for _ in 0..n {
            let c = match rng.next_below(4) {
                0 => 'I',
                1 => 'X',
                2 => 'Y',
                _ => 'Z',
            };
            nontrivial |= c != 'I';
            label.push(c);
        }
        if !nontrivial {
            let q = rng.next_below(n);
            label.replace_range(q..q + 1, "Z");
        }
        let coeff = rng.next_range_f64(-0.5, 0.5);
        terms.push((label.parse().expect("valid pauli label"), coeff));
    }
    terms
}

fn fleet_of(specs: &[&str]) -> Vec<Device> {
    let reg = DeviceRegistry::new();
    specs
        .iter()
        .map(|s| reg.build(s).expect("registry spec"))
        .collect()
}

#[test]
fn empty_fleet_is_a_typed_error() {
    let t = random_terms(3, 4, 1);
    assert!(matches!(
        CompileRequest::new(3, &t).fleet(&[]),
        Err(PhoenixError::EmptyFleet)
    ));
}

#[test]
fn fleet_over_four_registry_devices_returns_ranked_results() {
    let devices = fleet_of(&["line:6", "ring:6", "grid:2x3", "ion-trap:6"]);
    let t = random_terms(5, 8, 7);
    let outcome = CompileRequest::new(5, &t)
        .fleet(&devices)
        .expect("fleet compiles");
    assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.ranked.len(), 4);
    for pair in outcome.ranked.windows(2) {
        assert!(
            pair[0].fidelity >= pair[1].fidelity,
            "ranking not sorted by fidelity"
        );
    }
    for entry in &outcome.ranked {
        assert!(entry.fidelity > 0.0 && entry.fidelity <= 1.0);
        assert!(entry.outcome.hardware.is_some(), "{}", entry.device.name());
    }
    assert_eq!(
        outcome.best().expect("nonempty").device.name(),
        outcome.ranked[0].device.name()
    );
}

#[test]
fn all_to_all_ranks_above_a_line_on_a_dense_program() {
    // MaxCut on the complete graph K8: every qubit pair interacts, the
    // worst case for sparse topologies. At equal error rates the
    // routing-free ion trap must rank at or above the swap-heavy line.
    let n = 8;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let h = qaoa::maxcut_program("K8", n, &edges, 7);
    let devices: Vec<Device> = fleet_of(&[
        "ion-trap:8",
        "ion-trap:8@cnot",
        "line:8@cnot",
        "ring:8@cnot",
        "grid:2x4",
        "falcon27",
    ])
    .into_iter()
    .map(|dev| {
        let noise = NoiseProfile::uniform(dev.graph(), 5e-4, 5e-3, 1e-2);
        dev.with_noise(noise)
    })
    .collect();
    let outcome = CompileRequest::new(n, h.terms())
        .fleet(&devices)
        .expect("fleet compiles");
    assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.ranked.len(), devices.len());
    let rank = |name: &str| {
        outcome
            .ranked
            .iter()
            .position(|e| e.device.name() == name)
            .unwrap_or_else(|| panic!("{name} missing from the ranking"))
    };
    let (ion, line) = (rank("ion-trap:8@cnot"), rank("line:8@cnot"));
    assert!(
        ion < line,
        "ion-trap:8@cnot ranked {} ({}), line:8@cnot {} ({})",
        ion + 1,
        outcome.ranked[ion].fidelity,
        line + 1,
        outcome.ranked[line].fidelity
    );
}

#[test]
fn member_failures_do_not_fail_the_fleet() {
    let reg = DeviceRegistry::new();
    let devices = vec![
        reg.build("line:2").expect("small line"), // too small for 5 qubits
        reg.build("line:6").expect("line"),
    ];
    let t = random_terms(5, 6, 3);
    let outcome = CompileRequest::new(5, &t).fleet(&devices).expect("fleet");
    assert_eq!(outcome.ranked.len(), 1);
    assert_eq!(outcome.ranked[0].device.name(), "line:6");
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].0, "line:2");
    assert!(matches!(
        outcome.failed[0].1,
        PhoenixError::DeviceTooSmall { .. }
    ));
}

#[test]
fn native_isa_is_respected_per_member() {
    let devices = fleet_of(&["line:5", "ion-trap:5", "line:5@kak"]);
    let t = random_terms(4, 6, 11);
    let outcome = CompileRequest::new(4, &t).fleet(&devices).expect("fleet");
    assert_eq!(outcome.ranked.len(), 3);
    for entry in &outcome.ranked {
        let two_q_all_su4 = entry
            .outcome
            .circuit
            .gates()
            .iter()
            .filter(|g| g.is_two_qubit())
            .all(|g| matches!(g, phoenix_circuit::Gate::Su4(_)));
        match entry.device.isa() {
            NativeIsa::Su4 => assert!(
                two_q_all_su4,
                "{}: SU(4)-native member emitted non-SU(4) 2Q gates",
                entry.device.name()
            ),
            NativeIsa::Cnot | NativeIsa::CnotViaKak => assert!(
                entry
                    .outcome
                    .circuit
                    .gates()
                    .iter()
                    .all(|g| !matches!(g, phoenix_circuit::Gate::Su4(_))),
                "{}: CNOT-native member kept SU(4) blocks",
                entry.device.name()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ranking and every per-device circuit are identical across
    /// fleet thread counts 1, 2, and 8.
    #[test]
    fn fleet_outcome_is_identical_across_thread_counts(
        seed in 0u64..500,
        count in 3usize..9,
    ) {
        let devices = fleet_of(&["line:6", "ring:6", "grid:2x3", "ion-trap:6", "heavy-hex:1x2"]);
        let t = random_terms(5, count, seed);
        let run_with = |threads: usize| {
            let options = PhoenixOptions {
                fleet_threads: threads,
                ..PhoenixOptions::default()
            };
            CompileRequest::new(5, &t)
                .options(options)
                .fleet(&devices)
                .expect("fleet compiles")
        };
        let baseline = run_with(1);
        for threads in [2usize, 8] {
            let other = run_with(threads);
            prop_assert_eq!(baseline.ranked.len(), other.ranked.len());
            prop_assert_eq!(baseline.failed.len(), other.failed.len());
            for (a, b) in baseline.ranked.iter().zip(other.ranked.iter()) {
                prop_assert_eq!(a.device.name(), b.device.name());
                prop_assert_eq!(a.fidelity, b.fidelity);
                prop_assert_eq!(&a.outcome.circuit, &b.outcome.circuit);
                prop_assert_eq!(&a.outcome.hardware, &b.outcome.hardware);
            }
        }
    }

    /// A fleet of one equals the single-device path bit for bit.
    #[test]
    fn fleet_of_one_equals_single_device_path(
        seed in 0u64..500,
        count in 3usize..9,
    ) {
        let dev = DeviceRegistry::new().build("grid:2x3").expect("grid");
        let t = random_terms(5, count, seed);
        let fleet = CompileRequest::new(5, &t)
            .fleet(std::slice::from_ref(&dev))
            .expect("fleet of one");
        prop_assert!(fleet.failed.is_empty());
        prop_assert_eq!(fleet.ranked.len(), 1);
        let single = CompileRequest::new(5, &t)
            .target(Target::Device(dev.clone()))
            .run()
            .expect("single device");
        let member = &fleet.ranked[0];
        prop_assert_eq!(&member.outcome.circuit, &single.circuit);
        prop_assert_eq!(&member.outcome.hardware, &single.hardware);
        prop_assert_eq!(&member.outcome.term_order, &single.term_order);
        prop_assert_eq!(
            member.fidelity,
            dev.predicted_fidelity(&single.circuit)
        );
    }
}
