//! Keeping a record never changes the compile.
//!
//! A compile measures its pass boundaries only when it keeps its trace
//! (`trace(true)`), and builds obs spans only when it keeps an obs report
//! (`obs(true)`) too. Every path must deliver the same circuit, term
//! order, hardware program, group count and reached depth under all four
//! (trace, obs) settings.

use std::sync::Arc;
use std::time::Duration;

use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, DeviceRegistry, FleetOutcome, PhoenixOptions,
    Target,
};
use phoenix_hamil::uccsd::{self, Encoding, Molecule};
use phoenix_hamil::Hamiltonian;

/// The (trace, obs) settings, off/off first.
const FLAGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// LiH_frz and NH_frz, each under JW and BK.
fn programs() -> Vec<Hamiltonian> {
    [Molecule::lih(), Molecule::nh()]
        .into_iter()
        .flat_map(|mol| {
            [Encoding::JordanWigner, Encoding::BravyiKitaev]
                .map(|enc| uccsd::ansatz(mol, true, enc, 7))
        })
        .collect()
}

fn request(h: &Hamiltonian, (trace, obs): (bool, bool)) -> CompileRequest {
    CompileRequest::new(h.num_qubits(), h.terms())
        .trace(trace)
        .obs(obs)
}

/// What a compile delivers, without the records it kept.
fn delivered(out: &CompileOutcome) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &out.circuit,
        &out.term_order,
        &out.hardware,
        out.num_groups,
        out.depth_reached,
    )
}

/// Runs `compile` under every setting and asserts that each delivers what
/// the untraced, uninstrumented compile delivers.
fn assert_unchanged(label: &str, compile: impl Fn((bool, bool)) -> CompileOutcome) {
    let plain = compile(FLAGS[0]);
    for flags in &FLAGS[1..] {
        let out = compile(*flags);
        assert_eq!(
            delivered(&out),
            delivered(&plain),
            "{label}: (trace, obs) = {flags:?}"
        );
        assert_eq!(out.trace.is_some(), flags.0, "{label}");
        assert_eq!(out.obs.is_some(), flags.1, "{label}");
    }
}

fn device(spec: &str) -> Target {
    Target::Device(DeviceRegistry::new().build(spec).unwrap())
}

/// The four logical targets, then the three devices.
fn targets() -> Vec<(&'static str, Target)> {
    vec![
        ("logical", Target::Logical),
        ("cnot", Target::Cnot),
        ("su4", Target::Su4),
        ("cnot-via-kak", Target::CnotViaKak),
        ("grid:4x4", device("grid:4x4")),
        ("falcon27", device("falcon27")),
        ("line:16@kak", device("line:16@kak")),
    ]
}

#[test]
fn direct_compiles_deliver_the_same_under_every_record() {
    for h in programs() {
        for (name, target) in targets() {
            assert_unchanged(&format!("{} → {name}", h.name()), |flags| {
                request(&h, flags).target(target.clone()).run().unwrap()
            });
        }
    }
}

#[test]
fn cached_binds_deliver_the_same_under_every_record() {
    let h = &programs()[0];
    let angles = |k: usize| -> Vec<f64> {
        (0..h.len())
            .map(|i| 0.05 * ((i * 7 + k * 3) % 11) as f64 - 0.25)
            .collect()
    };
    for (name, target) in [("cnot", Target::Cnot), ("grid:4x4", device("grid:4x4"))] {
        for warm in [false, true] {
            assert_unchanged(&format!("{} → {name}, warm {warm}", h.name()), |flags| {
                // A fresh cache per setting, bound once (cold) or twice.
                let cache = Arc::new(CompileCache::new());
                let bind = |angles: Vec<f64>| {
                    request(h, flags)
                        .target(target.clone())
                        .cache(&cache)
                        .bind(&angles)
                        .unwrap()
                };
                let cold = bind(angles(0));
                if warm {
                    bind(angles(1))
                } else {
                    cold
                }
            });
        }
    }
}

#[test]
fn budgeted_compiles_deliver_the_same_under_every_record() {
    let h = &programs()[0];
    let options = PhoenixOptions {
        pass_budget: Some(Duration::from_secs(3600)),
        anytime_rounds: Some(3),
        ..PhoenixOptions::default()
    };
    for (name, target) in [("cnot", Target::Cnot), ("grid:4x4", device("grid:4x4"))] {
        assert_unchanged(&format!("{} → {name}, budgeted", h.name()), |flags| {
            let out = request(h, flags)
                .options(options.clone())
                .target(target.clone())
                .run()
                .unwrap();
            assert_eq!(out.depth_reached, Some(3));
            out
        });
    }
}

#[test]
fn fleets_deliver_the_same_under_every_record() {
    let registry = DeviceRegistry::new();
    let devices: Vec<_> = ["grid:4x4", "falcon27", "line:16@kak"]
        .map(|spec| registry.build(spec).unwrap())
        .into();
    let h = &programs()[0];
    let ranking = |fleet: &FleetOutcome| -> Vec<(String, u64)> {
        fleet
            .ranked
            .iter()
            .map(|e| (e.device.name().to_string(), e.fidelity.to_bits()))
            .collect()
    };
    let plain = request(h, FLAGS[0]).fleet(&devices).unwrap();
    assert!(plain.failed.is_empty());
    for flags in &FLAGS[1..] {
        let fleet = request(h, *flags).fleet(&devices).unwrap();
        assert_eq!(ranking(&fleet), ranking(&plain), "{flags:?}");
        assert!(fleet.failed.is_empty());
        for (entry, reference) in fleet.ranked.iter().zip(&plain.ranked) {
            assert_eq!(
                delivered(&entry.outcome),
                delivered(&reference.outcome),
                "{}: (trace, obs) = {flags:?}",
                entry.device.name()
            );
        }
    }
}
