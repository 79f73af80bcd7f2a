//! The program cache keys a structure by what it was compiled from: two
//! compiles share an entry only when their ordered Pauli masks and every
//! option the structure phase reads agree. A shared cache therefore never
//! changes an output: each compile below equals its uncached compile, and
//! two compiles that differ in one structure option record two misses.

use std::sync::Arc;

use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, DeviceRegistry, PhoenixError, PhoenixOptions,
    Target,
};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;

/// A deterministic random 6-qubit program.
fn program() -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(3);
    (0..24)
        .map(|_| {
            let label: String = (0..6)
                .map(|_| ['I', 'X', 'Y', 'Z'][rng.next_below(4)])
                .collect();
            let label = if label.contains(['X', 'Y', 'Z']) {
                label
            } else {
                "ZIIIII".to_string()
            };
            (label.parse().unwrap(), rng.next_range_f64(-0.5, 0.5))
        })
        .collect()
}

fn request(target: &Target, options: &PhoenixOptions) -> CompileRequest {
    CompileRequest::new(6, &program())
        .target(target.clone())
        .options(options.clone())
}

fn assert_same(cached: &CompileOutcome, uncached: &CompileOutcome, what: &str) {
    assert_eq!(cached.circuit, uncached.circuit, "circuit: {what}");
    assert_eq!(cached.term_order, uncached.term_order, "term order: {what}");
    assert_eq!(cached.hardware, uncached.hardware, "hardware: {what}");
}

/// Compiles `a` and then `b` on one fresh cache, and both again in the
/// other order on another: each compile equals its uncached compile, and
/// each cache records two program misses and no hit.
fn assert_kept_apart(a: (Target, PhoenixOptions), b: (Target, PhoenixOptions), what: &str) {
    for (first, second) in [(&a, &b), (&b, &a)] {
        let cache = Arc::new(CompileCache::new());
        for (target, options) in [first, second] {
            let cached = request(target, options).cache(&cache).run().unwrap();
            let uncached = request(target, options).run().unwrap();
            assert_same(&cached, &uncached, &format!("{what}, {target:?}"));
        }
        let stats = cache.stats();
        assert_eq!((stats.program_misses, stats.program_hits), (2, 0), "{what}");
    }
}

#[test]
fn a_forced_options_hash_collision_no_longer_shares_an_entry() {
    // Under a 64-bit hash of the options, this lookahead on a routed
    // compile collides with a default CNOT compile; the key must still
    // tell the two apart.
    let line = Target::Device(DeviceRegistry::new().build("line:6").unwrap());
    let forced = PhoenixOptions {
        lookahead: 618_639_716_598_051_675,
        ..PhoenixOptions::default()
    };
    assert_kept_apart(
        (line, forced),
        (Target::Cnot, PhoenixOptions::default()),
        "forced lookahead on line:6 vs default CNOT",
    );
}

#[test]
fn each_structure_option_keeps_compiles_apart() {
    let base = PhoenixOptions::default();
    let changed = [
        (
            "lookahead",
            PhoenixOptions {
                lookahead: base.lookahead + 1,
                ..base.clone()
            },
        ),
        (
            "simplification",
            PhoenixOptions {
                enable_simplification: false,
                ..base.clone()
            },
        ),
        (
            "ordering",
            PhoenixOptions {
                enable_ordering: false,
                ..base.clone()
            },
        ),
    ];
    for (what, options) in changed {
        assert_kept_apart((Target::Cnot, base.clone()), (Target::Cnot, options), what);
    }
    let line = Target::Device(DeviceRegistry::new().build("line:6").unwrap());
    assert_kept_apart((Target::Cnot, base.clone()), (line, base), "routed or not");
}

#[test]
fn a_term_of_another_width_is_never_served_from_the_cache() {
    let cache = Arc::new(CompileCache::new());
    let valid: Vec<(PauliString, f64)> = vec![
        ("XYZ".parse().unwrap(), 0.5),
        (PauliString::identity(3), 0.25),
    ];
    CompileRequest::new(3, &valid)
        .cache(&cache)
        .structure()
        .unwrap();
    // The same letters padded with an identity, and an empty string in
    // place of the identity term.
    let padded = vec![("XYZI".parse().unwrap(), 0.5), valid[1].clone()];
    let empty = vec![valid[0].clone(), (PauliString::identity(0), 0.25)];
    for (terms, what) in [(padded, "padded"), (empty, "empty")] {
        let err = CompileRequest::new(3, &terms)
            .cache(&cache)
            .structure()
            .unwrap_err();
        assert!(
            matches!(
                err,
                PhoenixError::TermWidthMismatch { .. } | PhoenixError::EmptyPauliString { .. }
            ),
            "{what}: {err:?}"
        );
    }
    assert_eq!(cache.stats().program_hits, 0);
}
