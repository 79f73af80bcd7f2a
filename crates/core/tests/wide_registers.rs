//! Wide-register compilation: the packed-mask representation must carry
//! programs past the historical 128-qubit cap through every logical compile
//! path, and the (much higher) sanity cap must surface as a typed error
//! from every target — never a panic.

use phoenix_core::{CompileRequest, Device, PhoenixError, Target};
use phoenix_hamil::models::{heisenberg_chain, tfim_chain};
use phoenix_pauli::{PauliString, MAX_QUBITS};
use phoenix_topology::CouplingGraph;
use phoenix_verify::engine::{check_skeleton_identity, Outcome};

#[test]
fn over_cap_widths_are_typed_errors_on_every_path() {
    let n = MAX_QUBITS + 1;
    let terms: Vec<(PauliString, f64)> = Vec::new();
    let device = Device::bare(CouplingGraph::line(2));
    for target in [
        Target::Logical,
        Target::Cnot,
        Target::Su4,
        Target::CnotViaKak,
        Target::Device(device),
    ] {
        let err = CompileRequest::new(n, &terms)
            .target(target)
            .run()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, PhoenixError::UnsupportedWidth { num_qubits: n });
    }
}

/// Logical compiles at 128, 256 and 300 qubits are checked by the
/// width-independent tier: the emitted order is a permutation of the input
/// program, and the circuit's Clifford skeleton is the identity.
#[test]
fn trotter_chains_compile_past_128_qubits() {
    for n in [128, 256, 300] {
        for h in [tfim_chain(n, 1.0, 0.5), heisenberg_chain(n, 1.0, 1.0, 0.5)] {
            let name = h.name();
            let out = CompileRequest::new(n, h.terms())
                .run()
                .expect("wide logical compile succeeds");
            assert_eq!(out.term_order.len(), h.len(), "{name}");
            assert_eq!(out.circuit.num_qubits(), n, "{name}");
            let key = |t: &(PauliString, f64)| (t.0.to_string(), (t.1 * 1e12).round() as i64);
            let mut got: Vec<_> = out.term_order.iter().map(key).collect();
            let mut want: Vec<_> = h.terms().iter().map(key).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{name}");
            // A skipped check proves nothing, so only a pass will do.
            match check_skeleton_identity(&out.circuit) {
                Outcome::Pass(_) => {}
                other => panic!("{name}: skeleton check gave {other:?}"),
            }
        }
    }
}

#[test]
fn wide_cnot_lowering_touches_the_top_qubits() {
    // The CNOT-target path must synthesize real gates above qubit 128.
    let n = 200;
    let h = tfim_chain(n, 1.0, 0.5);
    let c = CompileRequest::new(n, h.terms())
        .target(Target::Cnot)
        .run()
        .expect("wide CNOT compile succeeds")
        .circuit;
    let touches_top = c.gates().iter().any(|g| {
        let (a, b) = g.qubits();
        a >= 128 || b.is_some_and(|b| b >= 128)
    });
    assert!(touches_top, "no gate above qubit 128 in a 200-qubit chain");
}
