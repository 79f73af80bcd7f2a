//! Content-addressed parametric compilation cache for the PHOENIX compiler.
//!
//! PHOENIX's expensive work — grouping, BSF simplification, Clifford search,
//! Tetris ordering, routing — depends only on the *structure* of a Pauli
//! program (which strings appear, in which order), never on the rotation
//! angles. A VQE outer loop recompiles the same ansatz thousands of times
//! with nothing but the angles changed. This crate makes the second and
//! every subsequent compile nearly free:
//!
//! 1. The structure phase runs the unmodified pipeline with each term's
//!    coefficient replaced by a **slot encoding** `(slot + 1) as f64`. Every
//!    angle the synthesizer emits is then `±2·(slot+1)` — exactly decodable,
//!    because small-integer arithmetic, negation and doubling are exact in
//!    IEEE-754. The decoded circuit-position → (slot, sign) map is a
//!    [`StructureArtifact`].
//! 2. The angle phase ([`StructureArtifact::bind`]) clones the skeleton's
//!    gate list and patches `θ = 2·fold_conjugation_sign(angle[slot], sign)`
//!    into each recorded position — the *same* float operations the cold
//!    pipeline would have performed, so warm and cold outputs are
//!    bit-for-bit identical.
//!
//! The concurrent [`CompileCache`] holds artifacts at three granularities:
//!
//! - whole-program [`StructureArtifact`]s, keyed by a [`ProgramKey`]: the
//!   program's ordered masks ([`CanonicalIr`]) plus the values of the
//!   options the structure phase reads;
//! - per-shape [`GroupArtifact`]s, keyed by the [`GroupShape`] of an IR
//!   group: its rows relabelled onto its support ranks. One artifact serves
//!   every group of the shape, in any program, on any support;
//! - routed templates ([`RouteArtifact`]s), keyed by a [`RouteKey`]: the
//!   lowered circuit the router reads with its rotations slot-encoded,
//!   plus the coupling graph and the router settings. The router reads
//!   only gate qubits, so one layout search and routing serves every
//!   circuit of the same gate kinds and qubits, whatever its angles.
//!
//! Every key is its contents, compared in full, so two requests share an
//! entry exactly when everything the cached work reads agrees; the maps
//! hash keys with [`phoenix_pauli::WordHasher`].

use phoenix_circuit::{Circuit, Gate};
use phoenix_pauli::{fold_conjugation_sign, CanonicalIr, GroupShape, PauliString, WordHashMap};
use phoenix_router::{RouteError, RoutedCircuit, RouterOptions};
use phoenix_topology::CouplingGraph;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Largest slot payload that is exactly representable through the pipeline's
/// float arithmetic (integer magnitudes up to 2^52 survive `×2`, negation
/// and addition-free routing untouched).
const MAX_SLOT_MAGNITUDE: f64 = (1u64 << 52) as f64;

/// Encode a parameter slot index as a structure-phase coefficient.
///
/// The structure phase compiles the program with `coeff = encode_slot(i)` in
/// place of the `i`-th real coefficient; [`decode_coeff`] inverts this after
/// sign folding.
#[inline]
pub fn encode_slot(slot: usize) -> f64 {
    (slot + 1) as f64
}

/// Decode a (possibly sign-folded) slot-encoded coefficient back to
/// `(slot, sign)`. Returns `None` if the value is not `±(k+1)` for an
/// integer `k` — i.e. the pipeline did something other than flip signs,
/// which would make the skeleton unsafe to rebind.
#[inline]
pub fn decode_coeff(coeff: f64) -> Option<(usize, i8)> {
    if !coeff.is_finite() {
        return None;
    }
    let sign: i8 = if coeff < 0.0 { -1 } else { 1 };
    let mag = coeff.abs();
    if !(1.0..=MAX_SLOT_MAGNITUDE).contains(&mag) || mag.fract() != 0.0 {
        return None;
    }
    Some((mag as usize - 1, sign))
}

/// Decode a slot-encoded rotation angle `θ = 2·(±(slot+1))` back to
/// `(slot, sign)`.
#[inline]
pub fn decode_slot(theta: f64) -> Option<(usize, i8)> {
    decode_coeff(theta / 2.0)
}

/// A structure-phase skeleton failed to decode: some emitted angle is not a
/// recognizable slot encoding, so the circuit cannot be safely rebound.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// A theta-bearing gate carries an angle that is not `±2(k+1)`.
    UnencodedTheta {
        /// Index of the offending gate in the skeleton.
        gate_index: usize,
        /// The angle that failed to decode.
        theta: f64,
    },
    /// A decoded slot index exceeds the number of parameters.
    SlotOutOfRange {
        /// Index of the offending gate in the skeleton.
        gate_index: usize,
        /// The decoded slot.
        slot: usize,
        /// Number of parameter slots in the program.
        num_slots: usize,
    },
    /// The skeleton contains a gate whose angles are baked into an opaque
    /// payload (e.g. a fused SU(4) matrix) and cannot be rebound.
    OpaqueGate {
        /// Index of the offending gate in the skeleton.
        gate_index: usize,
    },
    /// An ordered term's coefficient is not a recognizable slot encoding.
    UnencodedCoeff {
        /// Index of the offending term in the emission order.
        term_index: usize,
        /// The coefficient that failed to decode.
        coeff: f64,
    },
    /// A routed template does not carry every input rotation exactly once
    /// with its sign unchanged, so its rotations cannot be rebound one to
    /// one.
    SlotNotCopied {
        /// The input rotation whose slot was missing, repeated or negated.
        slot: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnencodedTheta { gate_index, theta } => write!(
                f,
                "gate {gate_index}: angle {theta} is not a slot encoding ±2(k+1)"
            ),
            DecodeError::SlotOutOfRange { gate_index, slot, num_slots } => write!(
                f,
                "gate {gate_index}: decoded slot {slot} out of range (program has {num_slots} slots)"
            ),
            DecodeError::OpaqueGate { gate_index } => write!(
                f,
                "gate {gate_index}: opaque angle payload (SU(4) block) cannot be rebound"
            ),
            DecodeError::UnencodedCoeff { term_index, coeff } => write!(
                f,
                "ordered term {term_index}: coefficient {coeff} is not a slot encoding ±(k+1)"
            ),
            DecodeError::SlotNotCopied { slot } => write!(
                f,
                "rotation {slot} is not copied exactly once into the routed template"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Binding concrete angles into a cached skeleton failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// The angle vector length does not match the artifact's slot count.
    AngleCount {
        /// Number of parameter slots the artifact expects.
        expected: usize,
        /// Number of angles supplied.
        got: usize,
    },
    /// An angle is NaN or infinite.
    NonFiniteAngle {
        /// Slot of the offending angle.
        slot: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::AngleCount { expected, got } => {
                write!(f, "expected {expected} angles, got {got}")
            }
            BindError::NonFiniteAngle { slot, value } => {
                write!(f, "angle for slot {slot} is not finite ({value})")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// Scan a slot-encoded circuit and record, for every theta-bearing gate,
/// `(gate_index, slot, sign)`.
fn decode_bindings(
    gates: &[Gate],
    num_slots: usize,
) -> Result<Vec<(usize, usize, i8)>, DecodeError> {
    let mut bindings = Vec::new();
    for (gate_index, gate) in gates.iter().enumerate() {
        let theta = match gate {
            Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) => *t,
            Gate::PauliRot2 { theta, .. } => *theta,
            Gate::Su4(_) => return Err(DecodeError::OpaqueGate { gate_index }),
            _ => continue,
        };
        let (slot, sign) =
            decode_slot(theta).ok_or(DecodeError::UnencodedTheta { gate_index, theta })?;
        if slot >= num_slots {
            return Err(DecodeError::SlotOutOfRange {
                gate_index,
                slot,
                num_slots,
            });
        }
        bindings.push((gate_index, slot, sign));
    }
    Ok(bindings)
}

/// Decode a slot-encoded ordered term list into `(slot, sign)` pairs.
fn decode_term_slots(
    terms: &[(PauliString, f64)],
    num_slots: usize,
) -> Result<Vec<(usize, i8)>, DecodeError> {
    terms
        .iter()
        .enumerate()
        .map(|(term_index, (_, coeff))| decode_term_slot(term_index, *coeff, num_slots))
        .collect()
}

/// Decode the slot-encoded coefficient of ordered term `term_index`.
fn decode_term_slot(
    term_index: usize,
    coeff: f64,
    num_slots: usize,
) -> Result<(usize, i8), DecodeError> {
    match decode_coeff(coeff) {
        Some((slot, sign)) if slot < num_slots => Ok((slot, sign)),
        _ => Err(DecodeError::UnencodedCoeff { term_index, coeff }),
    }
}

/// Patch concrete thetas into a cloned gate list, in place; `angle(slot)`
/// is the slot's concrete coefficient.
fn patch_gates(gates: &mut [Gate], bindings: &[(usize, usize, i8)], angle: impl Fn(usize) -> f64) {
    for &(gate_index, slot, sign) in bindings {
        let theta = 2.0 * fold_conjugation_sign(angle(slot), sign);
        match &mut gates[gate_index] {
            Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) => *t = theta,
            Gate::PauliRot2 { theta: t, .. } => *t = theta,
            // decode_bindings only records theta-bearing gates.
            _ => debug_assert!(false, "binding points at a parameterless gate"),
        }
    }
}

/// Checks an angle vector for a program of `expected` parameter slots: one
/// finite angle per slot.
///
/// # Errors
///
/// [`BindError::AngleCount`] or [`BindError::NonFiniteAngle`].
pub fn check_angles(angles: &[f64], expected: usize) -> Result<(), BindError> {
    if angles.len() != expected {
        return Err(BindError::AngleCount {
            expected,
            got: angles.len(),
        });
    }
    if let Some(slot) = angles.iter().position(|a| !a.is_finite()) {
        return Err(BindError::NonFiniteAngle {
            slot,
            value: angles[slot],
        });
    }
    Ok(())
}

/// The output of binding angles into a whole-program [`StructureArtifact`]:
/// everything the legacy pipeline would have produced for the same program.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundProgram {
    /// The synthesized circuit with concrete angles.
    pub circuit: Circuit,
    /// Emission order with concrete (sign-folded) coefficients.
    pub term_order: Vec<(PauliString, f64)>,
    /// Number of commuting groups the program was partitioned into.
    pub num_groups: usize,
}

/// The angle-independent result of a whole-program structure compile: a
/// slot-encoded skeleton circuit plus the decoded rebinding map.
#[derive(Debug, Clone)]
pub struct StructureArtifact {
    num_qubits: usize,
    num_slots: usize,
    num_groups: usize,
    skeleton: Circuit,
    bindings: Vec<(usize, usize, i8)>,
    term_slots: Vec<(PauliString, usize, i8)>,
}

impl StructureArtifact {
    /// Decode a slot-encoded structure compile into a rebindable artifact.
    ///
    /// `skeleton` and `term_order` must come from a pipeline run where the
    /// `i`-th input term's coefficient was [`encode_slot`]`(i)`; `num_slots`
    /// is the number of input terms (= expected angle-vector length).
    pub fn from_slot_encoded(
        num_qubits: usize,
        num_slots: usize,
        num_groups: usize,
        skeleton: Circuit,
        term_order: &[(PauliString, f64)],
    ) -> Result<Self, DecodeError> {
        let bindings = decode_bindings(skeleton.gates(), num_slots)?;
        let term_slots = decode_term_slots(term_order, num_slots)?
            .into_iter()
            .zip(term_order)
            .map(|((slot, sign), (p, _))| (p.clone(), slot, sign))
            .collect();
        Ok(StructureArtifact {
            num_qubits,
            num_slots,
            num_groups,
            skeleton,
            bindings,
            term_slots,
        })
    }

    /// Number of qubits of the skeleton circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of parameter slots (= length of the angle vector `bind` expects).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of commuting groups in the structure.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of theta-bearing gate positions that get patched per bind.
    pub fn num_bindings(&self) -> usize {
        self.bindings.len()
    }

    /// The slot-encoded skeleton circuit.
    pub fn skeleton(&self) -> &Circuit {
        &self.skeleton
    }

    /// Substitute concrete angles into the skeleton.
    ///
    /// This performs exactly the float operations the cold pipeline would
    /// have performed on the same program (`θ = 2·(±angle)`), so the result
    /// is bit-for-bit identical to a from-scratch compile.
    pub fn bind(&self, angles: &[f64]) -> Result<BoundProgram, BindError> {
        check_angles(angles, self.num_slots)?;
        let mut gates = self.skeleton.gates().to_vec();
        patch_gates(&mut gates, &self.bindings, |slot| angles[slot]);
        let circuit = Circuit::from_gates(self.num_qubits, gates);
        let term_order = self
            .term_slots
            .iter()
            .map(|(p, slot, sign)| (p.clone(), fold_conjugation_sign(angles[*slot], *sign)))
            .collect();
        Ok(BoundProgram {
            circuit,
            term_order,
            num_groups: self.num_groups,
        })
    }
}

/// The angle-independent synthesis of one group *shape* ([`GroupShape`]):
/// a skeleton over the shape's `s` support ranks, slot-encoded against the
/// shape's row indices. It serves every group of the shape, whatever its
/// support and coefficients.
#[derive(Debug, Clone)]
pub struct GroupArtifact {
    num_slots: usize,
    /// The skeleton over `s` rank-space qubits.
    skeleton: Circuit,
    bindings: Vec<(usize, usize, i8)>,
    /// Emission order as `(slot, sign)`: the group's own term `slot`, its
    /// coefficient folded by `sign`.
    term_slots: Vec<(usize, i8)>,
}

impl GroupArtifact {
    /// Decode a shape compiled in rank space with local slot encoding
    /// (`coeff[i] =` [`encode_slot`]`(i)` over the shape's `num_slots`
    /// rows). `emitted` holds the coefficient of every emitted rotation
    /// row, in emission order, as the row carries it inside its Clifford
    /// frame: `±encode_slot(slot)`. Conjugation only flips a row's sign,
    /// and every Clifford2Q generator is an involution, so undoing the
    /// frame gives back the slot's own term with its own, positive,
    /// coefficient: each row implements slot `|c| − 1` with sign `+1`, and
    /// no string needs conjugating back.
    pub fn from_slot_encoded(
        num_slots: usize,
        skeleton: Circuit,
        emitted: impl IntoIterator<Item = f64>,
    ) -> Result<Self, DecodeError> {
        let bindings = decode_bindings(skeleton.gates(), num_slots)?;
        let term_slots = emitted
            .into_iter()
            .enumerate()
            .map(|(term_index, coeff)| {
                decode_term_slot(term_index, coeff, num_slots).map(|(slot, _)| (slot, 1))
            })
            .collect::<Result<_, _>>()?;
        Ok(GroupArtifact {
            num_slots,
            skeleton,
            bindings,
            term_slots,
        })
    }

    /// Number of rank-space qubits: the shape's support size `s`.
    pub fn width(&self) -> usize {
        self.skeleton.num_qubits()
    }

    /// Number of parameter slots: the shape's rows.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Binds the artifact to one group of its shape over an `n`-qubit
    /// register: every gate moves from rank `r` to `support[r]`, and slot
    /// `i` takes the coefficient of `terms[i]`. With `support` the group's
    /// support in ascending order, the angles come from the float
    /// operations a cold compile of the group performs (`θ = 2·(±coeff)`),
    /// so the result is bit-for-bit that compile's subcircuit and
    /// emission-ordered terms.
    ///
    /// # Panics
    ///
    /// Panics if `support` does not hold `s` qubits below `n`, or if
    /// `terms` does not hold one term per slot.
    pub fn bind(
        &self,
        n: usize,
        support: &[usize],
        terms: &[(PauliString, f64)],
    ) -> (Circuit, Vec<(PauliString, f64)>) {
        assert_eq!(
            support.len(),
            self.width(),
            "support size differs from the shape width"
        );
        assert_eq!(
            terms.len(),
            self.num_slots,
            "term count differs from the slot count"
        );
        let mut gates: Vec<Gate> = self
            .skeleton
            .gates()
            .iter()
            .map(|g| g.map_qubits(&mut |q| support[q]))
            .collect();
        patch_gates(&mut gates, &self.bindings, |slot| terms[slot].1);
        let term_order = self
            .term_slots
            .iter()
            .map(|&(slot, sign)| {
                let (p, coeff) = &terms[slot];
                (p.clone(), fold_conjugation_sign(*coeff, sign))
            })
            .collect();
        (Circuit::from_gates(n, gates), term_order)
    }
}

/// Cache key for whole-program artifacts: the program's ordered masks plus
/// the value of every option the structure phase reads. Thread counts are
/// not among them (the output is identical for every value), nor is
/// anything only the post-bind lowering reads, so artifacts are shared
/// across those.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    ir: CanonicalIr,
    lookahead: usize,
    enable_simplification: bool,
    enable_ordering: bool,
    routing_aware: bool,
}

impl ProgramKey {
    /// Keys `ir` compiled with the Tetris ordering's `lookahead`, with or
    /// without BSF simplification and ordering, and with or without the
    /// routing-aware ordering cost (Eq. (7)) in effect.
    pub fn new(
        ir: CanonicalIr,
        lookahead: usize,
        enable_simplification: bool,
        enable_ordering: bool,
        routing_aware: bool,
    ) -> Self {
        ProgramKey {
            ir,
            lookahead,
            enable_simplification,
            enable_ordering,
            routing_aware,
        }
    }
}

/// Cache key for routed templates: the `{1Q, CNOT}` circuit the router
/// reads, with the `k`-th `Rx`/`Ry`/`Rz` angle replaced by
/// `2·`[`encode_slot`]`(k)`, plus everything else the router reads: the
/// coupling graph, the [`RouterOptions`] and the layout-search trials. Two
/// circuits with the same gate kinds on the same qubits in the same order
/// share a key, whatever their angles.
///
/// The hash covers every part (gate discriminants, qubits, angle bits, the
/// graph's edges, the option bits), and equality compares every part in
/// full, cheapest first.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteKey {
    layout_trials: usize,
    router: [u64; 6],
    num_physical: usize,
    edges: Vec<(usize, usize)>,
    circuit: Circuit,
}

impl RouteKey {
    /// Lowers `circuit` to `{1Q, CNOT}` as the router does, slot-encodes
    /// its rotations and keys the result with the device and the router
    /// settings. Also returns the erased angles in rotation order: the
    /// `k`-th is what [`RouteArtifact::bind`] copies back for slot `k`.
    pub fn new(
        circuit: &Circuit,
        device: &CouplingGraph,
        router: &RouterOptions,
        layout_trials: usize,
    ) -> (RouteKey, Vec<f64>) {
        let mut gates = circuit.lower_to_cnot().into_gates();
        let mut angles = Vec::new();
        for g in &mut gates {
            if let Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) = g {
                angles.push(*t);
                *t = 2.0 * encode_slot(angles.len() - 1);
            }
        }
        let circuit = Circuit::from_gates(circuit.num_qubits(), gates);
        // Destructured so that a new router option cannot be left out.
        let RouterOptions {
            extended_set_size,
            extended_weight,
            decay,
            decay_reset,
            use_bridge,
            max_swaps,
        } = router;
        let router = [
            *extended_set_size as u64,
            extended_weight.to_bits(),
            decay.to_bits(),
            *decay_reset as u64,
            u64::from(*use_bridge),
            *max_swaps as u64,
        ];
        let key = RouteKey {
            layout_trials,
            router,
            num_physical: device.num_qubits(),
            edges: device.edges().iter().copied().collect(),
            circuit,
        };
        (key, angles)
    }

    /// The slot-encoded `{1Q, CNOT}` circuit: what a miss routes.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

// Every angle of a key is a slot encoding, never NaN, so equality is
// reflexive.
impl Eq for RouteKey {}

impl Hash for RouteKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.layout_trials.hash(state);
        self.router.hash(state);
        self.num_physical.hash(state);
        self.edges.hash(state);
        state.write_usize(self.circuit.num_qubits());
        for g in self.circuit.gates() {
            std::mem::discriminant(g).hash(state);
            let (a, b) = g.qubits();
            state.write_usize(a);
            state.write_usize(b.unwrap_or(usize::MAX));
            if let Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) = g {
                state.write_u64(t.to_bits());
            }
        }
    }
}

/// A routed template: the layout search and SABRE routing of a
/// [`RouteKey`]'s slot-encoded circuit, decoded into one
/// `(output position, input rotation)` binding per rotation.
///
/// The router copies gates through `Gate::map_qubits` and never reads an
/// angle, so routing a circuit with other angles makes the same choices.
/// [`RouteArtifact::bind`] therefore reproduces that routing bit for bit
/// by copying each angle into its position.
#[derive(Debug, Clone)]
pub struct RouteArtifact {
    /// The routed skeleton (SWAPs still symbolic), its SWAP count and
    /// its layouts.
    routed: RoutedCircuit,
    /// `(gate index in the skeleton, input rotation)`, one per rotation.
    bindings: Vec<(usize, usize)>,
    /// The retry ladder's abandoned attempts: strategy and error.
    retried: Vec<(&'static str, RouteError)>,
}

impl RouteArtifact {
    /// Decodes the routing of a slot-encoded circuit with `num_slots`
    /// rotations; `retried` lists the attempts the retry ladder abandoned
    /// on the way.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] unless every input rotation appears in
    /// the routed circuit exactly once, as a rotation with its encoding
    /// unchanged: only then can the angles be copied back one to one.
    pub fn from_slot_encoded(
        routed: RoutedCircuit,
        num_slots: usize,
        retried: Vec<(&'static str, RouteError)>,
    ) -> Result<Self, DecodeError> {
        let gates = routed.circuit.gates();
        let mut seen = vec![false; num_slots];
        let mut bindings = Vec::with_capacity(num_slots);
        for (gate_index, slot, sign) in decode_bindings(gates, num_slots)? {
            let rotation = matches!(
                gates[gate_index],
                Gate::Rx(..) | Gate::Ry(..) | Gate::Rz(..)
            );
            if !rotation || sign < 0 || std::mem::replace(&mut seen[slot], true) {
                return Err(DecodeError::SlotNotCopied { slot });
            }
            bindings.push((gate_index, slot));
        }
        if let Some(slot) = seen.iter().position(|&s| !s) {
            return Err(DecodeError::SlotNotCopied { slot });
        }
        Ok(RouteArtifact {
            routed,
            bindings,
            retried,
        })
    }

    /// The attempts the retry ladder abandoned before the routing that
    /// succeeded, as `(strategy, error)`.
    pub fn retried(&self) -> &[(&'static str, RouteError)] {
        &self.retried
    }

    /// The routing of the circuit whose rotation angles are `angles`, in
    /// the order [`RouteKey::new`] returned them: the skeleton with every
    /// angle copied into its position bit for bit. No float operation
    /// touches an angle.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::AngleCount`] when `angles` does not hold one
    /// angle per rotation.
    pub fn bind(&self, angles: &[f64]) -> Result<RoutedCircuit, BindError> {
        if angles.len() != self.bindings.len() {
            return Err(BindError::AngleCount {
                expected: self.bindings.len(),
                got: angles.len(),
            });
        }
        let mut gates = self.routed.circuit.gates().to_vec();
        for &(gate_index, slot) in &self.bindings {
            if let Gate::Rx(_, t) | Gate::Ry(_, t) | Gate::Rz(_, t) = &mut gates[gate_index] {
                *t = angles[slot];
            }
        }
        Ok(RoutedCircuit {
            circuit: Circuit::from_gates(self.routed.circuit.num_qubits(), gates),
            num_swaps: self.routed.num_swaps,
            initial_layout: self.routed.initial_layout.clone(),
            final_layout: self.routed.final_layout.clone(),
        })
    }
}

/// A point-in-time snapshot of [`CompileCache`] hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Whole-program artifact lookups that hit.
    pub program_hits: u64,
    /// Whole-program artifact lookups that missed.
    pub program_misses: u64,
    /// Per-shape artifact lookups that hit (one per distinct group shape
    /// of a compile).
    pub group_hits: u64,
    /// Per-shape artifact lookups that missed.
    pub group_misses: u64,
    /// Routed-template lookups that hit (one per routed compile on the
    /// cached path).
    pub route_hits: u64,
    /// Routed-template lookups that missed.
    pub route_misses: u64,
    /// Artifacts (programs + groups + routes) evicted to honor a capacity
    /// bound. Always 0 for an unbounded cache.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of whole-program lookups that hit (0.0 when none occurred).
    pub fn program_hit_rate(&self) -> f64 {
        hit_rate(self.program_hits, self.program_misses)
    }

    /// Fraction of per-shape lookups that hit (0.0 when none occurred).
    pub fn group_hit_rate(&self) -> f64 {
        hit_rate(self.group_hits, self.group_misses)
    }

    /// Fraction of routed-template lookups that hit (0.0 when none
    /// occurred).
    pub fn route_hit_rate(&self) -> f64 {
        hit_rate(self.route_hits, self.route_misses)
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

/// A cached artifact stamped with the logical time of its last use, so a
/// bounded cache can evict coarsely least-recently-used entries without
/// taking a write lock on the hot lookup path.
#[derive(Debug)]
struct Stamped<T> {
    value: Arc<T>,
    last_used: AtomicU64,
}

impl<T> Stamped<T> {
    fn new(value: Arc<T>, tick: u64) -> Self {
        Stamped {
            value,
            last_used: AtomicU64::new(tick),
        }
    }
}

/// Evict the stalest entry from `map` while it exceeds `cap`. Called with
/// the write lock held, right after an insert.
fn evict_over_capacity<K: Clone + Hash + Eq, V>(
    map: &mut WordHashMap<K, Stamped<V>>,
    cap: usize,
    evictions: &AtomicU64,
) {
    while map.len() > cap {
        let stalest = map
            .iter()
            .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone());
        match stalest {
            Some(k) => {
                map.remove(&k);
                evictions.fetch_add(1, Ordering::Relaxed);
            }
            None => break,
        }
    }
}

/// A concurrent, content-addressed cache of structure-phase results and
/// routed templates.
///
/// Shared across threads behind an `Arc`; lookups take a read lock, inserts
/// a write lock, and hit/miss counters are lock-free atomics.
///
/// [`CompileCache::new`] is unbounded — right for a VQE sweep over one
/// ansatz. A long-lived server should use [`CompileCache::with_capacity`]
/// instead: each map (programs, group shapes, routes) is bounded to
/// `max_entries` artifacts, and inserts over capacity evict the coarsely
/// least-recently-used entry (lookups stamp entries with a logical clock
/// under the read lock; eviction scans for the minimum stamp under the
/// write lock — O(n), fine at the few-hundred-entry capacities a server
/// uses). Evictions are counted in [`CacheStats::evictions`].
///
/// ```
/// use phoenix_cache::CompileCache;
/// use std::sync::Arc;
///
/// let cache = Arc::new(CompileCache::new());
/// assert_eq!(cache.stats().program_hits, 0);
/// assert_eq!(CompileCache::with_capacity(256).max_entries(), Some(256));
/// ```
#[derive(Debug, Default)]
pub struct CompileCache {
    programs: Map<ProgramKey, StructureArtifact>,
    groups: Map<GroupShape, GroupArtifact>,
    routes: Map<RouteKey, RouteArtifact>,
    /// Per-map capacity bound; `None` = unbounded.
    max_entries: Option<usize>,
    /// Logical clock: bumped on every lookup/insert, stamped into entries.
    clock: AtomicU64,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
    group_hits: AtomicU64,
    group_misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    evictions: AtomicU64,
}

/// One map of the cache.
type Map<K, V> = RwLock<WordHashMap<K, Stamped<V>>>;

impl CompileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// An empty cache bounded to `max_entries` artifacts per map (programs,
    /// groups and routes each). A capacity of 0 is clamped to 1 — an
    /// always-empty cache would silently disable caching; callers who want
    /// that should simply not attach one.
    pub fn with_capacity(max_entries: usize) -> Self {
        CompileCache {
            max_entries: Some(max_entries.max(1)),
            ..CompileCache::default()
        }
    }

    /// The per-map capacity bound, or `None` when unbounded.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Advance and read the logical clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks `key` up in `map`, stamping a hit and counting it in `hits`
    /// or `misses`.
    fn lookup<K: Hash + Eq, V>(
        &self,
        map: &Map<K, V>,
        key: &K,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> Option<Arc<V>> {
        let map = map.read().unwrap_or_else(|e| e.into_inner());
        match map.get(key) {
            Some(entry) => {
                entry.last_used.store(self.tick(), Ordering::Relaxed);
                hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `artifact` under `key` unless the key is present, returns
    /// the entry kept, and evicts over capacity.
    fn insert<K: Clone + Hash + Eq, V>(&self, map: &Map<K, V>, key: K, artifact: Arc<V>) -> Arc<V> {
        let tick = self.tick();
        let mut map = map.write().unwrap_or_else(|e| e.into_inner());
        let kept = Arc::clone(
            &map.entry(key)
                .or_insert_with(|| Stamped::new(artifact, tick))
                .value,
        );
        if let Some(cap) = self.max_entries {
            evict_over_capacity(&mut map, cap, &self.evictions);
        }
        kept
    }

    fn len<K, V>(map: &Map<K, V>) -> usize {
        map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn empty<K, V>(map: &Map<K, V>) {
        map.write().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Look up a whole-program artifact, recording a hit or miss.
    pub fn get_program(&self, key: &ProgramKey) -> Option<Arc<StructureArtifact>> {
        self.lookup(
            &self.programs,
            key,
            &self.program_hits,
            &self.program_misses,
        )
    }

    /// Insert a whole-program artifact. First writer wins on a racing key:
    /// both racers produced identical artifacts (the pipeline is
    /// deterministic), so keeping the incumbent preserves sharing. On a
    /// bounded cache, inserting over capacity evicts the stalest entry.
    pub fn insert_program(
        &self,
        key: ProgramKey,
        artifact: Arc<StructureArtifact>,
    ) -> Arc<StructureArtifact> {
        self.insert(&self.programs, key, artifact)
    }

    /// Look up a group-shape artifact, recording a hit or miss.
    pub fn get_group(&self, key: &GroupShape) -> Option<Arc<GroupArtifact>> {
        self.lookup(&self.groups, key, &self.group_hits, &self.group_misses)
    }

    /// Insert a group-shape artifact (first writer wins and capacity is
    /// enforced, as for programs).
    pub fn insert_group(
        &self,
        key: GroupShape,
        artifact: Arc<GroupArtifact>,
    ) -> Arc<GroupArtifact> {
        self.insert(&self.groups, key, artifact)
    }

    /// Look up a routed template, recording a hit or miss.
    pub fn get_route(&self, key: &RouteKey) -> Option<Arc<RouteArtifact>> {
        self.lookup(&self.routes, key, &self.route_hits, &self.route_misses)
    }

    /// Insert a routed template (first writer wins and capacity is
    /// enforced, as for programs).
    pub fn insert_route(&self, key: RouteKey, artifact: Arc<RouteArtifact>) -> Arc<RouteArtifact> {
        self.insert(&self.routes, key, artifact)
    }

    /// Number of cached whole-program artifacts.
    pub fn num_programs(&self) -> usize {
        Self::len(&self.programs)
    }

    /// Number of cached group-shape artifacts.
    pub fn num_groups(&self) -> usize {
        Self::len(&self.groups)
    }

    /// Number of cached routed templates.
    pub fn num_routes(&self) -> usize {
        Self::len(&self.routes)
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            program_hits: self.program_hits.load(Ordering::Relaxed),
            program_misses: self.program_misses.load(Ordering::Relaxed),
            group_hits: self.group_hits.load(Ordering::Relaxed),
            group_misses: self.group_misses.load(Ordering::Relaxed),
            route_hits: self.route_hits.load(Ordering::Relaxed),
            route_misses: self.route_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached artifacts and reset the counters.
    pub fn clear(&self) {
        Self::empty(&self.programs);
        Self::empty(&self.groups);
        Self::empty(&self.routes);
        for counter in [
            &self.program_hits,
            &self.program_misses,
            &self.group_hits,
            &self.group_misses,
            &self.route_hits,
            &self.route_misses,
            &self.evictions,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip_is_exact() {
        for slot in [0usize, 1, 2, 41, 999, 1_000_000] {
            let coeff = encode_slot(slot);
            assert_eq!(decode_coeff(coeff), Some((slot, 1)));
            assert_eq!(decode_coeff(-coeff), Some((slot, -1)));
            assert_eq!(decode_slot(2.0 * coeff), Some((slot, 1)));
            assert_eq!(decode_slot(-2.0 * coeff), Some((slot, -1)));
        }
    }

    #[test]
    fn decode_rejects_non_encodings() {
        assert_eq!(decode_coeff(0.0), None);
        assert_eq!(decode_coeff(0.5), None);
        assert_eq!(decode_coeff(1.5), None);
        assert_eq!(decode_coeff(f64::NAN), None);
        assert_eq!(decode_coeff(f64::INFINITY), None);
        assert_eq!(decode_coeff(1e300), None);
    }

    fn slot_encoded_skeleton() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Rz(0, 2.0 * encode_slot(0)));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rx(1, -2.0 * encode_slot(1)));
        c
    }

    #[test]
    fn structure_artifact_binds_angles_into_recorded_positions() {
        let skeleton = slot_encoded_skeleton();
        let order = vec![
            ("ZI".parse::<PauliString>().unwrap(), encode_slot(0)),
            ("IX".parse::<PauliString>().unwrap(), -encode_slot(1)),
        ];
        let art = StructureArtifact::from_slot_encoded(2, 2, 1, skeleton, &order).unwrap();
        assert_eq!(art.num_bindings(), 2);

        let bound = art.bind(&[0.125, 0.75]).unwrap();
        assert_eq!(bound.circuit.gates()[1], Gate::Rz(0, 0.25));
        assert_eq!(bound.circuit.gates()[3], Gate::Rx(1, -1.5));
        assert_eq!(bound.term_order[0].1, 0.125);
        assert_eq!(bound.term_order[1].1, -0.75);
        assert_eq!(bound.num_groups, 1);
    }

    #[test]
    fn bind_validates_the_angle_vector() {
        let art =
            StructureArtifact::from_slot_encoded(2, 2, 1, slot_encoded_skeleton(), &[]).unwrap();
        assert_eq!(
            art.bind(&[0.1]),
            Err(BindError::AngleCount {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            art.bind(&[0.1, f64::NAN]),
            Err(BindError::NonFiniteAngle { slot: 1, .. })
        ));
    }

    #[test]
    fn undecodable_skeletons_are_rejected() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.7));
        let err = StructureArtifact::from_slot_encoded(1, 1, 1, c, &[]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::UnencodedTheta { gate_index: 0, .. }
        ));

        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 2.0 * encode_slot(5)));
        let err = StructureArtifact::from_slot_encoded(1, 2, 1, c, &[]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::SlotOutOfRange {
                slot: 5,
                num_slots: 2,
                ..
            }
        ));
    }

    fn ps(label: &str) -> PauliString {
        label.parse().unwrap()
    }

    /// The shape of one group of `labels`, all on the support `mask`.
    fn shape(mask: u128, labels: &[&str]) -> GroupShape {
        let terms: Vec<(PauliString, f64)> = labels.iter().map(|l| (ps(l), 1.0)).collect();
        GroupShape::from_terms(&phoenix_pauli::QubitMask::from_u128(mask), &terms)
    }

    #[test]
    fn group_artifact_binds_onto_the_group_support() {
        // A rank-space skeleton over s = 2 qubits, two slots.
        let mut c = Circuit::new(2);
        c.push(Gate::Rz(0, 2.0 * encode_slot(0)));
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Rz(1, -2.0 * encode_slot(1)));
        // The second row carries its slot negated in its frame; it still
        // implements its own term with the term's own sign.
        let art =
            GroupArtifact::from_slot_encoded(2, c, [encode_slot(0), -encode_slot(1)]).unwrap();
        assert_eq!((art.width(), art.num_slots()), (2, 2));
        // Bound onto qubits {1, 3} of a 5-qubit register.
        let terms = vec![(ps("IZIII"), 0.25), (ps("IIIZI"), 0.5)];
        let (circuit, order) = art.bind(5, &[1, 3], &terms);
        assert_eq!(circuit.num_qubits(), 5);
        assert_eq!(
            circuit.gates(),
            &[Gate::Rz(1, 0.5), Gate::Cnot(1, 3), Gate::Rz(3, -1.0)]
        );
        assert_eq!(order, vec![(ps("IZIII"), 0.25), (ps("IIIZI"), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "support size")]
    fn group_artifact_rejects_a_support_of_another_width() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 2.0 * encode_slot(0)));
        let art = GroupArtifact::from_slot_encoded(1, c, [encode_slot(0)]).unwrap();
        art.bind(3, &[0, 2], &[(ps("ZIZ"), 0.5)]);
    }

    #[test]
    fn cache_counts_hits_and_misses_per_granularity() {
        let cache = CompileCache::new();
        let ir = CanonicalIr::from_terms(2, &[("ZZ".parse().unwrap(), 1.0)]);
        let key = ProgramKey::new(ir, 42, true, true, false);

        assert!(cache.get_program(&key).is_none());
        let art =
            Arc::new(StructureArtifact::from_slot_encoded(2, 0, 0, Circuit::new(2), &[]).unwrap());
        cache.insert_program(key.clone(), Arc::clone(&art));
        assert!(cache.get_program(&key).is_some());
        assert!(cache.get_group(&shape(0b11, &["ZZ"])).is_none());

        let stats = cache.stats();
        assert_eq!(stats.program_hits, 1);
        assert_eq!(stats.program_misses, 1);
        assert_eq!(stats.group_misses, 1);
        assert!((stats.program_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.num_programs(), 1);

        cache.clear();
        assert_eq!(cache.num_programs(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn racing_inserts_keep_the_incumbent() {
        let cache = CompileCache::new();
        let key = program_key(0);
        let a = empty_program_artifact();
        let first = cache.insert_program(key.clone(), Arc::clone(&a));
        let second = cache.insert_program(key, empty_program_artifact());
        assert!(Arc::ptr_eq(&first, &a));
        assert!(Arc::ptr_eq(&second, &a));
    }

    fn empty_program_artifact() -> Arc<StructureArtifact> {
        Arc::new(StructureArtifact::from_slot_encoded(1, 0, 0, Circuit::new(1), &[]).unwrap())
    }

    fn program_key(lookahead: usize) -> ProgramKey {
        let ir = CanonicalIr::from_terms(1, &[("Z".parse().unwrap(), 1.0)]);
        ProgramKey::new(ir, lookahead, true, true, false)
    }

    #[test]
    fn bounded_cache_evicts_the_stalest_program() {
        let cache = CompileCache::with_capacity(2);
        cache.insert_program(program_key(0), empty_program_artifact());
        cache.insert_program(program_key(1), empty_program_artifact());
        // Touch key 0 so key 1 becomes the stalest entry.
        assert!(cache.get_program(&program_key(0)).is_some());
        cache.insert_program(program_key(2), empty_program_artifact());
        assert_eq!(cache.num_programs(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_program(&program_key(0)).is_some());
        assert!(cache.get_program(&program_key(1)).is_none());
        assert!(cache.get_program(&program_key(2)).is_some());
    }

    #[test]
    fn bounded_cache_evicts_stale_groups_too() {
        let cache = CompileCache::with_capacity(1);
        let art = || {
            let mut c = Circuit::new(1);
            c.push(Gate::Rz(0, 2.0 * encode_slot(0)));
            Arc::new(GroupArtifact::from_slot_encoded(1, c, [encode_slot(0)]).unwrap())
        };
        cache.insert_group(shape(1, &["Z"]), art());
        cache.insert_group(shape(1, &["X"]), art());
        assert_eq!(cache.num_groups(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_group(&shape(1, &["Z"])).is_none());
        assert!(cache.get_group(&shape(1, &["X"])).is_some());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = CompileCache::new();
        assert_eq!(cache.max_entries(), None);
        for lookahead in 0..64 {
            cache.insert_program(program_key(lookahead), empty_program_artifact());
        }
        assert_eq!(cache.num_programs(), 64);
        assert_eq!(cache.stats().evictions, 0);
    }

    /// A circuit with two rotations around a CNOT on the qubit pair `pair`.
    fn rotations(pair: (usize, usize), angles: [f64; 2]) -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::Rz(pair.0, angles[0]));
        c.push(Gate::Cnot(pair.0, pair.1));
        c.push(Gate::Rx(pair.1, angles[1]));
        c
    }

    fn route_key(pair: (usize, usize), angles: [f64; 2]) -> (RouteKey, Vec<f64>) {
        RouteKey::new(
            &rotations(pair, angles),
            &CouplingGraph::line(3),
            &RouterOptions::default(),
            1,
        )
    }

    /// The slot-encoded circuit of `key` routed with the identity layout.
    fn route_artifact(key: &RouteKey) -> Arc<RouteArtifact> {
        let layout = phoenix_router::Layout::trivial(3, 3);
        let routed = phoenix_router::route(
            key.circuit(),
            &CouplingGraph::line(3),
            layout,
            &RouterOptions::default(),
        );
        Arc::new(RouteArtifact::from_slot_encoded(routed, 2, Vec::new()).unwrap())
    }

    #[test]
    fn route_keys_erase_angles_but_keep_structure() {
        let (key, angles) = route_key((0, 2), [0.25, -1.5]);
        assert_eq!(angles, vec![0.25, -1.5]);
        assert_eq!(key.circuit().gates()[0], Gate::Rz(0, 2.0 * encode_slot(0)));
        assert_eq!(key.circuit().gates()[2], Gate::Rx(2, 2.0 * encode_slot(1)));
        assert_eq!(route_key((0, 2), [3.0, 0.0]).0, key);
        assert_ne!(route_key((0, 1), [0.25, -1.5]).0, key);
        let (trials, _) = RouteKey::new(
            &rotations((0, 2), [0.25, -1.5]),
            &CouplingGraph::line(3),
            &RouterOptions::default(),
            2,
        );
        assert_ne!(trials, key);
        let (ring, _) = RouteKey::new(
            &rotations((0, 2), [0.25, -1.5]),
            &CouplingGraph::ring(3),
            &RouterOptions::default(),
            1,
        );
        assert_ne!(ring, key);
    }

    #[test]
    fn route_artifact_copies_angles_bit_for_bit() {
        let (key, _) = route_key((0, 2), [0.25, -1.5]);
        let artifact = route_artifact(&key);
        let angles = [-0.0, f64::MIN_POSITIVE];
        let bound = artifact.bind(&angles).unwrap();
        assert!(bound.num_swaps > 0, "qubits 0 and 2 are not coupled");
        let direct = phoenix_router::route(
            &rotations((0, 2), angles),
            &CouplingGraph::line(3),
            phoenix_router::Layout::trivial(3, 3),
            &RouterOptions::default(),
        );
        assert_eq!(bound.circuit.len(), direct.circuit.len());
        for (a, b) in bound.circuit.gates().iter().zip(direct.circuit.gates()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(bound.final_layout, direct.final_layout);
        assert_eq!(
            artifact.bind(&[0.1]).unwrap_err(),
            BindError::AngleCount {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn route_artifacts_need_every_rotation_exactly_once() {
        let (key, _) = route_key((0, 1), [0.25, -1.5]);
        let routed = |gates: Vec<Gate>| phoenix_router::RoutedCircuit {
            circuit: Circuit::from_gates(3, gates),
            num_swaps: 0,
            initial_layout: phoenix_router::Layout::trivial(3, 3),
            final_layout: phoenix_router::Layout::trivial(3, 3),
        };
        let gates = key.circuit().gates().to_vec();
        let twice = [gates.clone(), vec![gates[0].clone()]].concat();
        let missing = gates[..2].to_vec();
        let negated = vec![Gate::Rz(0, -2.0 * encode_slot(0)), gates[2].clone()];
        for (bad, slot) in [(twice, 0), (missing, 1), (negated, 0)] {
            assert_eq!(
                RouteArtifact::from_slot_encoded(routed(bad), 2, Vec::new()).unwrap_err(),
                DecodeError::SlotNotCopied { slot }
            );
        }
        assert!(RouteArtifact::from_slot_encoded(routed(gates), 2, Vec::new()).is_ok());
    }

    #[test]
    fn route_map_counts_evicts_races_and_clears() {
        let cache = CompileCache::with_capacity(2);
        let (a, _) = route_key((0, 1), [0.1, 0.2]);
        let (b, _) = route_key((1, 2), [0.1, 0.2]);
        let (c, _) = route_key((0, 2), [0.1, 0.2]);
        assert!(cache.get_route(&a).is_none());
        let first = cache.insert_route(a.clone(), route_artifact(&a));
        // A racing insert of the same key keeps the incumbent.
        let second = cache.insert_route(a.clone(), route_artifact(&a));
        assert!(Arc::ptr_eq(&first, &second));
        cache.insert_route(b.clone(), route_artifact(&b));
        // Touch `a` so `b` is the stalest when `c` goes over capacity.
        assert!(cache.get_route(&route_key((0, 1), [5.0, 6.0]).0).is_some());
        cache.insert_route(c.clone(), route_artifact(&c));
        assert_eq!(cache.num_routes(), 2);
        assert!(cache.get_route(&b).is_none());
        assert!(cache.get_route(&c).is_some());
        let stats = cache.stats();
        assert_eq!((stats.route_hits, stats.route_misses), (2, 2));
        assert_eq!(stats.evictions, 1);
        assert!((stats.route_hit_rate() - 0.5).abs() < 1e-12);

        cache.clear();
        assert_eq!(cache.num_routes(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let cache = CompileCache::with_capacity(0);
        assert_eq!(cache.max_entries(), Some(1));
        cache.insert_program(program_key(0), empty_program_artifact());
        assert_eq!(cache.num_programs(), 1);
        // Reinserting the same key is not an eviction.
        cache.insert_program(program_key(0), empty_program_artifact());
        assert_eq!(cache.stats().evictions, 0);
    }
}
