//! The `phoenixd` wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one JSON object per request; the server answers
//! every frame it manages to read with exactly one typed reply (compile
//! requests additionally receive a `cancelling` acknowledgment frame when
//! cancelled). Parsing is *strict*: frames over the size bound, malformed
//! JSON, missing required fields, and unknown fields are all rejected with
//! a line-numbered `invalid_request`/`frame_too_large` error reply rather
//! than silently ignored — a server for adversarial clients cannot afford
//! lenient parsing that masks client bugs.
//!
//! Requests:
//!
//! ```json
//! {"op":"compile","id":1,"qubits":3,"terms":[["ZYY",0.1],["ZZY",0.1]],
//!  "target":"cnot","deadline_ms":2000,"lookahead":20}
//! {"op":"fleet","id":4,"qubits":3,"terms":[["ZYY",0.1]],
//!  "devices":["line:4","grid:2x3","ion-trap:4"]}
//! {"cancel": 1}
//! {"op":"ping","id":2}
//! {"op":"stats","id":3}
//! ```
//!
//! Replies carry `"status":"ok"|"error"|"cancelling"|"pong"|"stats"`;
//! error replies carry a machine-readable `"kind"` (see [`ErrorKind`]) and
//! `Overloaded` additionally a `retry_after_ms` hint. A `fleet` reply
//! lists its members ranked by predicted fidelity.
//!
//! Hardware targets and fleet members name devices through the
//! [`DeviceRegistry`]: `line:N`, `ring:N`, `grid:RxC`, `heavy-hex:RxL`,
//! `ion-trap:N` (plus the fixed presets), with an optional
//! `@cnot`/`@su4`/`@kak` native-ISA suffix.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use phoenix_core::pass::CircuitStats;
use phoenix_core::phoenix_cache::CacheStats;
use phoenix_core::{
    CompileOutcome, Device, DeviceRegistry, DeviceSpecError, FleetOutcome, PhoenixError, Target,
};
use phoenix_pauli::PauliString;
use serde_json::{Reader, Value};

/// Default per-frame size bound (bytes), chosen to admit multi-thousand-term
/// Hamiltonians while bounding a hostile client's memory leverage.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// The machine-readable failure class of an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, a missing/ill-typed field, or an unknown field.
    InvalidRequest,
    /// The frame exceeded the server's size bound.
    FrameTooLarge,
    /// Admission control shed the request; retry after `retry_after_ms`.
    Overloaded,
    /// The request was abandoned on an explicit client cancellation.
    Cancelled,
    /// The request's deadline had passed when a worker picked it up, so it
    /// was not compiled.
    DeadlineExceeded,
    /// Compilation failed with a typed [`PhoenixError`].
    CompileError,
    /// A worker panicked while serving the request (contained; the process
    /// lives and the worker was respawned).
    Panic,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// A cancel frame named an id with no in-flight request.
    NotFound,
}

impl ErrorKind {
    /// The stable snake_case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::FrameTooLarge => "frame_too_large",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::CompileError => "compile_error",
            ErrorKind::Panic => "panic",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::NotFound => "not_found",
        }
    }
}

/// Pass- or worker-level panic injection (the `sabotage` feature's modes).
#[cfg(feature = "sabotage")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Panic inside a pipeline pass: contained by the pass manager,
    /// surfaced as a typed `compile_error`.
    Pass,
    /// Panic in the worker thread outside the pipeline: contained by the
    /// worker supervisor, surfaced as a typed `panic` reply, worker
    /// respawned.
    Worker,
}

/// A fully parsed compile request.
#[derive(Debug, Clone)]
pub struct CompileSpec {
    /// Client-chosen request id; echoed in every reply frame.
    pub id: u64,
    /// Register width.
    pub qubits: usize,
    /// The Pauli program.
    pub terms: Vec<(PauliString, f64)>,
    /// Compilation target.
    pub target: Target,
    /// Wall-clock deadline, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Ordering-lookahead override.
    pub lookahead: Option<usize>,
    /// Panic injection mode (test builds only).
    #[cfg(feature = "sabotage")]
    pub sabotage: Option<Sabotage>,
}

/// A fully parsed fleet request: one program, many registry devices.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Client-chosen request id; echoed in every reply frame.
    pub id: u64,
    /// Register width.
    pub qubits: usize,
    /// The Pauli program.
    pub terms: Vec<(PauliString, f64)>,
    /// The fleet members, built from registry specs at parse time so an
    /// unknown device name fails fast with a line-numbered error.
    pub devices: Vec<Device>,
    /// Wall-clock deadline, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Ordering-lookahead override.
    pub lookahead: Option<usize>,
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a program.
    Compile(CompileSpec),
    /// Compile one program against a fleet of registry devices and rank
    /// by predicted fidelity.
    Fleet(FleetSpec),
    /// Abandon the in-flight compile with this id (same connection).
    Cancel {
        /// The id of the compile frame to abandon.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: u64,
    },
    /// Server counters snapshot.
    Stats {
        /// Echoed id.
        id: u64,
    },
}

/// Builds a JSON object [`Value`] from key/value pairs.
pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn int_val(i: u64) -> Value {
    Value::Int(i as i64)
}

/// Serializes a reply [`Value`] to its wire line (no trailing newline; the
/// writer appends it).
pub fn render(reply: &Value) -> String {
    serde_json::to_string(reply).unwrap_or_else(|_| {
        r#"{"status":"error","kind":"internal","message":"unserializable reply"}"#.to_string()
    })
}

/// An error reply. `id` is echoed when the offending frame carried one;
/// `line` is the 1-based frame number on the connection.
pub fn error_reply(
    id: Option<u64>,
    kind: ErrorKind,
    message: &str,
    line: Option<u64>,
    retry_after_ms: Option<u64>,
) -> Value {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id", int_val(id)));
    }
    pairs.push(("status", str_val("error")));
    pairs.push(("kind", str_val(kind.as_str())));
    pairs.push(("message", str_val(message)));
    if let Some(line) = line {
        pairs.push(("line", int_val(line)));
    }
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", int_val(ms)));
    }
    obj(pairs)
}

/// The acknowledgment frame for a cancel request.
pub fn cancelling_reply(id: u64) -> Value {
    obj(vec![("id", int_val(id)), ("status", str_val("cancelling"))])
}

/// The reply to a ping.
pub fn pong_reply(id: u64) -> Value {
    obj(vec![("id", int_val(id)), ("status", str_val("pong"))])
}

/// Cache statistics as a JSON object.
pub fn cache_stats_value(stats: &CacheStats) -> Value {
    obj(vec![
        ("program_hits", int_val(stats.program_hits)),
        ("program_misses", int_val(stats.program_misses)),
        ("group_hits", int_val(stats.group_hits)),
        ("group_misses", int_val(stats.group_misses)),
        ("route_hits", int_val(stats.route_hits)),
        ("route_misses", int_val(stats.route_misses)),
        ("evictions", int_val(stats.evictions)),
        ("program_hit_rate", Value::Float(stats.program_hit_rate())),
        ("group_hit_rate", Value::Float(stats.group_hit_rate())),
    ])
}

/// The success reply for a compile request: circuit shape, the per-request
/// metrics snapshot, and the shared cache's running statistics.
pub fn ok_reply(id: u64, outcome: &CompileOutcome, cache: Option<&CacheStats>) -> Value {
    let shape = CircuitStats::of(&outcome.circuit);
    let mut pairs = vec![
        ("id", int_val(id)),
        ("status", str_val("ok")),
        ("gates", int_val(shape.gates as u64)),
        ("cnot", int_val(shape.cnot as u64)),
        ("two_qubit", int_val(shape.two_qubit as u64)),
        ("depth", int_val(shape.depth as u64)),
        ("depth_2q", int_val(shape.depth_2q as u64)),
        ("num_groups", int_val(outcome.num_groups as u64)),
    ];
    if let Some(depth) = outcome.depth_reached {
        // Budgeted (anytime) compiles report how deep the deepening got —
        // the knob clients tune their deadline tiers by.
        pairs.push(("depth_reached", int_val(depth as u64)));
    }
    if let Some(report) = &outcome.obs {
        if let Ok(metrics) = serde_json::to_value(&report.metrics) {
            pairs.push(("metrics", metrics));
        }
    }
    if let Some(stats) = cache {
        pairs.push(("cache", cache_stats_value(stats)));
    }
    obj(pairs)
}

/// The success reply for a fleet request: members ranked by predicted
/// fidelity (best first), each with its circuit shape and routing cost,
/// plus any members that failed to compile.
pub fn fleet_ok_reply(id: u64, outcome: &FleetOutcome, cache: Option<&CacheStats>) -> Value {
    let ranked: Vec<Value> = outcome
        .ranked
        .iter()
        .map(|entry| {
            let shape = CircuitStats::of(&entry.outcome.circuit);
            let swaps = entry
                .outcome
                .hardware
                .as_ref()
                .map_or(0, |hw| hw.num_swaps as u64);
            obj(vec![
                ("device", str_val(entry.device.name())),
                ("fidelity", Value::Float(entry.fidelity)),
                ("isa", str_val(entry.device.isa().name())),
                ("two_qubit", int_val(shape.two_qubit as u64)),
                ("depth", int_val(shape.depth as u64)),
                ("swaps", int_val(swaps)),
            ])
        })
        .collect();
    let failed: Vec<Value> = outcome
        .failed
        .iter()
        .map(|(name, err)| {
            obj(vec![
                ("device", str_val(name)),
                ("error", str_val(&err.to_string())),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("id", int_val(id)),
        ("status", str_val("ok")),
        ("fleet", Value::Seq(ranked)),
    ];
    if !failed.is_empty() {
        pairs.push(("failed", Value::Seq(failed)));
    }
    if let Some(stats) = cache {
        pairs.push(("cache", cache_stats_value(stats)));
    }
    obj(pairs)
}

/// Maps a typed compile failure onto its wire reply.
pub fn compile_error_reply(id: u64, err: &PhoenixError) -> Value {
    let kind = match err {
        PhoenixError::Cancelled => ErrorKind::Cancelled,
        _ => ErrorKind::CompileError,
    };
    error_reply(Some(id), kind, &err.to_string(), None, None)
}

fn invalid(id: Option<u64>, line: u64, message: &str) -> Value {
    error_reply(id, ErrorKind::InvalidRequest, message, Some(line), None)
}

/// Most device specs the process-wide [`DeviceTable`] keeps. Specs past it
/// are built per frame, as they would be without the table.
pub const DEVICE_TABLE_BOUND: usize = 64;

/// Registry devices resolved by earlier frames, keyed by trimmed spec:
/// a frame naming a known spec clones its [`Device`] (a refcount bump)
/// instead of rebuilding its graph and noise profile. Insert-only, up to
/// [`DEVICE_TABLE_BOUND`] specs, so a client cycling through specs cannot
/// grow it; failed builds are never kept.
#[derive(Debug, Default)]
pub struct DeviceTable {
    devices: Mutex<HashMap<String, Device>>,
}

impl DeviceTable {
    /// An empty table.
    pub fn new() -> Self {
        DeviceTable::default()
    }

    /// The table every `parse_request` call resolves through.
    pub fn global() -> &'static DeviceTable {
        static TABLE: OnceLock<DeviceTable> = OnceLock::new();
        TABLE.get_or_init(DeviceTable::new)
    }

    /// The device `DeviceRegistry::new().build(spec)` builds, from the
    /// table when the trimmed spec is in it.
    ///
    /// # Errors
    ///
    /// The registry's typed error for an invalid spec.
    pub fn resolve(&self, spec: &str) -> Result<Device, DeviceSpecError> {
        let spec = spec.trim();
        if let Some(device) = self.lock().get(spec) {
            return Ok(device.clone());
        }
        let device = DeviceRegistry::new().build(spec)?;
        let mut devices = self.lock();
        if devices.len() < DEVICE_TABLE_BOUND {
            devices
                .entry(spec.to_string())
                .or_insert_with(|| device.clone());
        }
        Ok(device)
    }

    /// Number of specs held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no spec is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Device>> {
        self.devices.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

const TERMS_SHAPE: &str = "`terms` must be an array of [pauli-string, coefficient] pairs";
const DEVICES_SHAPE: &str = "`devices` must be an array of device-spec strings";

/// A member decoded without a syntax error: its value, or the field error
/// the frame is rejected with if this member is the one that decides.
type Decoded<T> = Result<T, String>;

/// A request frame after one pass: every key in order, and the first
/// occurrence of each protocol key, decoded (a later duplicate is read for
/// syntax only, as `Value::get` finds the first). Numbers follow
/// `Value::as_u64`/`as_f64`, and a member of the wrong type decodes to
/// what the reply for it needs. `None` marks an absent member.
#[derive(Default)]
struct Members<'a> {
    keys: Vec<Cow<'a, str>>,
    /// `""` when the member is not a string.
    op: Option<Cow<'a, str>>,
    id: Option<Option<u64>>,
    qubits: Option<Option<u64>>,
    deadline_ms: Option<Option<u64>>,
    lookahead: Option<Option<u64>>,
    cancel: Option<Option<u64>>,
    terms: Option<Decoded<Vec<(PauliString, f64)>>>,
    /// `Some(None)` when the member is not a string.
    target: Option<Option<Cow<'a, str>>>,
    /// `None` entries are not strings.
    devices: Option<Decoded<Vec<Option<Cow<'a, str>>>>>,
    #[cfg(feature = "sabotage")]
    sabotage: Option<Option<Cow<'a, str>>>,
}

impl<'a> Members<'a> {
    /// Reads a frame, or `None` if it is JSON but not an object. A syntax
    /// error anywhere in the frame is the error, whatever else is wrong.
    fn read(frame: &'a str) -> Result<Option<Self>, serde_json::Error> {
        let mut r = Reader::new(frame);
        if r.peek() != Some(b'{') {
            r.value()?;
            r.end()?;
            return Ok(None);
        }
        let mut m = Members::default();
        let mut key = r.begin_object()?;
        while let Some(k) = key {
            let r = &mut r;
            match &*k {
                "op" if m.op.is_none() => m.op = Some(read_str(r)?.unwrap_or_default()),
                "id" if m.id.is_none() => m.id = Some(r.value()?.as_u64()),
                "qubits" if m.qubits.is_none() => m.qubits = Some(r.value()?.as_u64()),
                "deadline_ms" if m.deadline_ms.is_none() => {
                    m.deadline_ms = Some(r.value()?.as_u64());
                }
                "lookahead" if m.lookahead.is_none() => m.lookahead = Some(r.value()?.as_u64()),
                "cancel" if m.cancel.is_none() => m.cancel = Some(r.value()?.as_u64()),
                "terms" if m.terms.is_none() => m.terms = Some(read_terms(r)?),
                "target" if m.target.is_none() => m.target = Some(read_str(r)?),
                "devices" if m.devices.is_none() => m.devices = Some(read_devices(r)?),
                #[cfg(feature = "sabotage")]
                "sabotage" if m.sabotage.is_none() => m.sabotage = Some(read_str(r)?),
                _ => {
                    r.value()?;
                }
            }
            m.keys.push(k);
            key = r.next_key()?;
        }
        r.end()?;
        Ok(Some(m))
    }

    /// Rejects any key outside `allowed`, naming the first offender.
    fn check_fields(&self, allowed: &[&str], id: Option<u64>, line_no: u64) -> Result<(), Value> {
        match self.keys.iter().find(|k| !allowed.contains(&k.as_ref())) {
            Some(k) => Err(invalid(id, line_no, &format!("unknown field `{k}`"))),
            None => Ok(()),
        }
    }

    /// The request, checking fields in the order the protocol defines:
    /// keys, `id`, `qubits`, `terms`, `lookahead`, `deadline_ms`, then
    /// `target` or `devices`.
    fn into_request(self, line_no: u64) -> Result<Request, Value> {
        // A cancel frame is its own single-field object.
        if let Some(cancel) = self.cancel {
            self.check_fields(&["cancel"], None, line_no)?;
            let id =
                cancel.ok_or_else(|| invalid(None, line_no, "`cancel` must be a request id"))?;
            return Ok(Request::Cancel { id });
        }
        let op = self.op.as_deref().unwrap_or("compile");
        let id = self.id.flatten();
        #[cfg(not(feature = "sabotage"))]
        const COMPILE: &[&str] = &[
            "op",
            "id",
            "qubits",
            "terms",
            "target",
            "deadline_ms",
            "lookahead",
        ];
        #[cfg(feature = "sabotage")]
        const COMPILE: &[&str] = &[
            "op",
            "id",
            "qubits",
            "terms",
            "target",
            "deadline_ms",
            "lookahead",
            "sabotage",
        ];
        const FLEET: &[&str] = &[
            "op",
            "id",
            "qubits",
            "terms",
            "devices",
            "deadline_ms",
            "lookahead",
        ];
        let allowed = match op {
            "ping" | "stats" => &["op", "id"][..],
            "compile" => COMPILE,
            "fleet" => FLEET,
            other => return Err(invalid(id, line_no, &format!("unknown op `{other}`"))),
        };
        self.check_fields(allowed, id, line_no)?;
        let id = required(self.id, "id").map_err(|m| invalid(None, line_no, &m))?;
        match op {
            "ping" => return Ok(Request::Ping { id }),
            "stats" => return Ok(Request::Stats { id }),
            _ => {}
        }
        let invalid = |message: String| invalid(Some(id), line_no, &message);
        let qubits = required(self.qubits, "qubits").map_err(invalid)? as usize;
        let terms = self
            .terms
            .unwrap_or_else(|| Err(TERMS_SHAPE.to_string()))
            .map_err(invalid)?;
        let lookahead = count(self.lookahead, "lookahead")
            .map_err(invalid)?
            .map(|l| l as usize);
        let deadline_ms = count(self.deadline_ms, "deadline_ms").map_err(invalid)?;
        if op == "fleet" {
            let specs = self
                .devices
                .unwrap_or_else(|| Err(DEVICES_SHAPE.to_string()))
                .map_err(&invalid)?;
            let devices = resolve_devices(&specs).map_err(invalid)?;
            return Ok(Request::Fleet(FleetSpec {
                id,
                qubits,
                terms,
                devices,
                deadline_ms,
                lookahead,
            }));
        }
        let target = resolve_target(self.target).map_err(invalid)?;
        #[cfg(feature = "sabotage")]
        let sabotage = parse_sabotage(self.sabotage).map_err(invalid)?;
        Ok(Request::Compile(CompileSpec {
            id,
            qubits,
            terms,
            target,
            deadline_ms,
            lookahead,
            #[cfg(feature = "sabotage")]
            sabotage,
        }))
    }
}

/// An optional count: absent, or an integer. A member of any other type is
/// rejected, never read as absent.
fn count(member: Option<Option<u64>>, name: &str) -> Decoded<Option<u64>> {
    let ill_typed = || format!("`{name}` must be an integer from 0 to {}", i64::MAX);
    member.map(|v| v.ok_or_else(ill_typed)).transpose()
}

/// A required count: a missing member and one of another type are each
/// rejected for what they are.
fn required(member: Option<Option<u64>>, name: &str) -> Decoded<u64> {
    count(member, name)?.ok_or_else(|| format!("missing `{name}`"))
}

/// A string member, or `None` (read for syntax only) for any other value.
fn read_str<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, serde_json::Error> {
    if r.peek() == Some(b'"') {
        r.string().map(Some)
    } else {
        r.value().map(|_| None)
    }
}

/// The `terms` array, straight into Pauli strings. After the first bad
/// entry, which the error names, the rest is read for syntax only.
fn read_terms(r: &mut Reader) -> Result<Decoded<Vec<(PauliString, f64)>>, serde_json::Error> {
    if r.peek() != Some(b'[') {
        r.value()?;
        return Ok(Err(TERMS_SHAPE.to_string()));
    }
    let mut terms = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        match read_term(r, terms.len())? {
            Ok(term) => terms.push(term),
            Err(message) => {
                while r.next_element()? {
                    r.value()?;
                }
                return Ok(Err(message));
            }
        }
        more = r.next_element()?;
    }
    Ok(Ok(terms))
}

/// Entry `i` of `terms`: exactly a `[label, number]` pair, checked in that
/// order (shape, label type, label, coefficient).
fn read_term(r: &mut Reader, i: usize) -> Result<Decoded<(PauliString, f64)>, serde_json::Error> {
    let not_a_pair = || Ok(Err(format!("terms[{i}] must be a [string, number] pair")));
    if r.peek() != Some(b'[') {
        r.value()?;
        return not_a_pair();
    }
    if !r.begin_array()? {
        return not_a_pair();
    }
    let label = read_str(r)?;
    if !r.next_element()? {
        return not_a_pair();
    }
    let coeff = r.value()?.as_f64();
    if r.next_element()? {
        r.value()?;
        while r.next_element()? {
            r.value()?;
        }
        return not_a_pair();
    }
    let Some(label) = label else {
        return Ok(Err(format!("terms[{i}][0] must be a Pauli string")));
    };
    let pauli = match label.parse::<PauliString>() {
        Ok(pauli) => pauli,
        Err(e) => return Ok(Err(format!("terms[{i}]: {e}"))),
    };
    Ok(coeff
        .map(|c| (pauli, c))
        .ok_or_else(|| format!("terms[{i}][1] must be a number")))
}

/// The `devices` array's entries; `None` entries are not strings.
fn read_devices<'a>(
    r: &mut Reader<'a>,
) -> Result<Decoded<Vec<Option<Cow<'a, str>>>>, serde_json::Error> {
    if r.peek() != Some(b'[') {
        r.value()?;
        return Ok(Err(DEVICES_SHAPE.to_string()));
    }
    let mut specs = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        specs.push(read_str(r)?);
        more = r.next_element()?;
    }
    Ok(Ok(specs))
}

fn resolve_target(target: Option<Option<Cow<str>>>) -> Result<Target, String> {
    let Some(target) = target else {
        return Ok(Target::Logical);
    };
    let Some(s) = target else {
        return Err("`target` must be a string".to_string());
    };
    match &*s {
        "logical" => Ok(Target::Logical),
        "cnot" => Ok(Target::Cnot),
        "su4" => Ok(Target::Su4),
        "cnot-kak" => Ok(Target::CnotViaKak),
        // Anything else is a device spec, resolved through the registry so
        // unknown names and malformed sizes get its typed diagnostics.
        spec => DeviceTable::global()
            .resolve(spec)
            .map(Target::Device)
            .map_err(|e| format!("`target`: {e}")),
    }
}

/// Resolves the `devices` of a fleet frame: a non-empty array of registry
/// specs. Errors name the offending entry (`devices[i]: ...`).
fn resolve_devices(specs: &[Option<Cow<str>>]) -> Result<Vec<Device>, String> {
    if specs.is_empty() {
        return Err("`devices` must name at least one device".to_string());
    }
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = spec
                .as_deref()
                .ok_or_else(|| format!("devices[{i}] must be a device-spec string"))?;
            DeviceTable::global()
                .resolve(spec)
                .map_err(|e| format!("devices[{i}]: {e}"))
        })
        .collect()
}

#[cfg(feature = "sabotage")]
fn parse_sabotage(value: Option<Option<Cow<str>>>) -> Result<Option<Sabotage>, String> {
    match value.as_ref().map(|v| v.as_deref()) {
        None => Ok(None),
        Some(Some("pass")) => Ok(Some(Sabotage::Pass)),
        Some(Some("worker")) => Ok(Some(Sabotage::Worker)),
        Some(_) => Err("`sabotage` must be \"pass\" or \"worker\"".to_string()),
    }
}

/// Parses one request frame. `line_no` is the 1-based frame number on the
/// connection, echoed into error replies so clients can pinpoint the
/// offending frame in a pipelined stream. On failure the returned `Err` is
/// a ready-to-send error reply.
///
/// The frame is decoded in one pass over its bytes, `terms` straight into
/// Pauli strings, and device specs resolve through [`DeviceTable::global`].
pub fn parse_request(frame: &str, line_no: u64) -> Result<Request, Value> {
    let members = Members::read(frame)
        .map_err(|e| invalid(None, line_no, &format!("malformed JSON: {e}")))?
        .ok_or_else(|| invalid(None, line_no, "request frame must be a JSON object"))?;
    members.into_request(line_no)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_compile_frame() {
        let r = parse_request(
            r#"{"op":"compile","id":7,"qubits":2,"terms":[["ZZ",0.1],["XX",-0.2]]}"#,
            1,
        )
        .unwrap();
        let Request::Compile(spec) = r else {
            panic!("expected compile")
        };
        assert_eq!(spec.id, 7);
        assert_eq!(spec.qubits, 2);
        assert_eq!(spec.terms.len(), 2);
        assert_eq!(spec.target, Target::Logical);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn rejects_unknown_fields_with_the_line_number() {
        let err = parse_request(
            r#"{"op":"compile","id":1,"qubits":1,"terms":[],"bogus":true}"#,
            42,
        )
        .unwrap_err();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("invalid_request"));
        assert_eq!(err.get("line").unwrap().as_u64(), Some(42));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bogus"));
    }

    #[test]
    fn rejects_malformed_json_and_non_objects() {
        assert!(parse_request("{not json", 1).is_err());
        assert!(parse_request("[1,2,3]", 1).is_err());
        assert!(parse_request("\"compile\"", 1).is_err());
    }

    #[test]
    fn rejects_bad_terms_and_targets() {
        let bad_pauli = parse_request(
            r#"{"op":"compile","id":1,"qubits":2,"terms":[["QQ",1.0]]}"#,
            1,
        )
        .unwrap_err();
        assert_eq!(
            bad_pauli.get("kind").unwrap().as_str(),
            Some("invalid_request")
        );
        let bad_target = parse_request(
            r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]],"target":"qpu9000"}"#,
            1,
        )
        .unwrap_err();
        assert!(bad_target
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("qpu9000"));
    }

    #[test]
    fn parses_cancel_ping_and_device_targets() {
        assert!(matches!(
            parse_request(r#"{"cancel":9}"#, 1).unwrap(),
            Request::Cancel { id: 9 }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"ping","id":3}"#, 1).unwrap(),
            Request::Ping { id: 3 }
        ));
        let r = parse_request(
            r#"{"op":"compile","id":1,"qubits":4,"terms":[["ZZII",0.3]],"target":"line:4"}"#,
            1,
        )
        .unwrap();
        let Request::Compile(spec) = r else {
            panic!("expected compile")
        };
        let Target::Device(dev) = spec.target else {
            panic!("expected a registry device target")
        };
        assert_eq!(dev.name(), "line:4");
        assert_eq!(dev.graph().num_qubits(), 4);
    }

    #[test]
    fn parses_a_fleet_frame_with_registry_devices() {
        let r = parse_request(
            r#"{"op":"fleet","id":5,"qubits":3,"terms":[["ZZI",0.3]],
                "devices":["line:4","grid:2x3","ion-trap:4","heavy-hex:1x2"]}"#,
            1,
        )
        .unwrap();
        let Request::Fleet(spec) = r else {
            panic!("expected fleet")
        };
        assert_eq!(spec.id, 5);
        assert_eq!(spec.devices.len(), 4);
        assert_eq!(spec.devices[2].name(), "ion-trap:4");
    }

    #[test]
    fn fleet_frames_reject_bad_devices_with_entry_and_line() {
        let err = parse_request(
            r#"{"op":"fleet","id":5,"qubits":3,"terms":[["ZZI",0.3]],
                "devices":["line:4","torus:9"]}"#,
            17,
        )
        .unwrap_err();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("invalid_request"));
        assert_eq!(err.get("line").unwrap().as_u64(), Some(17));
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("devices[1]"), "{msg}");
        assert!(msg.contains("torus:9"), "{msg}");

        let empty = parse_request(
            r#"{"op":"fleet","id":5,"qubits":3,"terms":[["ZZI",0.3]],"devices":[]}"#,
            1,
        )
        .unwrap_err();
        assert!(empty
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("at least one device"));
    }

    #[test]
    fn malformed_device_sizes_get_typed_messages() {
        let err = parse_request(
            r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]],"target":"grid:4"}"#,
            3,
        )
        .unwrap_err();
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("malformed device size"), "{msg}");
        assert_eq!(err.get("line").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn cancel_frames_admit_no_extra_fields() {
        assert!(parse_request(r#"{"cancel":1,"id":2}"#, 1).is_err());
    }

    #[test]
    fn hostile_frames_get_line_numbered_invalid_requests() {
        let nested = format!(
            r#"{{"op":"compile","id":1,"qubits":1,"terms":{}"#,
            "[".repeat(10_000)
        );
        let wide = format!(
            r#"{{"op":"compile","id":1,"qubits":1,"terms":[["{}",1.0]]}}"#,
            "Z".repeat(phoenix_pauli::MAX_QUBITS + 1)
        );
        let device =
            r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]],"target":"grid:4096x4096"}"#;
        let fleet =
            r#"{"op":"fleet","id":1,"qubits":2,"terms":[["ZZ",1.0]],"devices":["ion-trap:4096"]}"#;
        for (frame, needle) in [
            (nested.as_str(), "recursion limit exceeded"),
            (wide.as_str(), "terms[0]: pauli string of 65537 qubits"),
            (device, "`target`: malformed device size"),
            (fleet, "devices[0]: malformed device size"),
        ] {
            let err = parse_request(frame, 5).unwrap_err();
            assert_eq!(err.get("kind").unwrap().as_str(), Some("invalid_request"));
            assert_eq!(err.get("line").unwrap().as_u64(), Some(5));
            let msg = err.get("message").unwrap().as_str().unwrap();
            assert!(msg.contains(needle), "{msg}");
        }
    }

    #[test]
    fn frames_nest_up_to_the_reader_depth() {
        // The frame object is the first level.
        let depth = serde_json::MAX_DEPTH - 1;
        let frame = |d: usize| {
            format!(
                r#"{{"op":"ping","id":1,"x":{}{}}}"#,
                "[".repeat(d),
                "]".repeat(d)
            )
        };
        let err = parse_request(&frame(depth), 1).unwrap_err();
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert_eq!(msg, "unknown field `x`");
        let err = parse_request(&frame(depth + 1), 1).unwrap_err();
        let msg = err.get("message").unwrap().as_str().unwrap();
        assert!(msg.contains("recursion limit exceeded"), "{msg}");
    }

    #[test]
    fn error_replies_round_trip_through_json() {
        let v = error_reply(
            Some(4),
            ErrorKind::Overloaded,
            "queue full",
            None,
            Some(125),
        );
        let line = render(&v);
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(back.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(back.get("retry_after_ms").unwrap().as_u64(), Some(125));
    }
}
