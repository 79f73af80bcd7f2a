//! `parse_request` and `render` pinned against the `Value`-tree decoder
//! and writer they replaced.
//!
//! The reference is the previous `parse_request` with its helpers, kept
//! verbatim but for two changes the decoder made after it: a `lookahead` or
//! `deadline_ms` member that is not an integer in `0..=i64::MAX` is
//! rejected (checked after `terms`, `lookahead` first) instead of read as
//! absent, and an `id` or `qubits` member that is not one is rejected as
//! ill-typed where a missing one is rejected, instead of as missing. It
//! runs over the previous recursive JSON parser and writer and the
//! previous one-qubit-at-a-time Pauli label parser (also verbatim, but for
//! building the label error's text itself). Device specs resolve through
//! today's `DeviceRegistry` on both sides. For every generated frame and
//! every mutation of it, an `Ok` request must print the same `Debug` text
//! with bit-identical coefficients, and an `Err` reply must render to the
//! same bytes. Inputs stay within nesting depth 128 and `MAX_QUBITS`-wide
//! labels, beyond which the reference overflows its stack or panics.
//!
//! Run more cases with `PROPTEST_CASES=1024 cargo test --release -p
//! phoenix-serve --test protocol_equivalence`.

#![allow(clippy::unwrap_used)]

use phoenix_core::DeviceRegistry;
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Pauli, PauliString};
use phoenix_serve::protocol::{
    self, parse_request, render, DeviceTable, Request, DEVICE_TABLE_BOUND,
};
use proptest::prelude::*;
use serde_json::Value;

/// The previous vendored `serde_json`: a recursive parser with no depth
/// bound, and a writer that copies its input tree first.
#[allow(dead_code)]
mod json {
    use serde::{Content, Deserialize, Serialize};
    use std::fmt;

    /// The generic JSON value — an alias for the serde stub's content tree
    /// (`Null` / `Bool` / `Int` / `Float` / `Str` / `Seq` / `Map`).
    pub type Value = Content;

    /// Serialization or parse error.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "json error: {}", self.0)
        }
    }

    impl std::error::Error for Error {}

    /// Converts any serializable value into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Infallible in this stub (kept in the signature for serde_json parity).
    pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
        Ok(value.to_content())
    }

    /// Reconstructs a typed value from a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns an error when the tree's shape does not match `T`.
    pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
        T::from_content(value).map_err(Error)
    }

    /// Serializes a value to compact JSON.
    ///
    /// # Errors
    ///
    /// Infallible in this stub (kept in the signature for serde_json parity).
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
        let mut out = String::new();
        write_json(&value.to_content(), None, 0, &mut out);
        Ok(out)
    }

    /// Serializes a value to pretty-printed JSON (two-space indent).
    ///
    /// # Errors
    ///
    /// Infallible in this stub (kept in the signature for serde_json parity).
    pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
        let mut out = String::new();
        write_json(&value.to_content(), Some(2), 0, &mut out);
        Ok(out)
    }

    /// Parses JSON text into a typed value.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or a shape mismatch with `T`.
    pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        from_value(&v)
    }

    fn write_json(v: &Value, indent: Option<usize>, level: usize, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => write_float(*f, out),
            Value::Str(s) => write_string(s, out),
            Value::Seq(items) => {
                write_seq('[', ']', items.iter(), indent, level, out, |v, out, lvl| {
                    write_json(v, indent, lvl, out)
                })
            }
            Value::Map(entries) => write_seq(
                '{',
                '}',
                entries.iter(),
                indent,
                level,
                out,
                |(k, v), out, lvl| {
                    write_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_json(v, indent, lvl, out);
                },
            ),
        }
    }

    fn write_seq<T>(
        open: char,
        close: char,
        items: impl ExactSizeIterator<Item = T>,
        indent: Option<usize>,
        level: usize,
        out: &mut String,
        mut write_item: impl FnMut(T, &mut String, usize),
    ) {
        out.push(open);
        let len = items.len();
        for (i, item) in items.enumerate() {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * (level + 1)));
            }
            write_item(item, out, level + 1);
            if i + 1 < len {
                out.push(',');
            }
        }
        if len > 0 {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * level));
            }
        }
        out.push(close);
    }

    /// Floats print via Rust's shortest round-trip formatting, with a decimal
    /// point forced so the text re-parses as a float (JSON has no float/int
    /// type distinction; this keeps `parse(print(x)) == x` on the stub's
    /// tagged model). Non-finite values become `null`, as in serde_json.
    fn write_float(f: f64, out: &mut String) {
        if !f.is_finite() {
            out.push_str("null");
            return;
        }
        let s = f.to_string();
        let needs_dot = !s.contains(['.', 'e', 'E']);
        out.push_str(&s);
        if needs_dot {
            out.push_str(".0");
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error(format!(
                    "expected '{}' at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                other => Err(Error(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                ))),
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| Error(e.to_string()))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self
                            .peek()
                            .ok_or_else(|| Error("unterminated escape".into()))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error("truncated \\u escape".into()))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                                    16,
                                )
                                .map_err(|e| Error(e.to_string()))?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => {
                                return Err(Error(format!("bad escape '\\{}'", other as char)))
                            }
                        }
                    }
                    _ => return Err(Error("unterminated string".into())),
                }
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut is_float = false;
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| Error(e.to_string()))?;
            if is_float {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|e| Error(format!("bad number {text:?}: {e}")))
            } else {
                // Integers overflowing i64 fall back to f64, as serde_json's
                // arbitrary-precision mode would.
                text.parse::<i64>()
                    .map(Value::Int)
                    .or_else(|_| text.parse::<f64>().map(Value::Float))
                    .map_err(|e| Error(format!("bad number {text:?}: {e}")))
            }
        }
    }
}

/// The previous `PauliString::from_str`, with its error text.
fn parse_label(s: &str) -> Result<PauliString, String> {
    let mut out = PauliString::identity(s.chars().count());
    for (q, c) in s.chars().enumerate() {
        let p = Pauli::from_char(c)
            .ok_or_else(|| format!("invalid pauli character {c:?}; expected one of I, X, Y, Z"))?;
        out.set(q, p);
    }
    Ok(out)
}

/// The previous `parse_request` and its helpers, with ill-typed optional
/// counts rejected.
mod reference {
    use phoenix_core::{DeviceRegistry, Target};
    use phoenix_pauli::PauliString;
    #[cfg(feature = "sabotage")]
    use phoenix_serve::protocol::Sabotage;
    use phoenix_serve::protocol::{error_reply, CompileSpec, ErrorKind, FleetSpec, Request};
    use serde_json::Value;

    fn invalid(id: Option<u64>, line: u64, message: &str) -> Value {
        error_reply(id, ErrorKind::InvalidRequest, message, Some(line), None)
    }

    fn get_u64(map: &Value, key: &str) -> Option<u64> {
        map.get(key).and_then(Value::as_u64)
    }

    /// An optional count: absent, or an integer. Unlike [`get_u64`], a
    /// member of any other type is an error rather than absent.
    fn get_count(map: &Value, key: &str) -> Result<Option<u64>, String> {
        map.get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("`{key}` must be an integer from 0 to {}", i64::MAX))
            })
            .transpose()
    }

    /// A required count: absent is missing, and any other type an error.
    fn get_required(map: &Value, key: &str) -> Result<u64, String> {
        get_count(map, key)?.ok_or_else(|| format!("missing `{key}`"))
    }

    /// Rejects any key outside `allowed`, naming the first offender.
    fn check_fields(map: &Value, allowed: &[&str]) -> Result<(), String> {
        let Value::Map(pairs) = map else {
            return Err("request frame must be a JSON object".to_string());
        };
        for (k, _) in pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown field `{k}`"));
            }
        }
        Ok(())
    }

    fn parse_target(value: Option<&Value>) -> Result<Target, String> {
        let Some(value) = value else {
            return Ok(Target::Logical);
        };
        let Some(s) = value.as_str() else {
            return Err("`target` must be a string".to_string());
        };
        match s {
            "logical" => Ok(Target::Logical),
            "cnot" => Ok(Target::Cnot),
            "su4" => Ok(Target::Su4),
            "cnot-kak" => Ok(Target::CnotViaKak),
            // Anything else is a device spec, resolved through the registry so
            // unknown names and malformed sizes get its typed diagnostics.
            spec => DeviceRegistry::new()
                .build(spec)
                .map(Target::Device)
                .map_err(|e| format!("`target`: {e}")),
        }
    }

    /// Parses the `devices` field of a fleet frame: a non-empty array of
    /// registry specs, each resolved through the [`DeviceRegistry`]. Errors
    /// name the offending entry (`devices[i]: ...`).
    fn parse_devices(value: Option<&Value>) -> Result<Vec<phoenix_core::Device>, String> {
        let entries = value
            .and_then(Value::as_array)
            .ok_or("`devices` must be an array of device-spec strings")?;
        if entries.is_empty() {
            return Err("`devices` must name at least one device".to_string());
        }
        let registry = DeviceRegistry::new();
        let mut devices = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let spec = entry
                .as_str()
                .ok_or_else(|| format!("devices[{i}] must be a device-spec string"))?;
            let device = registry
                .build(spec)
                .map_err(|e| format!("devices[{i}]: {e}"))?;
            devices.push(device);
        }
        Ok(devices)
    }

    fn parse_terms(value: Option<&Value>) -> Result<Vec<(PauliString, f64)>, String> {
        let entries = value
            .and_then(Value::as_array)
            .ok_or("`terms` must be an array of [pauli-string, coefficient] pairs")?;
        let mut terms = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let pair = entry
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("terms[{i}] must be a [string, number] pair"))?;
            let label = pair[0]
                .as_str()
                .ok_or_else(|| format!("terms[{i}][0] must be a Pauli string"))?;
            let pauli: PauliString =
                super::parse_label(label).map_err(|e| format!("terms[{i}]: {e}"))?;
            let coeff = pair[1]
                .as_f64()
                .ok_or_else(|| format!("terms[{i}][1] must be a number"))?;
            terms.push((pauli, coeff));
        }
        Ok(terms)
    }

    #[cfg(feature = "sabotage")]
    fn parse_sabotage(value: Option<&Value>) -> Result<Option<Sabotage>, String> {
        match value.map(|v| v.as_str()) {
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
    pub fn parse_request(frame: &str, line_no: u64) -> Result<Request, Value> {
        let value: Value = super::json::from_str(frame)
            .map_err(|e| invalid(None, line_no, &format!("malformed JSON: {e}")))?;
        if !matches!(value, Value::Map(_)) {
            return Err(invalid(
                None,
                line_no,
                "request frame must be a JSON object",
            ));
        }
        // A cancel frame is its own single-field object.
        if value.get("cancel").is_some() {
            check_fields(&value, &["cancel"]).map_err(|m| invalid(None, line_no, &m))?;
            let id = get_u64(&value, "cancel")
                .ok_or_else(|| invalid(None, line_no, "`cancel` must be a request id"))?;
            return Ok(Request::Cancel { id });
        }
        let op = value
            .get("op")
            .map(|v| v.as_str().unwrap_or(""))
            .unwrap_or("compile");
        let id = get_u64(&value, "id");
        match op {
            "ping" | "stats" => {
                check_fields(&value, &["op", "id"]).map_err(|m| invalid(id, line_no, &m))?;
                let id = get_required(&value, "id").map_err(|m| invalid(None, line_no, &m))?;
                Ok(match op {
                    "ping" => Request::Ping { id },
                    _ => Request::Stats { id },
                })
            }
            "compile" => {
                #[cfg(not(feature = "sabotage"))]
                const ALLOWED: &[&str] = &[
                    "op",
                    "id",
                    "qubits",
                    "terms",
                    "target",
                    "deadline_ms",
                    "lookahead",
                ];
                #[cfg(feature = "sabotage")]
                const ALLOWED: &[&str] = &[
                    "op",
                    "id",
                    "qubits",
                    "terms",
                    "target",
                    "deadline_ms",
                    "lookahead",
                    "sabotage",
                ];
                check_fields(&value, ALLOWED).map_err(|m| invalid(id, line_no, &m))?;
                let id = get_required(&value, "id").map_err(|m| invalid(None, line_no, &m))?;
                let qubits = get_required(&value, "qubits")
                    .map_err(|m| invalid(Some(id), line_no, &m))?
                    as usize;
                let terms =
                    parse_terms(value.get("terms")).map_err(|m| invalid(Some(id), line_no, &m))?;
                let lookahead = get_count(&value, "lookahead")
                    .map_err(|m| invalid(Some(id), line_no, &m))?
                    .map(|l| l as usize);
                let deadline_ms =
                    get_count(&value, "deadline_ms").map_err(|m| invalid(Some(id), line_no, &m))?;
                let target = parse_target(value.get("target"))
                    .map_err(|m| invalid(Some(id), line_no, &m))?;
                #[cfg(feature = "sabotage")]
                let sabotage = parse_sabotage(value.get("sabotage"))
                    .map_err(|m| invalid(Some(id), line_no, &m))?;
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
            "fleet" => {
                const ALLOWED: &[&str] = &[
                    "op",
                    "id",
                    "qubits",
                    "terms",
                    "devices",
                    "deadline_ms",
                    "lookahead",
                ];
                check_fields(&value, ALLOWED).map_err(|m| invalid(id, line_no, &m))?;
                let id = get_required(&value, "id").map_err(|m| invalid(None, line_no, &m))?;
                let qubits = get_required(&value, "qubits")
                    .map_err(|m| invalid(Some(id), line_no, &m))?
                    as usize;
                let terms =
                    parse_terms(value.get("terms")).map_err(|m| invalid(Some(id), line_no, &m))?;
                let lookahead = get_count(&value, "lookahead")
                    .map_err(|m| invalid(Some(id), line_no, &m))?
                    .map(|l| l as usize);
                let deadline_ms =
                    get_count(&value, "deadline_ms").map_err(|m| invalid(Some(id), line_no, &m))?;
                let devices = parse_devices(value.get("devices"))
                    .map_err(|m| invalid(Some(id), line_no, &m))?;
                Ok(Request::Fleet(FleetSpec {
                    id,
                    qubits,
                    terms,
                    devices,
                    deadline_ms,
                    lookahead,
                }))
            }
            other => Err(invalid(id, line_no, &format!("unknown op `{other}`"))),
        }
    }
}

/// A decode as text two decoders can be compared by: an `Ok` request's
/// `Debug` with its coefficients' bits, or an `Err` reply's wire bytes.
fn describe(result: Result<Request, Value>, write: fn(&Value) -> String) -> String {
    match result {
        Ok(request) => {
            let terms = match &request {
                Request::Compile(spec) => &spec.terms[..],
                Request::Fleet(spec) => &spec.terms[..],
                _ => &[],
            };
            let bits: Vec<u64> = terms.iter().map(|(_, c)| c.to_bits()).collect();
            format!("Ok {request:?} {bits:?}")
        }
        Err(reply) => format!("Err {}", write(&reply)),
    }
}

fn decoded(frame: &str, line: u64) -> String {
    describe(parse_request(frame, line), render)
}

fn decoded_before(frame: &str, line: u64) -> String {
    describe(reference::parse_request(frame, line), |v| {
        json::to_string(v).unwrap()
    })
}

fn read_json(text: &str) -> String {
    match serde_json::from_str::<Value>(text) {
        Ok(v) => format!("Ok {v:?}"),
        Err(e) => format!("Err {e}"),
    }
}

fn read_json_before(text: &str) -> String {
    match json::from_str::<Value>(text) {
        Ok(v) => format!("Ok {v:?}"),
        Err(e) => format!("Err {e}"),
    }
}

/// Numbers for every numeric field: integers, floats, exponents, `-0`,
/// and values past `i64` and `f64`.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "-0",
    "-3",
    "1.0",
    "7.0",
    "0.5",
    "-0.0",
    "1e2",
    "1E+2",
    "2.5e-3",
    "-1.25E-2",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551616",
    "123456789012345678901234567890",
    "1e400",
    "-1e400",
    "4.9e-324",
];

/// Registry specs: the valid ones first.
const SPECS: &[&str] = &[
    "line:4",
    "grid:2x3",
    "ring:5",
    "ion-trap:4",
    "heavy-hex:1x2",
    "falcon27",
    "line:4@su4",
    "grid:2x2@kak",
    " line:3 ",
    "line:3",
    // Invalid from here on.
    "torus:9",
    "grid:4",
    "grid:4x",
    "line:0",
    "line:99999999",
    "grid:4096x4096",
    "heavy-hex:4096x4096",
    "ion-trap:4096",
    "line:6@pulse",
    "banana",
    "",
];

const VALID_SPECS: usize = 10;

/// Non-device targets: the valid ones first.
const TARGETS: &[&str] = &["logical", "cnot", "su4", "cnot-kak", "Cnot", "device"];
const VALID_TARGETS: usize = 4;

const STRAY_KEYS: &[&str] = &[
    "bogus", "Op", "id ", "cancel", "terms", "target", "devices", "sabotage", "qubits", "",
];

const NOISE: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '0', '1', '-', '.', 'e', 'E', '+', 'x', 'Z', 'u', 'n',
    't', ' ', '\n', '\u{0}', 'é',
];

/// Random request frames and their mutations. Half the frames are
/// `clean`: every member well typed and valid, so they decode to requests
/// and their duplicate keys and number forms are compared on `Ok` values.
struct Gen {
    rng: Xoshiro256,
    clean: bool,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let clean = rng.next_below(2) == 0;
        Gen { rng, clean }
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'p>(&mut self, items: &[&'p str]) -> &'p str {
        items[self.below(items.len())]
    }

    /// Whitespace between tokens: mostly none, sometimes JSON whitespace,
    /// rarely a space JSON does not allow.
    fn ws(&mut self) -> &'static str {
        match self.below(16) {
            0 => " ",
            1 => "\n  ",
            2 => "\t",
            3 => " \r\n",
            4 if self.one_in(16) => "\u{a0}",
            _ => "",
        }
    }

    /// `raw` as a JSON string, escaping what must be and, now and then, a
    /// letter (`\u0058` for `X`).
    fn string(&mut self, raw: &str) -> String {
        let mut out = String::from("\"");
        for c in raw.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '/' if self.one_in(2) => out.push_str("\\/"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c if c.is_ascii_alphanumeric() && self.one_in(12) => {
                    if self.one_in(2) {
                        out.push_str(&format!("\\u{:04X}", c as u32));
                    } else {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(&mut self) -> String {
        match self.below(3) {
            0 => self.pick(NUMBERS).to_string(),
            1 => format!("{:?}", self.rng.next_range_f64(-2.0, 2.0)),
            _ => self.below(20).to_string(),
        }
    }

    fn text(&mut self) -> String {
        let pool = [
            "a", "Z", "op", "\"", "\\", "\n", "\t", "\u{1}", "é", "😀", " ", "/",
        ];
        (0..self.below(5))
            .map(|_| pool[self.below(pool.len())])
            .collect()
    }

    fn array(&mut self, items: Vec<String>) -> String {
        let mut out = String::from("[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.ws());
            out.push_str(item);
            out.push_str(self.ws());
        }
        out.push(']');
        out
    }

    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(self.ws());
            let key = self.string(key);
            out.push_str(&key);
            out.push_str(self.ws());
            out.push(':');
            out.push_str(self.ws());
            out.push_str(value);
            out.push_str(self.ws());
        }
        out.push('}');
        out
    }

    /// Any JSON value, nested at most four deep below `depth`.
    fn value(&mut self, depth: usize) -> String {
        match self.below(if depth >= 4 { 5 } else { 7 }) {
            0 => "null".to_string(),
            1 => "true".to_string(),
            2 => "false".to_string(),
            3 => self.number(),
            4 => {
                let text = self.text();
                self.string(&text)
            }
            5 => {
                let items = (0..self.below(4)).map(|_| self.value(depth + 1)).collect();
                self.array(items)
            }
            _ => {
                let members: Vec<(String, String)> = (0..self.below(4))
                    .map(|_| (self.text(), self.value(depth + 1)))
                    .collect();
                self.object(&members)
            }
        }
    }

    /// A Pauli label, sometimes with a character outside `IXYZ`.
    fn label(&mut self) -> String {
        const LETTERS: [char; 8] = ['I', 'X', 'Y', 'Z', 'i', 'x', 'y', 'z'];
        const BAD: [char; 7] = ['Q', 'é', '😀', ' ', '\n', '0', '\u{0}'];
        let mut label: Vec<char> = (0..self.below(7))
            .map(|_| LETTERS[self.below(LETTERS.len())])
            .collect();
        if !self.clean && self.one_in(8) {
            let at = self.below(label.len() + 1);
            label.insert(at, BAD[self.below(BAD.len())]);
        }
        label.into_iter().collect()
    }

    fn term(&mut self) -> String {
        let label = self.label();
        let label = self.string(&label);
        let coeff = match self.below(8) {
            0 if !self.clean => self.value(2),
            _ => self.number(),
        };
        if self.clean {
            return self.array(vec![label, coeff]);
        }
        match self.below(16) {
            0 => self.array(vec![label]),
            1 => "[]".to_string(),
            2 => {
                let extra = self.value(2);
                self.array(vec![label, coeff, extra])
            }
            3 => self.value(2),
            4 => {
                let first = self.value(2);
                self.array(vec![first, coeff])
            }
            _ => self.array(vec![label, coeff]),
        }
    }

    fn terms(&mut self) -> String {
        if !self.clean && self.one_in(12) {
            return self.value(1);
        }
        let items = (0..self.below(5)).map(|_| self.term()).collect();
        self.array(items)
    }

    fn spec(&mut self) -> String {
        let specs = if self.clean {
            &SPECS[..VALID_SPECS]
        } else {
            SPECS
        };
        let spec = self.pick(specs);
        self.string(spec)
    }

    fn target(&mut self) -> String {
        match self.below(8) {
            0 if !self.clean => self.value(1),
            0..=3 => {
                let targets = if self.clean {
                    &TARGETS[..VALID_TARGETS]
                } else {
                    TARGETS
                };
                let target = self.pick(targets);
                self.string(target)
            }
            _ => self.spec(),
        }
    }

    fn devices(&mut self) -> String {
        if !self.clean && self.one_in(10) {
            return self.value(1);
        }
        let len = self.below(4) + usize::from(self.clean);
        let items = (0..len)
            .map(|_| {
                if !self.clean && self.one_in(10) {
                    self.value(2)
                } else {
                    self.spec()
                }
            })
            .collect();
        self.array(items)
    }

    /// An id, width, deadline or lookahead: mostly a small integer.
    fn count(&mut self) -> String {
        if self.clean {
            let valid = ["0", "-0", "42", "9223372036854775807"];
            return match self.below(8) {
                0 => self.pick(&valid).to_string(),
                _ => self.below(100).to_string(),
            };
        }
        match self.below(10) {
            0..=1 => self.pick(NUMBERS).to_string(),
            2 => self.value(2),
            _ => self.below(100).to_string(),
        }
    }

    fn op(&mut self, op: &str) -> String {
        if self.clean {
            return self.string(op);
        }
        match self.below(12) {
            0 => self.value(2),
            1 => {
                let op = self.pick(&["PING", "", "fleet ", "stat", "compile"]);
                self.string(op)
            }
            _ => self.string(op),
        }
    }

    /// A value for the member `key`.
    fn member(&mut self, key: &str) -> String {
        match key {
            "op" => {
                let op = self.pick(&["compile", "fleet", "ping", "stats"]);
                self.op(op)
            }
            "id" | "qubits" | "deadline_ms" | "lookahead" | "cancel" => self.count(),
            "terms" => self.terms(),
            "target" => self.target(),
            "devices" => self.devices(),
            _ => self.value(1),
        }
    }

    /// Adds `key` to `members` unless a one-in-`skip` draw leaves it out
    /// (which a clean frame does only for optional members).
    fn add(&mut self, members: &mut Vec<(String, String)>, key: &str, skip: usize) {
        let optional = matches!(key, "target" | "deadline_ms" | "lookahead");
        if (self.clean && !optional) || !self.one_in(skip) {
            let value = self.member(key);
            members.push((key.to_string(), value));
        }
    }

    /// A frame of every kind, with shuffled keys, and now and then a
    /// duplicate key, a stray key, a non-object or trailing bytes.
    fn frame(&mut self) -> String {
        if !self.clean && self.one_in(16) {
            return self.value(0);
        }
        let kind = self.pick(&["compile", "fleet", "cancel", "ping", "stats"]);
        let mut members: Vec<(String, String)> = Vec::new();
        if kind == "cancel" {
            self.add(&mut members, "cancel", 1000);
        } else {
            if kind != "compile" || !self.one_in(3) {
                let op = self.op(kind);
                members.push(("op".to_string(), op));
            }
            self.add(&mut members, "id", 10);
            if kind == "compile" || kind == "fleet" {
                self.add(&mut members, "qubits", 10);
                self.add(&mut members, "terms", 12);
                self.add(&mut members, "deadline_ms", 2);
                self.add(&mut members, "lookahead", 2);
            }
            if kind == "compile" {
                self.add(&mut members, "target", 2);
            }
            if kind == "fleet" {
                self.add(&mut members, "devices", 10);
            }
        }
        if !self.clean && self.one_in(8) {
            let key = self.pick(STRAY_KEYS);
            let value = self.member(key);
            members.push((key.to_string(), value));
        }
        self.rng.shuffle(&mut members);
        if self.one_in(3) && !members.is_empty() {
            let key = members[self.below(members.len())].0.clone();
            let value = self.member(&key);
            let at = self.below(members.len() + 1);
            members.insert(at, (key, value));
        }
        let (lead, tail) = (self.ws(), self.ws());
        let mut frame = format!("{lead}{}{tail}", self.object(&members));
        if !self.clean && self.one_in(30) {
            frame.push_str(self.pick(&["x", "{}", ",", "0"]));
        }
        frame
    }

    /// Every truncation of `frame`, then single-character replacements,
    /// deletions and insertions at random positions.
    fn mutations(&mut self, frame: &str) -> Vec<String> {
        let mut out: Vec<String> = frame
            .char_indices()
            .map(|(i, _)| frame[..i].to_string())
            .collect();
        let chars: Vec<char> = frame.chars().collect();
        for _ in 0..32 {
            let mut edited = chars.clone();
            let at = self.below(edited.len() + 1);
            let noise = NOISE[self.below(NOISE.len())];
            match self.below(3) {
                0 if at < edited.len() => edited[at] = noise,
                1 if at < edited.len() => {
                    edited.remove(at);
                }
                _ => edited.insert(at, noise),
            }
            out.push(edited.into_iter().collect());
        }
        out
    }

    /// A reply-shaped tree: strings with quotes, backslashes, control
    /// characters and non-ASCII text, extreme integers, and floats
    /// including `-0.0`, subnormals and non-finite values.
    fn tree(&mut self, depth: usize) -> Value {
        const FLOATS: [f64; 12] = [
            -0.0,
            0.0,
            1e300,
            5e-324,
            2.0,
            -7.0,
            0.1,
            1e21,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match self.below(if depth >= 3 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.one_in(2)),
            2 => Value::Int(match self.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => self.rng.next_u64() as i64 >> self.below(64),
            }),
            3 => Value::Float(FLOATS[self.below(FLOATS.len())]),
            4 => Value::Float(f64::from_bits(self.rng.next_u64())),
            5 => Value::Str(self.text()),
            6 => Value::Seq((0..self.below(4)).map(|_| self.tree(depth + 1)).collect()),
            _ => Value::Map(
                (0..self.below(4))
                    .map(|_| (self.text(), self.tree(depth + 1)))
                    .collect(),
            ),
        }
    }
}

/// `v` as it reads back after writing: non-finite floats become `null`.
fn written(v: &Value) -> Value {
    match v {
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Seq(items) => Value::Seq(items.iter().map(written).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), written(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Every frame and every mutation of it decodes as before: the same
    /// request, or an error reply with the same bytes.
    #[test]
    fn frames_decode_as_before(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let frame = g.frame();
        let line = seed % 1000 + 1;
        prop_assert_eq!(decoded(&frame, line), decoded_before(&frame, line), "frame {:?}", frame);
        for text in g.mutations(&frame) {
            prop_assert_eq!(decoded(&text, line), decoded_before(&text, line), "frame {:?}", text);
        }
    }

    /// The reader under `from_str` parses every frame and mutation as the
    /// recursive parser did, error text and byte offset included.
    #[test]
    fn json_reads_as_before(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let frame = g.frame();
        prop_assert_eq!(read_json(&frame), read_json_before(&frame), "text {:?}", frame);
        for text in g.mutations(&frame) {
            prop_assert_eq!(read_json(&text), read_json_before(&text), "text {:?}", text);
        }
    }

    /// `render` writes what `to_string` wrote after copying the tree, and
    /// the text reads back.
    #[test]
    fn replies_render_as_before(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let tree = g.tree(0);
        let text = render(&tree);
        prop_assert_eq!(&text, &json::to_string(&tree).unwrap());
        prop_assert_eq!(
            serde_json::to_string_pretty(&tree).unwrap(),
            json::to_string_pretty(&tree).unwrap()
        );
        let back: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, written(&tree), "text {}", text);
    }
}

#[test]
fn extreme_numbers_render_as_before() {
    for v in [
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(-0.0),
        Value::Float(1e300),
        Value::Float(5e-324),
        Value::Float(3.0),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Str("\"\\\n\r\t\u{0}\u{1f}\u{7f}é😀".to_string()),
    ] {
        assert_eq!(render(&v), json::to_string(&v).unwrap(), "{v:?}");
    }
    assert_eq!(render(&Value::Float(-0.0)), "-0.0");
    assert_eq!(render(&Value::Float(f64::INFINITY)), "null");
}

/// Fixed frames for the rules the decoder must keep: escaped and
/// non-ASCII labels, the first of duplicate keys, `1.0` not being an
/// integer, and a syntax error winning over every field error.
#[test]
fn fixed_frames_decode_as_before() {
    for frame in [
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["\u0058Z",0.5]]}"#,
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["xz",1]]}"#,
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["Zé",0.5]]}"#,
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["Z\u00e9",0.5]]}"#,
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["Z\n",0.5]]}"#,
        r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",0.5],["Z😀",0.5]]}"#,
        r#"{"op":"compile","id":1.0,"qubits":2,"terms":[]}"#,
        r#"{"op":"compile","id":1,"id":"x","qubits":2,"terms":[["ZZ",-0.0]]}"#,
        r#"{"id":"x","op":"compile","id":3,"qubits":2,"terms":[["ZZ",1e400]]}"#,
        r#"{"op":"compile","id":1,"id":2,"qubits":2,"terms":[["ZZ",1]],"terms":7}"#,
        r#"{"op":"ping","id":1.0,"id":2}"#,
        r#"{"op":"compile","terms":[["QQ",1]],"bogus":1,"id":[}"#,
    ] {
        assert_eq!(decoded(frame, 1), decoded_before(frame, 1), "{frame}");
    }
}

#[test]
fn a_repeated_spec_resolves_to_a_freshly_built_device() {
    let registry = DeviceRegistry::new();
    for spec in ["grid:4x4", "falcon27", " line:5@su4 ", "ion-trap:6"] {
        let fresh = registry.build(spec).unwrap();
        let first = DeviceTable::global().resolve(spec).unwrap();
        let again = DeviceTable::global().resolve(spec).unwrap();
        assert_eq!(first, fresh, "{spec}");
        assert_eq!(again, fresh, "{spec}");
    }
    let frame = r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]],"target":"grid:4x4"}"#;
    for _ in 0..2 {
        let Ok(Request::Compile(spec)) = parse_request(frame, 1) else {
            panic!("a valid frame was rejected");
        };
        assert_eq!(
            spec.target,
            phoenix_core::Target::Device(registry.build("grid:4x4").unwrap())
        );
    }
}

#[test]
fn the_device_table_stops_at_its_bound_and_still_resolves() {
    let registry = DeviceRegistry::new();
    let table = DeviceTable::new();
    for n in 2..=200 {
        let spec = format!("line:{n}");
        assert_eq!(
            table.resolve(&spec).unwrap(),
            registry.build(&spec).unwrap()
        );
    }
    assert_eq!(table.len(), DEVICE_TABLE_BOUND);
    for n in [2, 100, 200] {
        let spec = format!("line:{n}");
        assert_eq!(
            table.resolve(&spec).unwrap(),
            registry.build(&spec).unwrap()
        );
    }
    assert_eq!(table.len(), DEVICE_TABLE_BOUND);
    // Failed builds are not kept.
    assert!(DeviceTable::new().resolve("torus:9").is_err());

    // The process-wide table behind `parse_request` is bounded the same
    // way, whatever other tests put in it.
    for n in 2..=200 {
        let frame = format!(
            r#"{{"op":"fleet","id":{n},"qubits":2,"terms":[["ZZ",1.0]],"devices":["line:{n}"]}}"#
        );
        let Ok(Request::Fleet(spec)) = parse_request(&frame, 1) else {
            panic!("a valid fleet frame was rejected");
        };
        assert_eq!(
            spec.devices,
            vec![registry.build(&format!("line:{n}")).unwrap()]
        );
    }
    assert_eq!(DeviceTable::global().len(), DEVICE_TABLE_BOUND);
    let _ = protocol::DEFAULT_MAX_FRAME_BYTES;
}
