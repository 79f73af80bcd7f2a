//! `phoenix-serve`: the fault-tolerant compile service behind `phoenixd`.
//!
//! The PHOENIX pipeline already carries the robustness primitives a server
//! needs — typed [`PhoenixError`]s, per-pass panic containment,
//! `pass_budget` deadlines, cooperative [`CancelToken`]s, and per-request
//! metrics. This crate turns them into long-running infrastructure:
//!
//! - **[`protocol`]** — the strict line-delimited JSON wire format (frame
//!   size bounds, unknown-field rejection, line-numbered errors).
//! - **[`server`]** — a bounded worker pool with admission control that
//!   sheds load with typed `overloaded` replies, one deadline check at
//!   dispatch, client-initiated cancellation, per-request panic isolation
//!   with worker respawn, slow-client write timeouts, half-open connection
//!   reaping, and graceful drain on shutdown. Speaks TCP (`std::net` +
//!   scoped threads — no async runtime) and stdio. Nothing polls: every
//!   transport thread blocks on its own input until a shutdown wakes it,
//!   so an idle server takes no CPU.
//! - **[`client`]** — a blocking client with retry, exponential backoff and
//!   jitter on `overloaded`/transient I/O failures.
//!
//! A process-wide [`CompileCache`] (bounded via
//! [`CompileCache::with_capacity`]) is mounted across all workers, and
//! every successful reply carries the per-request metrics snapshot plus the
//! cache's running hit statistics.

#[deny(clippy::unwrap_used)]
pub mod client;
#[deny(clippy::unwrap_used)]
pub mod protocol;
#[deny(clippy::unwrap_used)]
pub mod server;

pub use client::{Client, RetryPolicy};
pub use protocol::{CompileSpec, ErrorKind, FleetSpec, Request};
pub use server::{ServeReport, Server, ServerConfig, ServerHandle};

use std::sync::Arc;
use std::time::Duration;

use phoenix_core::phoenix_cache::CompileCache;
use phoenix_core::{CancelToken, CompileRequest, PhoenixError, PhoenixOptions};
use phoenix_pauli::PauliString;
use serde_json::Value;

/// Executes one compile request against the pipeline, mapping the outcome
/// (success, typed failure, cancellation) onto its wire reply.
///
/// `budget` becomes the request's `pass_budget`, the wall-clock time left
/// for deepening (a server passes what remains of the deadline at
/// dispatch); lowering and routing run in full after it. The QoS tier
/// ([`deepening_rounds`]) is read from the requested `spec.deadline_ms`,
/// so it does not depend on how long the request queued. A `cancel` token
/// that has already fired answers `cancelled` without compiling, and one
/// that fires mid-compile answers `cancelled` at the compile's next poll,
/// with or without a budget. Requests without a budget take the cached
/// structure path when `cache` is mounted; budgeted requests
/// deterministically bypass it (time-boxed runs must not leak into a
/// shared cache).
pub fn execute_spec(
    spec: &CompileSpec,
    cache: Option<&Arc<CompileCache>>,
    cancel: Option<CancelToken>,
    budget: Option<Duration>,
) -> Value {
    #[cfg(feature = "sabotage")]
    if spec.sabotage == Some(protocol::Sabotage::Pass) {
        return sabotage_pass_reply(spec);
    }
    let (n, terms, deadline) = (spec.qubits, &spec.terms, spec.deadline_ms);
    let outcome = request_for(n, terms, spec.lookahead, deadline, cache, cancel, budget)
        .and_then(|request| request.target(spec.target.clone()).obs(true).run());
    match outcome {
        Ok(outcome) => {
            let stats = cache.map(|c| c.stats());
            protocol::ok_reply(spec.id, &outcome, stats.as_ref())
        }
        Err(err) => protocol::compile_error_reply(spec.id, &err),
    }
}

/// Executes one fleet request: compiles the program against every named
/// registry device in parallel and replies with the members ranked by
/// predicted fidelity. The budget and the cancel token apply to the fleet
/// as a whole — every member shares them, exactly as a single compile
/// would see them. An empty ranking with at least one member failure is
/// still an `ok` reply (the `failed` list tells the story); only a
/// whole-fleet error (e.g. cancellation) maps to an error reply.
pub fn execute_fleet_spec(
    spec: &FleetSpec,
    cache: Option<&Arc<CompileCache>>,
    cancel: Option<CancelToken>,
    budget: Option<Duration>,
) -> Value {
    let (n, terms, deadline) = (spec.qubits, &spec.terms, spec.deadline_ms);
    let outcome = request_for(n, terms, spec.lookahead, deadline, cache, cancel, budget)
        .and_then(|request| request.fleet(&spec.devices));
    match outcome {
        Ok(outcome) => {
            // A member abandoned by cancellation abandons the fleet reply
            // too — a partial ranking of a cancelled fleet would be
            // indistinguishable from a complete one.
            if let Some((_, err)) = outcome
                .failed
                .iter()
                .find(|(_, e)| matches!(e, PhoenixError::Cancelled))
            {
                return protocol::compile_error_reply(spec.id, err);
            }
            let stats = cache.map(|c| c.stats());
            protocol::fleet_ok_reply(spec.id, &outcome, stats.as_ref())
        }
        Err(err) => protocol::compile_error_reply(spec.id, &err),
    }
}

/// The request a compile or fleet spec runs as, or, for a spec cancelled
/// while it was queued, the typed error it replies with without compiling
/// at all. It keeps neither trace nor obs report: a fleet reply reads
/// neither, and a compile reply only the metrics, which
/// [`execute_spec`] asks for.
fn request_for(
    qubits: usize,
    terms: &[(PauliString, f64)],
    lookahead: Option<usize>,
    deadline_ms: Option<u64>,
    cache: Option<&Arc<CompileCache>>,
    cancel: Option<CancelToken>,
    budget: Option<Duration>,
) -> Result<CompileRequest, PhoenixError> {
    if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        return Err(PhoenixError::Cancelled);
    }
    let mut options = PhoenixOptions {
        pass_budget: budget,
        // Tiered QoS: map the requested deadline onto a logical deepening
        // cap so a roomier deadline buys a deeper (never worse) search even
        // when the wall clock would not have interrupted the shallow one.
        anytime_rounds: deadline_ms.map(|ms| deepening_rounds(Duration::from_millis(ms))),
        cancel,
        ..PhoenixOptions::default()
    };
    if let Some(lookahead) = lookahead {
        options.lookahead = lookahead;
    }
    let request = CompileRequest::new(qubits, terms).options(options);
    Ok(match cache {
        Some(cache) => request.cache(cache),
        None => request,
    })
}

/// Maps a requested deadline onto an anytime deepening cap: the QoS tiers
/// of `phoenixd` (under 10 ms → 2 rounds, under 100 ms → 4, under 1 s → 6,
/// from 1 s the full schedule). Tighter deadlines get a shallower logical
/// schedule — they would be wall-clock-truncated anyway, and capping the
/// rounds makes the quality tier deterministic instead of
/// machine-speed-dependent. The tier is that of the deadline the client
/// asked for, not of the time left when a worker picks the request up.
pub fn deepening_rounds(deadline: Duration) -> usize {
    match deadline.as_millis() {
        0..=9 => 2,
        10..=99 => 4,
        100..=999 => 6,
        _ => phoenix_core::MAX_ROUNDS,
    }
}

/// Compiles through a deliberately panicking pass, proving the pass
/// manager's containment: the panic surfaces as a typed `compile_error`
/// reply and the process lives.
#[cfg(feature = "sabotage")]
fn sabotage_pass_reply(spec: &CompileSpec) -> Value {
    use phoenix_core::{CompileContext, Pass, PassError, PassManager};

    struct PanickingPass;
    impl Pass for PanickingPass {
        fn name(&self) -> &str {
            "sabotage-panic"
        }
        fn run(&self, _ctx: &mut CompileContext) -> Result<(), PassError> {
            panic!("sabotage: injected pass panic");
        }
    }

    let mut ctx = CompileContext::new(spec.qubits, &spec.terms);
    match PassManager::new().with(PanickingPass).run(&mut ctx) {
        Err(e) => protocol::compile_error_reply(spec.id, &PhoenixError::from(e)),
        Ok(_) => protocol::error_reply(
            Some(spec.id),
            ErrorKind::CompileError,
            "sabotage pass unexpectedly succeeded",
            None,
            None,
        ),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn zero_deadline_still_produces_a_valid_truncated_compile() {
        // Without the server's dispatch check, a zero deadline is only a
        // zero pass budget, which truncates optimization but still returns
        // a valid circuit.
        let frame = r#"{"op":"compile","id":2,"qubits":2,"terms":[["ZZ",0.3]],"deadline_ms":0}"#;
        let Ok(Request::Compile(spec)) = protocol::parse_request(frame, 1) else {
            panic!("not a compile frame: {frame}");
        };
        let budget = spec.deadline_ms.map(Duration::from_millis);
        assert_eq!(budget, Some(Duration::ZERO));
        let reply = execute_spec(&spec, None, None, budget);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
        assert!(reply.get("gates").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn pre_cancelled_spec_replies_cancelled_without_compiling() {
        let spec = CompileSpec {
            id: 5,
            qubits: 2,
            terms: vec![("ZZ".parse().unwrap(), 0.1)],
            target: phoenix_core::Target::Logical,
            deadline_ms: None,
            lookahead: None,
            #[cfg(feature = "sabotage")]
            sabotage: None,
        };
        let token = CancelToken::new();
        token.cancel();
        let reply = execute_spec(&spec, None, Some(token), None);
        assert_eq!(reply.get("kind").unwrap().as_str(), Some("cancelled"));
    }
}
