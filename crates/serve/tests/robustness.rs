//! End-to-end robustness tests for `phoenixd`'s server core: adversarial
//! framing, overload shedding, deadlines, cancellation, disconnects,
//! graceful drain, and (behind `--features sabotage`) panic containment.
//!
//! Every test runs a real [`Server`] on an ephemeral TCP port with real
//! sockets — the same code path `phoenixd` ships.

#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phoenix_core::phoenix_obs::metrics::COUNTERS;
use phoenix_mathkit::Xoshiro256;
use phoenix_serve::{Client, RetryPolicy, ServeReport, Server, ServerConfig, ServerHandle};
use serde_json::Value;

fn start_server(config: ServerConfig) -> (ServerHandle, SocketAddr, JoinHandle<ServeReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(config);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run_tcp(listener));
    (handle, addr, join)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(&addr.to_string(), RetryPolicy::default()).unwrap()
}

/// `n` random non-identity terms over `qubits` qubits, their labels drawn
/// from `letters`, as the JSON array of a frame's `terms`.
fn random_terms(qubits: usize, n: usize, seed: u64, letters: &[char]) -> String {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut terms = Vec::with_capacity(n);
    loop {
        let label: String = (0..qubits)
            .map(|_| letters[rng.next_below(letters.len())])
            .collect();
        if label.bytes().all(|b| b == b'I') {
            continue;
        }
        terms.push(format!("[\"{label}\",{:.4}]", rng.next_f64() - 0.5));
        if terms.len() == n {
            break;
        }
    }
    format!("[{}]", terms.join(","))
}

/// A compile frame over `qubits` qubits with `n` random non-identity terms;
/// large `n` makes the compile slow enough to observe queued/running states.
fn compile_frame(id: u64, qubits: usize, n: usize, seed: u64) -> String {
    let terms = random_terms(qubits, n, seed, &['I', 'X', 'Y', 'Z']);
    format!(
        "{{\"op\":\"compile\",\"id\":{id},\"qubits\":{qubits},\"terms\":{terms},\"target\":\"cnot\"}}"
    )
}

fn kind(reply: &Value) -> Option<&str> {
    reply.get("kind").and_then(Value::as_str)
}

fn status(reply: &Value) -> &str {
    reply.get("status").and_then(Value::as_str).unwrap_or("")
}

/// A budgeted CNOT-target reply stays in the CNOT ISA: every 2Q gate is a
/// CNOT, whichever pass the deadline cut short.
fn assert_cnot_isa(reply: &Value) {
    let count = |k: &str| reply.get(k).and_then(Value::as_u64);
    assert!(count("cnot").is_some(), "reply: {reply:?}");
    assert_eq!(count("cnot"), count("two_qubit"), "reply: {reply:?}");
}

#[test]
fn compile_round_trip_reports_metrics_and_cache_hits() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let frame = compile_frame(1, 4, 6, 11);
    let first = client.request(1, &frame).unwrap();
    assert_eq!(status(&first), "ok", "reply: {first:?}");
    assert!(first.get("gates").and_then(Value::as_u64).unwrap() > 0);
    let counters = first
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_array)
        .expect("metrics snapshot missing");
    let counter = |name: &str| {
        let entry = counters
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name));
        entry.and_then(|c| c.get("value")).and_then(Value::as_u64)
    };
    // The reply counts the compile's passes, and lists no process-wide
    // counter, which no compile records.
    assert!(counter("passes_run").unwrap() > 0, "reply: {first:?}");
    for id in COUNTERS.iter().filter(|id| id.process_wide()) {
        assert_eq!(counter(id.name()), None, "reply: {first:?}");
    }
    // The identical structure again: the shared cache must register a hit.
    let second = client.request(2, &compile_frame(2, 4, 6, 11)).unwrap();
    assert_eq!(status(&second), "ok");
    let hits = second
        .get("cache")
        .and_then(|c| c.get("program_hits"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(hits >= 1, "expected a program cache hit, got {hits}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.worker_deaths, 0);
}

/// A compile frame for `terms` routed onto the registry device `target`.
fn device_frame(id: u64, qubits: usize, terms: &[(&str, f64)], target: &str) -> String {
    let terms: Vec<String> = terms
        .iter()
        .map(|(p, c)| format!("[\"{p}\",{c}]"))
        .collect();
    format!(
        "{{\"op\":\"compile\",\"id\":{id},\"qubits\":{qubits},\"terms\":[{}],\"target\":\"{target}\"}}",
        terms.join(",")
    )
}

fn route_hits(reply: &Value) -> u64 {
    reply
        .get("cache")
        .and_then(|c| c.get("route_hits"))
        .and_then(Value::as_u64)
        .unwrap()
}

#[test]
fn a_rebound_device_structure_reuses_its_routing() {
    const LABELS: [&str; 6] = ["ZZIIII", "IZZIII", "ZIIZII", "IXIIXI", "IIYIIY", "ZIIIIZ"];
    let coefficients = |scale: f64| -> Vec<(&str, f64)> {
        LABELS
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, scale * (0.1 + 0.05 * i as f64)))
            .collect()
    };
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let first = client
        .request(1, &device_frame(1, 6, &coefficients(1.0), "grid:2x3"))
        .unwrap();
    assert_eq!(status(&first), "ok", "reply: {first:?}");
    let rebound = device_frame(2, 6, &coefficients(-0.7), "grid:2x3");
    let second = client.request(2, &rebound).unwrap();
    assert_eq!(status(&second), "ok", "reply: {second:?}");
    assert_eq!(route_hits(&second), route_hits(&first) + 1);
    // The counts equal an uncached compile of the new coefficients.
    let Ok(phoenix_serve::Request::Compile(spec)) =
        phoenix_serve::protocol::parse_request(&rebound, 1)
    else {
        panic!("frame parses as a compile");
    };
    let uncached = phoenix_serve::execute_spec(&spec, None, None, None);
    assert_eq!(status(&uncached), "ok", "reply: {uncached:?}");
    for key in [
        "gates",
        "cnot",
        "two_qubit",
        "depth",
        "depth_2q",
        "num_groups",
    ] {
        assert_eq!(second.get(key), uncached.get(key), "{key}");
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.cache.route_hits, 1);
    assert_eq!(report.cache.route_misses, 1);
}

#[test]
fn torn_frames_are_reassembled_across_writes() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let frame = compile_frame(3, 3, 4, 22);
    let bytes = frame.as_bytes();
    let (a, rest) = bytes.split_at(7);
    let (b, c) = rest.split_at(rest.len() / 2);
    client.send_raw(a).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    client.send_raw(b).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    client.send_raw(c).unwrap();
    client.send_raw(b"\n").unwrap();
    let reply = client.wait_reply(3).unwrap();
    assert_eq!(status(&reply), "ok", "reply: {reply:?}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_frames_are_rejected_and_the_connection_survives() {
    let config = ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    // ~64 KiB of garbage on one line: rejected without buffering it all.
    let huge = "x".repeat(64 * 1024);
    client.send_line(&huge).unwrap();
    let reply: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
    assert_eq!(kind(&reply), Some("frame_too_large"));
    // Same connection still serves valid work.
    let ok = client.request(4, &compile_frame(4, 3, 3, 33)).unwrap();
    assert_eq!(status(&ok), "ok");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.oversized_frames, 1);
}

#[test]
fn malformed_frames_get_line_numbered_typed_errors() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    client.send_line("{this is not json").unwrap();
    client
        .send_line(r#"{"op":"compile","id":9,"qubits":1,"terms":[["Z",1.0]],"bogus":1}"#)
        .unwrap();
    let first: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
    let second: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
    assert_eq!(kind(&first), Some("invalid_request"));
    assert_eq!(first.get("line").and_then(Value::as_u64), Some(1));
    assert_eq!(kind(&second), Some("invalid_request"));
    assert_eq!(second.get("line").and_then(Value::as_u64), Some(2));
    assert!(second
        .get("message")
        .and_then(Value::as_str)
        .unwrap()
        .contains("bogus"));
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.invalid_frames, 2);
    assert_eq!(report.admitted, 0);
}

/// Sends `frame`, expects a line-numbered `invalid_request` whose message
/// contains `needle`, then checks the same connection still answers.
/// Returns the rejection.
fn assert_rejected_then_served(client: &mut Client, frame: &str, line: u64, needle: &str) -> Value {
    client.send_line(frame).unwrap();
    let reply: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
    assert_eq!(kind(&reply), Some("invalid_request"), "reply: {reply:?}");
    assert_eq!(reply.get("line").and_then(Value::as_u64), Some(line));
    let message = reply.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains(needle), "{message}");
    let pong = client.ping(1000 + line).unwrap();
    assert_eq!(status(&pong), "pong", "reply: {pong:?}");
    reply
}

#[test]
fn deeply_nested_frames_are_rejected_and_the_connection_survives() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let prefix = r#"{"op":"compile","id":1,"qubits":1,"terms":"#;
    // 10 000 levels in a 10 KB frame: enough to overflow a recursive parser.
    let nested = format!("{prefix}{}", "[".repeat(10_000));
    assert_rejected_then_served(&mut client, &nested, 1, "recursion limit exceeded");
    // Just under the 1 MiB frame bound.
    let bound = phoenix_serve::protocol::DEFAULT_MAX_FRAME_BYTES;
    let nested = format!("{prefix}{}", "[".repeat(bound - 1 - prefix.len()));
    assert_eq!(nested.len(), bound - 1);
    assert_rejected_then_served(&mut client, &nested, 3, "recursion limit exceeded");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.invalid_frames, 2);
    assert_eq!(report.oversized_frames, 0);
}

#[test]
fn over_wide_labels_are_rejected_and_the_connection_survives() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let width = phoenix_pauli::MAX_QUBITS + 1;
    let frame = format!(
        r#"{{"op":"compile","id":1,"qubits":1,"terms":[["Z",1.0],["{}",1.0]]}}"#,
        "Z".repeat(width)
    );
    assert_rejected_then_served(
        &mut client,
        &frame,
        1,
        &format!("terms[1]: pauli string of {width} qubits"),
    );
    handle.shutdown();
    assert_eq!(join.join().unwrap().invalid_frames, 1);
}

#[test]
fn oversized_devices_are_rejected_and_the_connection_survives() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let target = |spec: &str| {
        format!(r#"{{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]],"target":"{spec}"}}"#)
    };
    assert_rejected_then_served(
        &mut client,
        &target("grid:4096x4096"),
        1,
        "malformed device size",
    );
    assert_rejected_then_served(
        &mut client,
        &target("heavy-hex:4096x4096@su4"),
        3,
        "malformed device size",
    );
    let fleet = r#"{"op":"fleet","id":2,"qubits":2,"terms":[["ZZ",1.0]],"devices":["line:4","ion-trap:4096"]}"#;
    assert_rejected_then_served(&mut client, fleet, 5, "devices[1]: malformed device size");
    handle.shutdown();
    assert_eq!(join.join().unwrap().invalid_frames, 3);
}

#[test]
fn ill_typed_counts_are_rejected_and_the_connection_survives() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let members = [
        ("deadline_ms", r#""soon""#),
        ("deadline_ms", "-1"),
        ("deadline_ms", "2.5"),
        ("deadline_ms", "18446744073709551615"),
        ("lookahead", r#""x""#),
        ("id", r#""one""#),
        ("id", "-4"),
        ("qubits", r#""x""#),
        ("qubits", "2.0"),
        ("qubits", "-2"),
    ];
    for (line, (name, value)) in (1..).step_by(2).zip(members) {
        // The member comes first: a key's first occurrence is the one read.
        let frame = format!(
            r#"{{"{name}":{value},"op":"compile","id":1,"qubits":2,"terms":[["ZZ",1.0]]}}"#
        );
        let needle = format!("`{name}` must be an integer");
        let reply = assert_rejected_then_served(&mut client, &frame, line, &needle);
        // A reply names the request only once its `id` is known good.
        let id = (name != "id").then_some(1);
        assert_eq!(reply.get("id").and_then(Value::as_u64), id, "{reply:?}");
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.invalid_frames, 10);
    assert_eq!(report.admitted, 0);
}

#[test]
fn zero_capacity_queue_sheds_every_request_with_a_retry_hint() {
    let config = ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    let policy_bypass = 3; // send raw so the client doesn't retry the shed
    for id in 0..policy_bypass {
        client.send_line(&compile_frame(id, 2, 2, id + 1)).unwrap();
    }
    for _ in 0..policy_bypass {
        let reply: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
        assert_eq!(kind(&reply), Some("overloaded"), "reply: {reply:?}");
        let hint = reply.get("retry_after_ms").and_then(Value::as_u64).unwrap();
        assert!((10..=10_000).contains(&hint));
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.shed, policy_bypass);
    assert_eq!(report.admitted, 0);
}

#[test]
fn zero_deadline_is_deterministically_deadline_exceeded() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    for id in 10..13 {
        let frame = format!(
            "{{\"op\":\"compile\",\"id\":{id},\"qubits\":2,\"terms\":[[\"ZZ\",0.5]],\"deadline_ms\":0}}"
        );
        let reply = client.request(id, &frame).unwrap();
        assert_eq!(kind(&reply), Some("deadline_exceeded"), "reply: {reply:?}");
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.deadline_exceeded, 3);
    assert_eq!(report.completed, 3);
}

#[test]
fn queued_request_is_cancelled_by_the_client() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    // A large job pins the single worker; the victim queues behind it (the
    // queue is FIFO) and is cancelled at once. The cancel only has to win
    // against the large compile, not against a sleep, so a fast host
    // cannot finish the large job first.
    client.send_line(&compile_frame(100, 10, 400, 55)).unwrap();
    client.send_line(&compile_frame(101, 3, 3, 56)).unwrap();
    client.cancel(101).unwrap();
    let victim = client.wait_reply(101).unwrap();
    assert_eq!(kind(&victim), Some("cancelled"), "reply: {victim:?}");
    let big = client.wait_reply(100).unwrap();
    assert_eq!(status(&big), "ok", "reply: {big:?}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.cancelled, 1);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
}

#[test]
fn cancelling_an_unknown_id_is_a_typed_not_found() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    client.send_line("{\"cancel\":777}").unwrap();
    let reply: Value = serde_json::from_str(&client.recv_line().unwrap()).unwrap();
    assert_eq!(kind(&reply), Some("not_found"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn mid_compile_disconnect_frees_the_worker_and_the_server_survives() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    {
        let mut doomed = connect(addr);
        doomed.send_line(&compile_frame(200, 10, 400, 77)).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        // Hang up mid-compile: the server must cancel the abandoned work.
    }
    // A fresh client gets served promptly — the single worker was freed.
    let mut client = connect(addr);
    let pong = client.ping(201).unwrap();
    assert_eq!(status(&pong), "pong");
    let ok = client.request(202, &compile_frame(202, 3, 3, 78)).unwrap();
    assert_eq!(status(&ok), "ok");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.worker_deaths, 0);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
}

#[test]
fn graceful_drain_answers_every_admitted_request() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let n = 6;
    for id in 0..n {
        client
            .send_line(&compile_frame(id, 5, 12, 90 + id))
            .unwrap();
    }
    // Let the frames be read and admitted, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(60));
    handle.shutdown();
    let mut ok = 0u64;
    for id in 0..n {
        let reply = client.wait_reply(id).unwrap();
        match status(&reply) {
            "ok" => ok += 1,
            "error" => assert_eq!(kind(&reply), Some("shutting_down"), "reply: {reply:?}"),
            other => panic!("unexpected status {other}: {reply:?}"),
        }
    }
    let report = join.join().unwrap();
    assert_eq!(
        report.admitted, report.completed,
        "drain must finish all admitted work"
    );
    assert_eq!(ok, report.completed);
    assert_eq!(report.worker_deaths, 0);
}

/// Runs `server` on `listener` on a thread of its own. The report comes
/// back through [`drained`], which fails a test whose drain hangs.
fn run_in_background(server: Server, listener: TcpListener) -> Receiver<ServeReport> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run_tcp(listener));
    });
    rx
}

/// The report of a server that was shut down, failing the test if
/// `run_tcp` has not returned 30 s later.
fn drained(reports: &Receiver<ServeReport>) -> ServeReport {
    reports
        .recv_timeout(Duration::from_secs(30))
        .expect("run_tcp did not return in 30 s")
}

#[test]
fn a_shutdown_ends_run_tcp_with_an_idle_connection_open() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig::default());
    let handle = server.handle();
    let reports = run_in_background(server, listener);
    let mut client = connect(addr);
    assert_eq!(status(&client.ping(1).unwrap()), "pong");
    handle.shutdown();
    let report = drained(&reports);
    assert_eq!(report.reaped_connections, 0);
    let closed = client.recv_line().unwrap_err();
    assert_eq!(closed.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn a_shutdown_ends_run_tcp_before_any_connection() {
    // An unspecified address is woken through its loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let listener = TcpListener::bind(bind).unwrap();
        let server = Server::new(ServerConfig::default());
        let handle = server.handle();
        let reports = run_in_background(server, listener);
        // Give the accept loop time to block.
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        assert_eq!(drained(&reports).admitted, 0);
    }
}

#[test]
fn a_shutdown_before_run_tcp_ends_it_at_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::new(ServerConfig::default());
    server.handle().shutdown();
    assert_eq!(drained(&run_in_background(server, listener)).admitted, 0);
}

/// A connection to `addr` whose reads give up after `limit`.
fn raw_connect(addr: SocketAddr, limit: Duration) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(limit)).unwrap();
    stream
}

#[test]
fn idle_connections_are_reaped_once_nothing_is_in_flight() {
    let idle_timeout = Duration::from_millis(100);
    let config = ServerConfig {
        idle_timeout,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    // A connection that sends nothing is closed within a few timeouts (a
    // read that waits longer fails the test).
    let silent = raw_connect(addr, 20 * idle_timeout);
    assert_eq!((&silent).read(&mut [0u8; 1]).unwrap(), 0);

    // A compile that outlasts two timeouts (its 1 s deadline ends a
    // deepening schedule that needs seconds) is answered, and only then is
    // its connection reaped.
    let busy = raw_connect(addr, Duration::from_secs(30));
    let terms = random_terms(8, 200, 61, &['X', 'Y', 'Z']);
    let frame = format!(
        "{{\"op\":\"compile\",\"id\":1,\"qubits\":8,\"terms\":{terms},\"deadline_ms\":1000}}\n"
    );
    let sent = Instant::now();
    (&busy).write_all(frame.as_bytes()).unwrap();
    let mut reader = BufReader::new(&busy);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(sent.elapsed() > 2 * idle_timeout, "{:?}", sent.elapsed());
    let reply: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(status(&reply), "ok", "reply: {reply:?}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");

    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.reaped_connections, 2);
    assert_eq!(
        (report.admitted, report.completed, report.cancelled),
        (1, 1, 0)
    );
}

#[test]
fn a_zero_idle_timeout_still_reaps() {
    let config = ServerConfig {
        idle_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let silent = raw_connect(addr, Duration::from_secs(2));
    assert_eq!((&silent).read(&mut [0u8; 1]).unwrap(), 0);
    handle.shutdown();
    assert_eq!(join.join().unwrap().reaped_connections, 1);
}

/// Like [`compile_frame`] but with a `deadline_ms`, putting the request on
/// the budgeted (anytime deepening) path.
fn budgeted_frame(id: u64, qubits: usize, n: usize, seed: u64, deadline_ms: u64) -> String {
    let frame = compile_frame(id, qubits, n, seed);
    debug_assert!(frame.ends_with('}'));
    format!(
        "{},\"deadline_ms\":{deadline_ms}}}",
        &frame[..frame.len() - 1]
    )
}

#[test]
fn tiered_deadlines_trade_latency_for_quality() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    // The same program at the 5 ms and 500 ms QoS tiers: both must succeed
    // (anytime always holds a valid best-so-far), and the roomier deadline
    // must deepen at least as far and never return a worse circuit.
    let fast = client
        .request(300, &budgeted_frame(300, 5, 12, 91, 5))
        .unwrap();
    let slow = client
        .request(301, &budgeted_frame(301, 5, 12, 91, 500))
        .unwrap();
    assert_eq!(status(&fast), "ok", "reply: {fast:?}");
    assert_eq!(status(&slow), "ok", "reply: {slow:?}");
    assert_cnot_isa(&fast);
    assert_cnot_isa(&slow);
    let depth = |r: &Value| r.get("depth_reached").and_then(Value::as_u64).unwrap();
    let cost = |r: &Value| {
        (
            r.get("two_qubit").and_then(Value::as_u64).unwrap(),
            r.get("depth_2q").and_then(Value::as_u64).unwrap(),
            r.get("gates").and_then(Value::as_u64).unwrap(),
        )
    };
    assert!(
        depth(&slow) >= depth(&fast),
        "roomier deadline deepened less: {} vs {}",
        depth(&slow),
        depth(&fast)
    );
    assert!(
        cost(&slow) <= cost(&fast),
        "roomier deadline returned a worse circuit: {:?} vs {:?}",
        cost(&slow),
        cost(&fast)
    );
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.worker_deaths, 0);
}

/// A `compile` or `fleet` frame (`op`, with its `target` or `devices`
/// member `place`) of 200 random terms that each act on all 8 qubits, with
/// a 600 s deadline. The terms form one dense group, so the full deepening
/// schedule takes seconds even in a release build (2.0–2.4 s at the
/// `cnot`, `falcon27` and `grid:3x3` targets on a 2-vCPU VM), while a
/// cancel sent as soon as a worker picks the frame up lands within
/// milliseconds: always mid-deepening.
fn dense_budgeted_frame(id: u64, op: &str, place: &str) -> String {
    let terms = random_terms(8, 200, 61, &['X', 'Y', 'Z']);
    format!(
        "{{\"op\":\"{op}\",\"id\":{id},\"qubits\":8,\"terms\":{terms},{place},\"deadline_ms\":600000}}"
    )
}

/// Returns once `stats` frames on a connection of its own show that the
/// one job a one-worker server admitted has left the queue: the worker is
/// compiling it. Panics if the job has already been answered, since a
/// cancel or a hang-up would then interrupt nothing.
fn wait_until_dequeued(addr: SocketAddr) {
    let mut probe = connect(addr);
    for id in 0.. {
        let stats = probe
            .request(id, &format!(r#"{{"op":"stats","id":{id}}}"#))
            .unwrap();
        let count = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap();
        assert_eq!(
            count("completed"),
            0,
            "answered before dequeue seen: {stats:?}"
        );
        if count("admitted") == 1 && count("queue_depth") == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Cancels job `id`, already sent on `client` to a one-worker server,
/// `after` the worker has picked it up, and returns its reply.
fn cancel_once_dequeued(addr: SocketAddr, client: &mut Client, id: u64, after: Duration) -> Value {
    wait_until_dequeued(addr);
    std::thread::sleep(after);
    client.cancel(id).unwrap();
    client.wait_reply(id).unwrap()
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn cancelling_mid_deepening_replies_cancelled() {
    let (handle, addr, join) = start_server(one_worker());
    let mut client = connect(addr);
    let frame = dense_budgeted_frame(400, "compile", r#""target":"cnot""#);
    client.send_line(&frame).unwrap();
    // A fired token ends a budgeted compile at its next poll, as it ends an
    // unbudgeted one: no best-so-far circuit is delivered.
    let reply = cancel_once_dequeued(addr, &mut client, 400, Duration::ZERO);
    assert_eq!(kind(&reply), Some("cancelled"), "reply: {reply:?}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(
        (report.admitted, report.completed, report.cancelled),
        (1, 1, 1)
    );
    assert_eq!(report.worker_deaths, 0);
}

#[test]
fn cancelling_a_budgeted_fleet_mid_compile_replies_cancelled() {
    let (handle, addr, join) = start_server(one_worker());
    let mut client = connect(addr);
    let frame = dense_budgeted_frame(410, "fleet", r#""devices":["falcon27","grid:3x3"]"#);
    client.send_line(&frame).unwrap();
    // Every member shares the token, so each stops at its next poll, and a
    // cancelled member cancels the fleet reply. The cancel waits 50 ms, a
    // fortieth of the schedule, so that both members are deepening.
    let reply = cancel_once_dequeued(addr, &mut client, 410, Duration::from_millis(50));
    assert_eq!(kind(&reply), Some("cancelled"), "reply: {reply:?}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(
        (report.admitted, report.completed, report.cancelled),
        (1, 1, 1)
    );
}

#[test]
fn a_disconnect_mid_deepening_cancels_the_abandoned_job() {
    let (handle, addr, join) = start_server(one_worker());
    {
        let mut doomed = connect(addr);
        let frame = dense_budgeted_frame(420, "compile", r#""target":"falcon27""#);
        doomed.send_line(&frame).unwrap();
        wait_until_dequeued(addr);
        // Hang up mid-deepening: the reaper fires the job's token.
    }
    let mut client = connect(addr);
    let ok = client.request(421, &compile_frame(421, 3, 3, 78)).unwrap();
    assert_eq!(status(&ok), "ok", "reply: {ok:?}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(
        (report.admitted, report.completed, report.cancelled),
        (2, 2, 1)
    );
    assert_eq!(report.worker_deaths, 0);
}

fn depth_reached(reply: &Value) -> Option<u64> {
    reply.get("depth_reached").and_then(Value::as_u64)
}

/// The QoS tier `frame` gets: the deepest `depth_reached` of five replies
/// to it, under ids `ids..ids + 5`. The frames are small enough to finish
/// every round long before their deadline, so the tier decides how deep
/// they get. A loaded host can only cut a reply short, or hold a frame
/// past its deadline before a worker picks it up; it never deepens a reply
/// past its tier.
fn tier(client: &mut Client, ids: u64, frame: impl Fn(u64) -> String) -> Option<u64> {
    (ids..ids + 5)
        .filter_map(|id| {
            let reply = client.request(id, &frame(id)).unwrap();
            if kind(&reply) == Some("deadline_exceeded") {
                return None;
            }
            assert_eq!(status(&reply), "ok", "reply: {reply:?}");
            Some(depth_reached(&reply).unwrap())
        })
        .max()
}

#[test]
fn a_deadline_picks_the_tier_the_client_asked_for() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    // The time a request spends before dispatch must not drop it to the
    // tier below.
    for (ids, deadline_ms, rounds) in [(10, 10, 4), (20, 100, 6), (30, 1000, 8)] {
        let frame = |id| budgeted_frame(id, 3, 3, 17, deadline_ms);
        assert_eq!(
            tier(&mut client, ids, frame),
            Some(rounds),
            "{deadline_ms} ms"
        );
    }
    handle.shutdown();
    assert_eq!(join.join().unwrap().completed, 15);
}

#[test]
fn the_default_deadline_stands_in_for_a_missing_one() {
    let config = ServerConfig {
        default_deadline: Some(Duration::from_millis(1000)),
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    let defaulted = |id| compile_frame(id, 3, 3, 17);
    assert_eq!(tier(&mut client, 10, defaulted), Some(8));
    // A frame's own deadline overrides the default.
    let own = |id| budgeted_frame(id, 3, 3, 17, 10);
    assert_eq!(tier(&mut client, 20, own), Some(4));
    handle.shutdown();
    assert_eq!(join.join().unwrap().completed, 10);
}

#[test]
fn a_zero_default_deadline_refuses_only_frames_without_their_own() {
    let config = ServerConfig {
        default_deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    let defaulted = client.request(1, &compile_frame(1, 3, 3, 17)).unwrap();
    assert_eq!(
        kind(&defaulted),
        Some("deadline_exceeded"),
        "reply: {defaulted:?}"
    );
    let own = |id| budgeted_frame(id, 3, 3, 17, 1000);
    assert_eq!(tier(&mut client, 10, own), Some(8));
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.deadline_exceeded, 1);
    assert_eq!(report.completed, 6);
}

#[test]
fn fleet_deadlines_are_checked_at_dispatch() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let fleet = |id: u64, deadline_ms: u64| {
        format!(
            concat!(
                r#"{{"op":"fleet","id":{},"qubits":4,"#,
                r#""terms":[["ZZII",0.2],["IZZI",0.2],["XIIX",0.1],["IYYI",0.15]],"#,
                r#""devices":["line:5","grid:2x3","ion-trap:5"],"deadline_ms":{}}}"#
            ),
            id, deadline_ms
        )
    };
    let expired = client.request(1, &fleet(1, 0)).unwrap();
    assert_eq!(
        kind(&expired),
        Some("deadline_exceeded"),
        "reply: {expired:?}"
    );
    let roomy = client.request(2, &fleet(2, 60_000)).unwrap();
    assert_eq!(status(&roomy), "ok", "reply: {roomy:?}");
    let ranked = roomy.get("fleet").and_then(Value::as_array).unwrap();
    let mut devices: Vec<&str> = ranked
        .iter()
        .map(|e| e.get("device").and_then(Value::as_str).unwrap())
        .collect();
    devices.sort_unstable();
    assert_eq!(devices, ["grid:2x3", "ion-trap:5", "line:5"], "{roomy:?}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.deadline_exceeded, 1);
    assert_eq!(report.completed, 2);
}

/// A budgeted device compile dispatched before its deadline replies `ok`,
/// whichever pass the deadline lands in: the deadline stops deepening, and
/// the lowering and routing after it run in full. Each reply equals an
/// untimed compile capped at the `depth_reached` it reports, whose every
/// two-qubit gate sits on a coupled pair of the device.
#[test]
fn budgeted_device_compiles_dispatched_in_time_always_route() {
    use phoenix_core::{CompileRequest, PhoenixOptions, Target};

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let (handle, addr, join) = start_server(config);
    let mut client = connect(addr);
    let frame = |id| budgeted_frame(id, 10, 150, 29, 20).replace("\"cnot\"", "\"falcon27\"");
    let replies: Vec<Value> = (0..10)
        .map(|id| client.request(id, &frame(id)).unwrap())
        .collect();
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!((report.completed, report.deadline_exceeded), (10, 0));

    let Ok(phoenix_serve::Request::Compile(spec)) =
        phoenix_serve::protocol::parse_request(&frame(0), 1)
    else {
        panic!("frame parses as a compile");
    };
    let Target::Device(device) = &spec.target else {
        panic!("a device target: {:?}", spec.target);
    };
    let capped_at = |depth: u64| {
        let options = PhoenixOptions {
            pass_budget: Some(Duration::from_secs(3600)),
            anytime_rounds: Some(depth as usize),
            ..PhoenixOptions::default()
        };
        let capped = CompileRequest::new(spec.qubits, &spec.terms)
            .target(spec.target.clone())
            .options(options)
            .run()
            .unwrap();
        for gate in capped.circuit.gates() {
            if let (a, Some(b)) = gate.qubits() {
                assert!(device.graph().contains_edge(a, b), "{gate} off the device");
            }
        }
        phoenix_serve::protocol::ok_reply(0, &capped, None)
    };
    let mut capped = std::collections::BTreeMap::new();
    for reply in &replies {
        assert_eq!(status(reply), "ok", "reply: {reply:?}");
        let depth = depth_reached(reply).unwrap();
        let counts = capped.entry(depth).or_insert_with(|| capped_at(depth));
        for key in ["gates", "cnot", "two_qubit", "depth", "depth_2q"] {
            assert_eq!(reply.get(key), counts.get(key), "{key} at depth {depth}");
        }
    }
}

#[test]
fn fleet_frames_return_a_fidelity_ranked_listing_end_to_end() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let frame = concat!(
        r#"{"op":"fleet","id":41,"qubits":4,"#,
        r#""terms":[["ZZII",0.2],["IZZI",0.2],["IIZZ",0.2],["XIIX",0.1],["IYYI",0.15]],"#,
        r#""devices":["line:5","grid:2x3","ion-trap:5","ring:5"]}"#
    );
    let reply = client.request(41, frame).unwrap();
    assert_eq!(status(&reply), "ok", "reply: {reply:?}");
    let ranked = reply.get("fleet").and_then(Value::as_array).unwrap();
    assert_eq!(ranked.len(), 4, "reply: {reply:?}");
    let fidelities: Vec<f64> = ranked
        .iter()
        .map(|e| e.get("fidelity").and_then(Value::as_f64).unwrap())
        .collect();
    for pair in fidelities.windows(2) {
        assert!(pair[0] >= pair[1], "fleet reply not fidelity-ranked");
    }
    for entry in ranked {
        assert!(entry.get("device").and_then(Value::as_str).is_some());
        assert!(entry.get("two_qubit").and_then(Value::as_u64).is_some());
        assert!(entry.get("depth").and_then(Value::as_u64).is_some());
    }
    // The same fleet again: the members share one cached program structure.
    let again = client
        .request(42, &frame.replace("\"id\":41", "\"id\":42"))
        .unwrap();
    assert_eq!(status(&again), "ok");
    let hits = again
        .get("cache")
        .and_then(|c| c.get("program_hits"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(hits >= 1, "expected a program cache hit, got {hits}");
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
}

#[test]
fn stats_frames_snapshot_the_server_counters() {
    let (handle, addr, join) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    let ok = client.request(1, &compile_frame(1, 3, 3, 5)).unwrap();
    assert_eq!(status(&ok), "ok");
    let stats = client.request(2, r#"{"op":"stats","id":2}"#).unwrap();
    assert_eq!(status(&stats), "stats");
    assert_eq!(stats.get("admitted").and_then(Value::as_u64), Some(1));
    assert!(stats.get("cache").is_some());
    handle.shutdown();
    join.join().unwrap();
}

#[cfg(feature = "sabotage")]
mod sabotage {
    use super::*;

    #[test]
    fn pass_panic_is_contained_as_a_typed_compile_error() {
        let (handle, addr, join) = start_server(ServerConfig::default());
        let mut client = connect(addr);
        let frame = r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",0.5]],"sabotage":"pass"}"#;
        let reply = client.request(1, frame).unwrap();
        assert_eq!(kind(&reply), Some("compile_error"), "reply: {reply:?}");
        assert!(reply
            .get("message")
            .and_then(Value::as_str)
            .unwrap()
            .contains("panicked"));
        // The worker itself never died: containment happened in the pass
        // manager layer.
        let ok = client.request(2, &compile_frame(2, 3, 3, 9)).unwrap();
        assert_eq!(status(&ok), "ok");
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.worker_deaths, 0);
    }

    #[test]
    fn worker_panic_is_contained_and_the_worker_respawns() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let (handle, addr, join) = start_server(config);
        let mut client = connect(addr);
        let frame =
            r#"{"op":"compile","id":1,"qubits":2,"terms":[["ZZ",0.5]],"sabotage":"worker"}"#;
        let reply = client.request(1, frame).unwrap();
        assert_eq!(kind(&reply), Some("panic"), "reply: {reply:?}");
        // The sole worker died and respawned; the server still serves.
        let ok = client.request(2, &compile_frame(2, 3, 3, 9)).unwrap();
        assert_eq!(status(&ok), "ok");
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(report.panics_contained, 1);
        assert_eq!(report.completed, 2);
    }
}
