//! `phoenixd` as a process, on both transports. Over TCP, eight concurrent
//! clients drive the real daemon binary with mixed valid and adversarial
//! traffic, then SIGTERM drains it. Over stdio, the default transport, one
//! stream of valid, malformed, non-UTF-8 and oversized frames ends in a
//! ping without a newline, and closing stdin drains it; SIGTERM drains it
//! with stdin held open. On Linux, an idle daemon is checked to take no
//! wakeups on either transport, its client connection or stdin held open.
//!
//! The serving contract, checked end to end:
//!
//! - the daemon never dies during the run, whatever clients send;
//! - every request gets a typed reply: shed requests surface as
//!   `overloaded`, malformed frames as `invalid_request` and oversized
//!   ones as `frame_too_large`, never as a silent drop;
//! - SIGTERM (or EOF on stdio) drains: the process exits 0, and its
//!   `--report` shows every admitted request completed, no worker death
//!   and a bounded p99 queue wait;
//! - the daemon writes nothing but its report, and the test removes that.
//!
//! Each TCP client sends ten requests: about 65% valid compiles (retried
//! with backoff through overload), 10% malformed frames, 5% oversized
//! frames, 10% compile-then-cancel pairs, 5% zero deadlines and 5% pings.

#![cfg(unix)]
#![allow(clippy::unwrap_used)]

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use phoenix_mathkit::Xoshiro256;
use phoenix_serve::{Client, RetryPolicy};
use serde_json::Value;

const SEED: u64 = 7;
const CLIENTS: u64 = 8;
const REQUESTS: usize = 10;
const MAX_FRAME_BYTES: usize = 4096;
const REPORT: &str = "report.json";

/// The reply classes this traffic may receive. Every program it sends is
/// valid, so a `compile_error` fails the test too.
const TYPED: [&str; 7] = [
    "ok",
    "pong",
    "cancelled",
    "deadline_exceeded",
    "invalid_request",
    "frame_too_large",
    "overloaded",
];

/// A `phoenixd` child running in a directory of its own. Dropping it kills
/// the daemon if it is still running and removes the directory, so a
/// failing test leaves neither a process nor a file behind.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh directory for one daemon of this test process, numbered so
/// that daemons of concurrent tests never share one.
fn fresh_dir(tag: &str) -> PathBuf {
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let n = DAEMONS.fetch_add(1, Ordering::Relaxed);
    let name = format!("phoenixd-{tag}-{}-{n}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts `phoenixd` on an ephemeral port (4 workers, a queue of 8) and
/// returns it with the address it announced.
fn spawn_daemon() -> (Daemon, String) {
    let dir = fresh_dir("daemon");
    let child = Command::new(env!("CARGO_BIN_EXE_phoenixd"))
        .current_dir(&dir)
        .args(["--tcp", "127.0.0.1:0", "--workers", "4", "--queue", "8"])
        .args(["--max-frame-bytes", &MAX_FRAME_BYTES.to_string()])
        .args(["--report", REPORT])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut daemon = Daemon { child, dir };
    let mut banner = String::new();
    BufReader::new(daemon.child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .to_string();
    (daemon, addr)
}

/// Sends SIGTERM and waits for the drain to finish.
fn terminate(child: &mut Child) -> ExitStatus {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: `kill(2)` takes plain integers and touches no memory of ours.
    assert_eq!(unsafe { kill(child.id() as i32, 15) }, 0, "SIGTERM failed");
    wait_for_exit(child)
}

/// Waits up to 30 s for `child` to exit, so a daemon that never exits
/// fails the test instead of hanging it.
fn wait_for_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "phoenixd did not drain in 30 s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn compile_frame(id: u64, qubits: usize, n: usize, rng: &mut Xoshiro256) -> String {
    let mut terms = Vec::with_capacity(n);
    while terms.len() < n {
        let label: String = (0..qubits)
            .map(|_| ['I', 'X', 'Y', 'Z'][rng.next_below(4)])
            .collect();
        if label.bytes().all(|b| b == b'I') {
            continue;
        }
        terms.push(format!("[\"{label}\",{:.4}]", rng.next_f64() - 0.5));
    }
    format!(
        "{{\"op\":\"compile\",\"id\":{id},\"qubits\":{qubits},\"terms\":[{}],\"target\":\"cnot\"}}",
        terms.join(",")
    )
}

/// The line-delimited reply to a frame sent raw; an unparseable line
/// becomes `Null`, which no class check accepts.
fn positional_reply(client: &mut Client, frame: &str) -> std::io::Result<Value> {
    client.send_line(frame)?;
    let line = client.recv_line()?;
    Ok(serde_json::from_str(&line).unwrap_or(Value::Null))
}

/// One client's mixed traffic, sent sequentially so each adversarial
/// frame's reply can be read positionally. Returns, per request, what was
/// sent and the reply.
fn drive_client(addr: &str, client_id: u64) -> Vec<(&'static str, Value)> {
    let policy = RetryPolicy {
        seed: SEED ^ client_id,
        ..RetryPolicy::default()
    };
    let mut client = Client::connect(addr, policy).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(SEED.wrapping_mul(31) ^ client_id);
    let mut replies = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let id = client_id * 10_000 + i as u64;
        let roll = rng.next_below(100);
        let (sent, reply) = if roll < 10 {
            (
                "malformed",
                positional_reply(&mut client, "{definitely not json"),
            )
        } else if roll < 15 {
            let frame = "z".repeat(2 * MAX_FRAME_BYTES);
            ("oversized", positional_reply(&mut client, &frame))
        } else if roll < 25 {
            // A big job abandoned right away: `cancelled`, or `ok` if the
            // compile won the race.
            let reply = client
                .send_line(&compile_frame(id, 8, 120, &mut rng))
                .and_then(|()| client.cancel(id))
                .and_then(|()| client.wait_reply(id));
            ("cancel pair", reply)
        } else if roll < 30 {
            let frame = format!(
                "{{\"op\":\"compile\",\"id\":{id},\"qubits\":3,\"terms\":[[\"ZZI\",0.5]],\"deadline_ms\":0}}"
            );
            ("zero deadline", client.request(id, &frame))
        } else if roll < 35 {
            ("ping", client.ping(id))
        } else {
            let frame = compile_frame(id, 4 + rng.next_below(3), 8, &mut rng);
            ("compile", client.request(id, &frame))
        };
        let reply =
            reply.unwrap_or_else(|e| panic!("client {client_id} request {i} ({sent}): {e}"));
        replies.push((sent, reply));
    }
    replies
}

/// What a reply says: its status on success, its kind on an error.
fn class(reply: &Value) -> &str {
    match reply.get("status").and_then(Value::as_str) {
        Some("error") => reply.get("kind").and_then(Value::as_str).unwrap_or("error"),
        Some(status) => status,
        None => "untyped",
    }
}

#[test]
fn daemon_answers_mixed_traffic_and_drains_on_sigterm() {
    let (mut daemon, addr) = spawn_daemon();
    let replies: Vec<(&str, Value)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (1..=CLIENTS)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || drive_client(addr, c))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });

    assert_eq!(
        daemon.child.try_wait().unwrap(),
        None,
        "phoenixd died during the run"
    );
    assert_eq!(replies.len(), (CLIENTS as usize) * REQUESTS);
    for (sent, reply) in &replies {
        assert!(
            TYPED.contains(&class(reply)),
            "{sent} got an untyped reply: {reply:?}"
        );
    }

    let status = terminate(&mut daemon.child);
    assert!(
        status.success(),
        "phoenixd exited with {status} after SIGTERM"
    );
    let written: Vec<_> = std::fs::read_dir(&daemon.dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(written, [REPORT], "phoenixd wrote more than its report");
    let text = std::fs::read_to_string(daemon.dir.join(REPORT)).unwrap();
    let report: Value = serde_json::from_str(text.trim()).unwrap();
    let field = |name: &str| {
        report
            .get(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("report lacks `{name}`: {report:?}"))
    };
    assert_eq!(
        field("admitted"),
        field("completed"),
        "drain dropped admitted work: {report:?}"
    );
    assert_eq!(field("worker_deaths"), 0, "{report:?}");
    assert!(
        field("queue_wait_p99_us") <= 60_000_000,
        "p99 queue wait unbounded: {report:?}"
    );

    let dir = daemon.dir.clone();
    drop(daemon);
    assert!(!dir.exists(), "{} left behind", dir.display());
}

/// The `--report` a drained daemon wrote into `dir`, after checking that it
/// is the only file there.
fn read_report(dir: &Path) -> Value {
    let written: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(written, [REPORT], "phoenixd wrote more than its report");
    let text = std::fs::read_to_string(dir.join(REPORT)).unwrap();
    serde_json::from_str(text.trim()).unwrap()
}

fn report_field(report: &Value, name: &str) -> u64 {
    report
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("report lacks `{name}`: {report:?}"))
}

#[test]
fn stdio_daemon_answers_every_frame_and_drains_at_eof() {
    let dir = fresh_dir("stdio");
    let child = Command::new(env!("CARGO_BIN_EXE_phoenixd"))
        .current_dir(&dir)
        .args(["--stdio", "--max-frame-bytes", &MAX_FRAME_BYTES.to_string()])
        .args(["--report", REPORT])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut daemon = Daemon { child, dir };

    let mut stream = Vec::new();
    stream.extend_from_slice(
        br#"{"op":"compile","id":1,"qubits":3,"terms":[["ZYY",0.1],["ZZY",0.1]],"target":"cnot"}"#,
    );
    stream.push(b'\n');
    stream.extend_from_slice(
        br#"{"op":"fleet","id":2,"qubits":4,"terms":[["ZZII",0.2],["IZZI",0.2],["IIZZ",0.2],["XIIX",0.1]],"devices":["line:5","grid:2x3","ion-trap:5","ring:5"]}"#,
    );
    stream.push(b'\n');
    stream.extend_from_slice(b"{broken\n");
    stream.extend_from_slice(b"\xff\xfe\n");
    stream.resize(stream.len() + (1 << 20), b'z');
    stream.push(b'\n');
    stream.extend_from_slice(br#"{"op":"ping","id":6}"#);

    // Written from a thread of its own: the daemon answers as it reads,
    // and dropping the pipe is the EOF that drains it.
    let mut stdin = daemon.child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(&stream));
    let stdout = daemon.child.stdout.take().unwrap();
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map(|line| serde_json::from_str::<Value>(&line.unwrap()).unwrap_or(Value::Null))
            .collect::<Vec<_>>()
    });
    let status = wait_for_exit(&mut daemon.child);
    let written = writer.join().unwrap();
    let replies = reader.join().unwrap();
    assert!(status.success(), "phoenixd exited with {status} at EOF");
    written.expect("phoenixd stopped reading stdin");

    // Workers answer the compile and the fleet whenever they finish, so
    // replies are matched by id, or by line number for the frames that
    // carry none.
    assert_eq!(replies.len(), 6, "one reply per frame: {replies:?}");
    let by_id = |id: u64| {
        replies
            .iter()
            .find(|r| r.get("id").and_then(Value::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no reply for id {id}: {replies:?}"))
    };
    let by_line = |line: u64| {
        replies
            .iter()
            .find(|r| r.get("line").and_then(Value::as_u64) == Some(line))
            .unwrap_or_else(|| panic!("no reply for line {line}: {replies:?}"))
    };

    let compile = by_id(1);
    assert_eq!(class(compile), "ok", "{compile:?}");
    assert!(compile.get("gates").unwrap().as_u64().unwrap() > 0);
    assert!(compile.get("metrics").is_some());

    let fleet = by_id(2);
    assert_eq!(class(fleet), "ok", "{fleet:?}");
    let members = fleet.get("fleet").unwrap().as_array().unwrap();
    assert_eq!(members.len(), 4);
    let fidelities: Vec<f64> = members
        .iter()
        .map(|e| e.get("fidelity").unwrap().as_f64().unwrap())
        .collect();
    for pair in fidelities.windows(2) {
        assert!(pair[0] >= pair[1], "reply not fidelity-ranked: {fleet:?}");
    }
    for entry in members {
        assert!(entry.get("device").unwrap().as_str().is_some());
        assert!(entry.get("two_qubit").unwrap().as_u64().is_some());
        assert!(entry.get("depth").unwrap().as_u64().is_some());
    }

    assert_eq!(class(by_line(3)), "invalid_request");
    assert_eq!(class(by_line(4)), "invalid_request");
    assert_eq!(class(by_line(5)), "frame_too_large");
    assert_eq!(class(by_id(6)), "pong");

    let report = read_report(&daemon.dir);
    assert_eq!(report_field(&report, "invalid_frames"), 2, "{report:?}");
    assert_eq!(report_field(&report, "oversized_frames"), 1, "{report:?}");
    assert_eq!(report_field(&report, "admitted"), 2, "{report:?}");
    assert_eq!(report_field(&report, "completed"), 2, "{report:?}");
    assert_eq!(report_field(&report, "worker_deaths"), 0, "{report:?}");

    let dir = daemon.dir.clone();
    drop(daemon);
    assert!(!dir.exists(), "{} left behind", dir.display());
}

/// Starts `phoenixd --stdio` (4 workers) in a directory of its own, writing
/// its `--report` there.
fn spawn_stdio_daemon(tag: &str) -> Daemon {
    let dir = fresh_dir(tag);
    let child = Command::new(env!("CARGO_BIN_EXE_phoenixd"))
        .current_dir(&dir)
        .args(["--stdio", "--workers", "4", "--report", REPORT])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    Daemon { child, dir }
}

/// Parses `stdout`'s reply lines on a thread of their own, until the
/// daemon closes it.
fn replies_of(stdout: ChildStdout) -> Receiver<Value> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let reply = serde_json::from_str(&line.unwrap()).unwrap_or(Value::Null);
            if tx.send(reply).is_err() {
                break;
            }
        }
    });
    rx
}

/// The next reply, failing the test if none comes within 30 s.
fn next_reply(replies: &Receiver<Value>) -> Value {
    replies
        .recv_timeout(Duration::from_secs(30))
        .expect("phoenixd sent no reply in 30 s")
}

#[test]
fn sigterm_drains_a_stdio_daemon_with_stdin_held_open() {
    let mut daemon = spawn_stdio_daemon("stdio-sigterm");
    let mut stdin = daemon.child.stdin.take().unwrap();
    let replies = replies_of(daemon.child.stdout.take().unwrap());
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let mut stream = String::new();
    for id in 1..=4 {
        stream += &compile_frame(id, 8, 120, &mut rng);
        stream.push('\n');
    }
    stream += "{\"op\":\"ping\",\"id\":5}\n";
    stdin.write_all(stream.as_bytes()).unwrap();
    // The pong follows the four admissions; the compiles may still run.
    let mut answered = Vec::new();
    loop {
        let reply = next_reply(&replies);
        if class(&reply) == "pong" {
            break;
        }
        answered.push(reply);
    }
    let status = terminate(&mut daemon.child);
    assert!(status.success(), "phoenixd exited with {status} on SIGTERM");
    answered.extend(replies.iter());
    drop(stdin);
    for id in 1..=4 {
        let reply = answered
            .iter()
            .find(|r| r.get("id").and_then(Value::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no reply for id {id}: {answered:?}"));
        assert_eq!(class(reply), "ok", "{reply:?}");
    }
    assert_eq!(answered.len(), 4, "{answered:?}");
    let report = read_report(&daemon.dir);
    assert_eq!(report_field(&report, "admitted"), 4, "{report:?}");
    assert_eq!(report_field(&report, "completed"), 4, "{report:?}");
}

/// The run count (field 3 of `schedstat`) of each thread of process
/// `pid`, by thread id. It panics if procfs cannot be read, so that the
/// check fails rather than skips.
#[cfg(target_os = "linux")]
fn run_counts(pid: u32) -> std::collections::HashMap<String, u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).unwrap();
    tasks
        .map(|task| {
            let task = task.unwrap();
            let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap();
            let runs = stat.split_whitespace().nth(2).unwrap().parse().unwrap();
            (task.file_name().into_string().unwrap(), runs)
        })
        .collect()
}

/// How many times the threads of process `pid` ran over 2 s, once the
/// work before has had 200 ms to settle.
#[cfg(target_os = "linux")]
fn wakeups(pid: u32) -> u64 {
    std::thread::sleep(Duration::from_millis(200));
    let before = run_counts(pid);
    std::thread::sleep(Duration::from_secs(2));
    let after = run_counts(pid);
    let ran = |(tid, runs): (&String, &u64)| runs - before.get(tid).copied().unwrap_or(0);
    after.iter().map(ran).sum()
}

/// Nothing in `phoenixd` polls: after one compile, with the client's
/// connection or stdin held open, no thread of the daemon runs at all.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_daemon_makes_no_wakeups_on_either_transport() {
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let (mut daemon, addr) = spawn_daemon();
    let mut client = Client::connect(&addr, RetryPolicy::default()).unwrap();
    let reply = client
        .request(1, &compile_frame(1, 4, 8, &mut rng))
        .unwrap();
    assert_eq!(class(&reply), "ok", "{reply:?}");
    let tcp = wakeups(daemon.child.id());
    assert!(terminate(&mut daemon.child).success());

    let mut daemon = spawn_stdio_daemon("stdio-idle");
    let mut stdin = daemon.child.stdin.take().unwrap();
    let replies = replies_of(daemon.child.stdout.take().unwrap());
    writeln!(stdin, "{}", compile_frame(1, 4, 8, &mut rng)).unwrap();
    let reply = next_reply(&replies);
    assert_eq!(class(&reply), "ok", "{reply:?}");
    let stdio = wakeups(daemon.child.id());
    drop(stdin);
    assert!(wait_for_exit(&mut daemon.child).success());

    assert_eq!((tcp, stdio), (0, 0), "wakeups over 2 s idle (tcp, stdio)");
}
