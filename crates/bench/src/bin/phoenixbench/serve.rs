//! `serve-mixed`: an in-process `phoenixd` (`Server::run_tcp` on loopback,
//! 2 workers, queue 64, cache capacity 256) under a pre-generated request
//! mix, in three phases: an open loop at a fixed rate (latency under load
//! and the SLO), a closed loop on two connections (round-trip latency and
//! throughput), and an in-process loop over the service's own calls (the
//! CPU cost of each request, which the bounded metrics measure). On a
//! shared host the loopback phases vary with the hypervisor's steal more
//! than any calibration removes, so they are reported for information
//! (see README.md).
//!
//! The mix: 55% UCCSD rebinds with fresh coefficients (program-cache
//! hits), 20% fresh random programs of 8–12 qubits and 30–120 terms
//! (misses and inserts, enough of them to force evictions), 15% device
//! compiles on `grid:4x4` and `falcon27`, and 10% requests with a 500 ms
//! deadline (the 6-round anytime tier, which bypasses the cache). It is the only
//! workload with parse, queue wait and serialization, the only one where
//! cache writes mix with reads, and the only one where the two workers
//! contend for the two cores.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phoenix_core::{CompileCache, CompileRequest, PhoenixOptions};
use phoenix_hamil::{qaoa, uccsd, Hamiltonian, Molecule};
use phoenix_mathkit::Xoshiro256;
use phoenix_serve::protocol::{self, Request};
use phoenix_serve::{execute_spec, CompileSpec, ServeReport, Server, ServerConfig, ServerHandle};
use phoenix_verify::gen::{Family, RandomProgramGen};
use serde_json::Value;

use crate::stats::{self, OpenLoop};
use crate::trace::{Op, Recorder};
use crate::{
    median_cpu_ms, setup_repeated, timed, Cost, Measured, Quality, RunArgs, Stamp, Traced,
};

/// Open-loop arrival rate, requests per second: about a third of the
/// closed-loop throughput (≈ 600/s) of the commit that introduced the
/// benchmark, rather than half, to leave the server slack for the host's
/// stalls: a shed request is a failed one. Frozen: it is never re-derived,
/// so runs of later commits face the same load.
pub const RATE: f64 = 200.0;

/// Latency limit of the open loop, ms: that commit's open-loop p99 at
/// [`RATE`] (15–20 ms) rounded up to the next 50 ms. Frozen like [`RATE`].
pub const SLO_MS: f64 = 50.0;

/// Entries per map of the server's compile cache.
const CACHE_CAPACITY: usize = 256;

/// Fixed structures of the catalog: 4 rebinds and 6 device compiles.
const STRUCTURES: usize = 10;

/// Request kinds, by their index in [`MIX`].
const KINDS: [&str; 4] = ["rebind", "fresh", "device", "deadline"];

/// One block of the mix by kind: 55% rebinds, 20% fresh programs,
/// 15% device compiles, 10% deadlines. Frames are drawn a shuffled block
/// at a time, so the seed decides the order but never the proportions.
const MIX: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3];

/// Closed-loop frames per measured second: each is sent once, and at the
/// closed-loop throughput of the commit that introduced the benchmark
/// (≈ 600/s) the loop takes about a third of the measured time.
const CLOSED_FRAMES_PER_S: f64 = 200.0;

/// Deadline of the budgeted requests. It selects the 6-round anytime tier
/// (`phoenix_serve::deepening_rounds`), which these small programs finish
/// in milliseconds, so the budget never truncates them and their work does
/// not depend on the host's speed; and a stalled host does not make them
/// miss it. The full tier (deadlines from 1 s) runs until its budget is
/// spent, so its work would follow the host's speed.
const DEADLINE_MS: u64 = 500;

/// Sender lateness p99 above which the open loop did not hold its rate.
const MAX_LATENESS_MS: f64 = 2.0;

/// Frames a traced run replays in process.
const TRACED_FRAMES: usize = 200;

/// What a reply must show.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// `ok` with these `(two_qubit, depth_2q)` counts.
    Counts(usize, usize),
    /// `ok` with counts equal to an in-process compile of the frame.
    Compile,
    /// `ok`; the counts depend on how far the anytime search got.
    Ok,
}

/// One pre-generated request frame (everything but its id).
#[derive(Debug, Clone)]
struct Frame {
    /// Index into [`KINDS`].
    kind: usize,
    /// Index of the fixed structure (rebinds, then device compiles) the
    /// frame re-weights, if any.
    structure: Option<usize>,
    body: String,
    expect: Expect,
}

impl Frame {
    fn new(
        kind: usize,
        structure: Option<usize>,
        h: &Hamiltonian,
        target: &str,
        deadline_ms: Option<u64>,
    ) -> Self {
        let terms: Vec<String> = h
            .terms()
            .iter()
            .map(|(p, c)| format!("[\"{p}\",{c:?}]"))
            .collect();
        let deadline = deadline_ms.map_or(String::new(), |ms| format!(",\"deadline_ms\":{ms}"));
        Frame {
            kind,
            structure,
            body: format!(
                "\"op\":\"compile\",\"qubits\":{},\"terms\":[{}],\"target\":\"{target}\"{deadline}}}",
                h.num_qubits(),
                terms.join(",")
            ),
            expect: if deadline_ms.is_some() {
                Expect::Ok
            } else {
                Expect::Compile
            },
        }
    }

    /// The class the geometric means average over: each fixed structure on
    /// its own (a kind mixes structures of very different cost, so a
    /// kind's median jumps between them), then fresh programs, then
    /// deadline requests.
    fn class(&self) -> usize {
        self.structure
            .unwrap_or(STRUCTURES + usize::from(KINDS[self.kind] == "deadline"))
    }

    /// The wire line for request `id`.
    fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}\n", self.body)
    }

    /// The frame as the server parses it.
    fn spec(&self) -> Result<CompileSpec, String> {
        match protocol::parse_request(self.line(0).trim_end(), 1) {
            Ok(Request::Compile(spec)) => Ok(spec),
            Ok(_) => Err("not a compile frame".to_string()),
            Err(reply) => Err(format!("frame rejected: {}", protocol::render(&reply))),
        }
    }
}

/// The fixed structures behind rebinds and device compiles; the seed only
/// draws their coefficients.
struct Catalog {
    rebind: Vec<Hamiltonian>,
    device: Vec<(Hamiltonian, &'static str)>,
}

impl Catalog {
    fn new(seed: u64) -> Self {
        use uccsd::Encoding::{BravyiKitaev as Bk, JordanWigner as Jw};
        let rebind = [
            (Molecule::lih(), Jw),
            (Molecule::lih(), Bk),
            (Molecule::nh(), Jw),
            (Molecule::nh(), Bk),
        ]
        .into_iter()
        .map(|(mol, enc)| uccsd::ansatz(mol, true, enc, seed))
        .collect();
        let graphs = qaoa::table4_suite(7);
        let lih = uccsd::ansatz(Molecule::lih(), true, Jw, seed);
        let mut device = Vec::new();
        for target in ["grid:4x4", "falcon27"] {
            for h in [&graphs[0], &graphs[3], &lih] {
                device.push((h.clone(), target));
            }
        }
        let catalog = Catalog { rebind, device };
        assert_eq!(catalog.class_names().len(), STRUCTURES + 2);
        catalog
    }

    /// Names of the classes [`Frame::class`] numbers.
    fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.rebind.iter().map(|h| h.name().to_string()).collect();
        names.extend(
            self.device
                .iter()
                .map(|(h, target)| format!("{}@{target}", h.name())),
        );
        names.extend(["fresh".to_string(), "deadline".to_string()]);
        names
    }

    /// `h` with fresh coefficients from `rng`.
    fn reweighed(h: &Hamiltonian, rng: &mut Xoshiro256) -> Hamiltonian {
        let terms = h
            .terms()
            .iter()
            .map(|(p, _)| (p.clone(), rng.next_range_f64(-0.1, 0.1)))
            .collect();
        Hamiltonian::new(h.name(), h.num_qubits(), terms)
    }

    /// The `k`-th frame of request kind `kind`. Rebinds and device compiles
    /// cycle through their structures, and fresh and deadline programs
    /// through their families and sizes, so every stretch of the run sees
    /// them in the same proportions, and the largest fresh programs, which
    /// set the p99, have the same sizes for every seed. The seed draws
    /// coefficients and terms.
    fn frame(&self, kind: usize, k: usize, rng: &mut Xoshiro256) -> Frame {
        match kind {
            0 => {
                let s = k % self.rebind.len();
                let h = Catalog::reweighed(&self.rebind[s], rng);
                Frame::new(0, Some(s), &h, "cnot", None)
            }
            1 => {
                let family = Family::ALL[k % Family::ALL.len()];
                let shape = k / Family::ALL.len();
                let (n, t) = (8 + shape % 5, 30 + shape / 5 % 4 * 30);
                Frame::new(1, None, &random_program(rng, family, n, t), "cnot", None)
            }
            2 => {
                let d = k % self.device.len();
                let (h, target) = &self.device[d];
                let h = Catalog::reweighed(h, rng);
                Frame::new(2, Some(self.rebind.len() + d), &h, target, None)
            }
            _ => {
                let (n, t) = (6 + k % 3, 20 + k / 3 % 3 * 10);
                let h = random_program(rng, Family::Random, n, t);
                Frame::new(3, None, &h, "cnot", Some(DEADLINE_MS))
            }
        }
    }

    /// One frame per fixed structure (rebinds, then device compiles), for
    /// the warm-up pass and the quality totals.
    fn warmup(&self, rng: &mut Xoshiro256) -> Vec<Frame> {
        let mut frames = Vec::new();
        for (s, h) in self.rebind.iter().enumerate() {
            frames.push(Frame::new(
                0,
                Some(s),
                &Catalog::reweighed(h, rng),
                "cnot",
                None,
            ));
        }
        for (d, (h, target)) in self.device.iter().enumerate() {
            let h = Catalog::reweighed(h, rng);
            frames.push(Frame::new(2, Some(self.rebind.len() + d), &h, target, None));
        }
        frames
    }
}

fn random_program(rng: &mut Xoshiro256, family: Family, n: usize, t: usize) -> Hamiltonian {
    let p = RandomProgramGen::new(rng.next_u64()).program(family, n, t);
    Hamiltonian::new(format!("random-{}", p.seed), n, p.terms)
}

/// The counts of an in-process, uncached compile of `frame` through the
/// service's own `execute_spec`.
fn compiled_counts(frame: &Frame) -> Result<(usize, usize), String> {
    let spec = frame.spec()?;
    let reply = execute_spec(
        &spec,
        None,
        None,
        spec.deadline_ms.map(Duration::from_millis),
    );
    let count = |key: &str| reply.get(key).and_then(Value::as_u64).map(|n| n as usize);
    match (
        reply.get("status").and_then(Value::as_str),
        count("two_qubit"),
        count("depth_2q"),
    ) {
        (Some("ok"), Some(two_qubit), Some(depth_2q)) => Ok((two_qubit, depth_2q)),
        _ => Err(format!(
            "in-process compile: {:.200}",
            protocol::render(&reply)
        )),
    }
}

/// Checks one reply against its frame's expectation.
fn check_reply(frame: &Frame, reply: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("reply not ok: {reply:.200}"));
    }
    let counts = (
        v.get("two_qubit").and_then(Value::as_u64),
        v.get("depth_2q").and_then(Value::as_u64),
    );
    let want = match frame.expect {
        Expect::Ok => return Ok(()),
        Expect::Counts(q, d) => (q, d),
        Expect::Compile => compiled_counts(frame)?,
    };
    if counts != (Some(want.0 as u64), Some(want.1 as u64)) {
        return Err(format!(
            "reply counts {counts:?} differ from the in-process compile's {want:?}"
        ));
    }
    Ok(())
}

/// A running in-process server; dropping it drains and joins it.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeReport>>,
}

impl Running {
    fn start() -> std::io::Result<Running> {
        let server = Server::new(ServerConfig {
            workers: 2,
            // `phoenixd --queue 64`: at [`RATE`] the queue fills only after
            // the host stalls both workers for ≈ 300 ms; with 16 slots an
            // ≈ 80 ms stall, which this host has, sheds requests.
            queue_capacity: 64,
            cache_capacity: CACHE_CAPACITY,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run_tcp(listener));
        Ok(Running {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Drains the server and returns its final report.
    fn stop(mut self) -> Result<ServeReport, String> {
        self.handle.shutdown();
        self.thread
            .take()
            .expect("joined only once")
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends `frame` as request `id` and waits for its reply.
fn round_trip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frame: &Frame,
    id: usize,
) -> Result<String, String> {
    stream
        .write_all(frame.line(id).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Ok(reply),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// Set-up state: the frames, the warm-up frames, and a started server.
struct Ready {
    frames: Vec<Frame>,
    warmup: Vec<Frame>,
    server: Running,
}

/// `count` frames of the mix, and the warm-up frames, drawn from `seed`.
fn generate(seed: u64, count: usize) -> (Vec<Frame>, Vec<Frame>) {
    let catalog = Catalog::new(seed);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let warmup = catalog.warmup(&mut rng);
    let mut drawn = [0; KINDS.len()];
    let mut frames = Vec::with_capacity(count + MIX.len());
    while frames.len() < count {
        let mut block = MIX;
        rng.shuffle(&mut block);
        for kind in block {
            frames.push(catalog.frame(kind, drawn[kind], &mut rng));
            drawn[kind] += 1;
        }
    }
    frames.truncate(count);
    (frames, warmup)
}

fn setup(seed: u64, count: usize) -> Result<Ready, String> {
    let (frames, warmup) = generate(seed, count);
    let server = Running::start().map_err(|e| format!("starting the server: {e}"))?;
    Ok(Ready {
        frames,
        warmup,
        server,
    })
}

/// The warm-up and verification pass: every fixed structure once, in
/// process and through the server, on one connection. Primes the server's
/// cache, fixes the counts every later frame of the structure must show,
/// and adds up the quality totals.
fn warm_up(ready: &mut Ready, m: &mut Measured) -> Result<(), String> {
    let (mut stream, mut reader) =
        connect(ready.server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut expected = Vec::with_capacity(ready.warmup.len());
    for (i, frame) in ready.warmup.iter().enumerate() {
        m.attempted += 1;
        let (two_qubit, depth_2q) = compiled_counts(frame)?;
        let reply = round_trip(&mut stream, &mut reader, frame, i)?;
        check_reply(frame, &reply).map_err(|e| format!("warm-up frame {i}: {e}"))?;
        m.quality.add(Quality {
            two_qubit,
            depth_2q,
            swaps: 0,
        });
        expected.push(Expect::Counts(two_qubit, depth_2q));
    }
    for frame in &mut ready.frames {
        if let Some(s) = frame.structure {
            frame.expect = expected[s];
        }
    }
    Ok(())
}

/// What the open loop saw.
struct OpenLoopRun {
    /// `(class, ms from due time)` per answered request, in send order.
    latencies: Vec<(usize, f64)>,
    /// Sender lateness per request sent, ms.
    lateness: Vec<f64>,
    /// Share of requests not answered `ok` within [`SLO_MS`] (failures
    /// included).
    slo_miss_ratio: f64,
}

/// Sends `frames` at [`RATE`] on one connection, one sender thread and
/// one reader thread, timing each request from when it was due.
fn open_loop(addr: SocketAddr, frames: &[Frame], m: &mut Measured) -> Result<OpenLoopRun, String> {
    let (mut stream, mut reader) = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let lines: Vec<String> = frames.iter().enumerate().map(|(i, f)| f.line(i)).collect();
    let schedule = OpenLoop::new(Instant::now() + Duration::from_millis(20), RATE);
    let mut sent = Vec::with_capacity(frames.len());
    let replies = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut replies = Vec::with_capacity(frames.len());
            for _ in 0..frames.len() {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(n) if n > 0 => replies.push((Instant::now(), line)),
                    _ => break,
                }
            }
            replies
        });
        for (i, line) in lines.iter().enumerate() {
            let due = schedule.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent.push(Instant::now());
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        receiver.join().unwrap_or_default()
    });
    let mut answered: Vec<Option<(Instant, String)>> = vec![None; frames.len()];
    for (at, line) in replies {
        let id = serde_json::from_str::<Value>(&line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_u64))
            .map(|id| id as usize);
        match id {
            Some(id) if id < frames.len() => answered[id] = Some((at, line)),
            _ => m
                .failures
                .push(format!("reply without a known id: {line:.200}")),
        }
    }
    let mut latencies = Vec::with_capacity(frames.len());
    let mut slo_misses = 0;
    for (i, (frame, reply)) in frames.iter().zip(answered).enumerate() {
        m.attempted += 1;
        let Some((at, line)) = reply else {
            m.failures
                .push(format!("open-loop request {i} was never answered"));
            slo_misses += 1;
            continue;
        };
        let ms = schedule.since_due_ms(i, at);
        latencies.push((frame.class(), ms));
        match check_reply(frame, &line) {
            Ok(()) if ms <= SLO_MS => {}
            Ok(()) => slo_misses += 1,
            Err(e) => {
                m.failures.push(format!("open-loop request {i}: {e}"));
                slo_misses += 1;
            }
        }
    }
    Ok(OpenLoopRun {
        latencies,
        lateness: sent
            .iter()
            .enumerate()
            .map(|(i, at)| schedule.since_due_ms(i, *at))
            .collect(),
        slo_miss_ratio: slo_misses as f64 / frames.len().max(1) as f64,
    })
}

/// The service's own work for each frame, in process and one at a time:
/// `parse_request`, `execute_spec` against a cache like the server's
/// (primed by `warmup`), and `render`, the calls a server worker makes.
/// Timing it apart from the server leaves out the loopback and the
/// hand-offs between the server's threads, whose CPU cost on a shared host
/// follows the host more than the compiler; the open and closed loops
/// measure those.
fn in_process(warmup: &[Frame], frames: &[Frame], m: &mut Measured) -> Result<(), String> {
    let cache = Arc::new(CompileCache::with_capacity(CACHE_CAPACITY));
    for (i, frame) in warmup.iter().enumerate() {
        service_op(frame.line(i).trim_end(), &cache, &mut Op::start(""))?;
    }
    let mut replies = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let line = frame.line(i);
        let (reply, cost) = timed(|| service_op(line.trim_end(), &cache, &mut Op::start("")));
        m.ops.push((frame.class(), cost));
        replies.push(reply?);
        m.calibration.tick();
    }
    for (i, (frame, reply)) in frames.iter().zip(&replies).enumerate() {
        m.attempted += 1;
        if let Err(e) = check_reply(frame, reply) {
            m.failures.push(format!("in-process frame {i}: {e}"));
        }
    }
    Ok(())
}

/// What the closed loop saw.
struct ClosedLoopRun {
    /// Round-trip ms per answered request.
    latencies: Vec<f64>,
    /// Cost of the whole phase.
    cost: Cost,
}

/// Two connections, each sending its next frame once the last one is
/// answered, until every frame was sent once.
fn closed_loop(
    addr: SocketAddr,
    frames: &[Frame],
    m: &mut Measured,
) -> Result<ClosedLoopRun, String> {
    let next = AtomicUsize::new(0);
    let start = Stamp::now();
    let results = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<(usize, String, f64)>, String> {
                    let (mut stream, mut reader) =
                        connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut replies = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(frame) = frames.get(k) else {
                            return Ok(replies);
                        };
                        let sent = Instant::now();
                        let reply = round_trip(&mut stream, &mut reader, frame, k)?;
                        replies.push((k, reply, sent.elapsed().as_secs_f64() * 1e3));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Vec<_>>()
    });
    let cost = start.elapsed();
    let mut latencies = Vec::with_capacity(frames.len());
    for result in results {
        for (k, reply, ms) in result? {
            m.attempted += 1;
            latencies.push(ms);
            if let Err(e) = check_reply(&frames[k], &reply) {
                m.failures.push(format!("closed-loop request {k}: {e}"));
            }
        }
    }
    Ok(ClosedLoopRun { latencies, cost })
}

/// Frames of the open loop (half the measured time at [`RATE`], and at
/// least [`crate::MIN_OPS`], so the loop may run longer), of the
/// in-process loop, and of the closed loop.
fn frame_counts(args: RunArgs) -> [usize; 3] {
    let open = OpenLoop::new(Instant::now(), RATE)
        .count_in(Duration::from_secs_f64(args.seconds / 2.0))
        .max(crate::MIN_OPS);
    let closed = ((args.seconds * CLOSED_FRAMES_PER_S).ceil() as usize).max(crate::MIN_OPS);
    [open, crate::MIN_OPS, closed]
}

/// The untraced run: warm-up; the open loop for latency under load at a
/// fixed rate; the closed loop on two connections, for round-trip latency
/// and throughput; then, with the server stopped, the in-process loop for
/// the CPU cost of each request's service work.
pub fn run(args: RunArgs) -> Measured {
    let [open, seq, closed] = frame_counts(args);
    let (ready, setup) = setup_repeated(|| setup(args.seed, open + seq + closed));
    let mut m = Measured {
        setup,
        classes: Catalog::new(args.seed).class_names(),
        ..Measured::default()
    };
    let result = ready.and_then(|mut ready| {
        warm_up(&mut ready, &mut m)?;
        let addr = ready.server.addr;
        let (open_frames, rest) = ready.frames.split_at(open);
        let (seq_frames, closed_frames) = rest.split_at(seq);
        let open = open_loop(addr, open_frames, &mut m)?;
        let closed = closed_loop(addr, closed_frames, &mut m)?;
        let report = ready.server.stop()?;
        in_process(&ready.warmup, seq_frames, &mut m)?;
        Ok((open, closed, report))
    });
    let (open, closed, report) = match result {
        Ok(parts) => parts,
        Err(e) => {
            m.failures.push(e);
            return m;
        }
    };
    let lateness = stats::sorted(&open.lateness);
    let lateness_p99 = stats::tail_percentile(&lateness, 99.0).unwrap_or(f64::NAN);
    if lateness_p99 > MAX_LATENESS_MS {
        eprintln!(
            "serve-mixed: sender lateness p99 {lateness_p99:.3} ms exceeds {MAX_LATENESS_MS} ms"
        );
    }
    let answered = closed.latencies.len();
    m.latency = open.latencies;
    m.throughput = Some((answered, closed.cost));
    // Nearest-rank, NaN with fewer than ten samples beyond.
    let closed_latency = stats::sorted(&closed.latencies);
    let pct = |p| stats::tail_percentile(&closed_latency, p).unwrap_or(f64::NAN);
    m.notes.extend([
        ("closed_loop_latency_ms_p50", pct(50.0), "ms"),
        ("closed_loop_latency_ms_p99", pct(99.0), "ms"),
        (
            "closed_loop_cpu_ms_per_request",
            closed.cost.cpu_ms / answered.max(1) as f64,
            "ms",
        ),
        ("slo_miss_ratio", open.slo_miss_ratio, "ratio"),
        ("slo_ms", SLO_MS, "ms"),
        ("rate_per_s", RATE, "1/s"),
        ("sender_lateness_ms_p99", lateness_p99, "ms"),
        (
            "queue_wait_ms_p50",
            report.queue_wait_p50_us as f64 / 1e3,
            "ms",
        ),
        (
            "queue_wait_ms_p99",
            report.queue_wait_p99_us as f64 / 1e3,
            "ms",
        ),
        ("shed", report.shed as f64, "count"),
        (
            "cache_program_hit_ratio",
            report.cache.program_hit_rate(),
            "ratio",
        ),
        ("cache_evictions", report.cache.evictions as f64, "count"),
    ]);
    m
}

/// A compile of `spec` with the options `execute_spec` uses, but without
/// `obs(true)`, for the obs-off side of `obs.overhead_ratio`.
fn spec_request(spec: &CompileSpec) -> CompileRequest {
    let budget = spec.deadline_ms.map(Duration::from_millis);
    let mut options = PhoenixOptions {
        pass_budget: budget,
        anytime_rounds: budget.map(phoenix_serve::deepening_rounds),
        ..PhoenixOptions::default()
    };
    if let Some(lookahead) = spec.lookahead {
        options.lookahead = lookahead;
    }
    CompileRequest::new(spec.qubits, &spec.terms)
        .target(spec.target.clone())
        .options(options)
}

/// One service op: parse, execute against `cache`, render.
fn service_op(line: &str, cache: &Arc<CompileCache>, op: &mut Op) -> Result<String, String> {
    let request = op
        .span("serve.parse", "parse_request", || {
            protocol::parse_request(line, 1)
        })
        .map_err(|reply| format!("frame rejected: {}", protocol::render(&reply)))?;
    let Request::Compile(spec) = request else {
        return Err("not a compile frame".to_string());
    };
    let budget = spec.deadline_ms.map(Duration::from_millis);
    let reply = op.span("serve.execute", "execute_spec", || {
        execute_spec(&spec, Some(cache), None, budget)
    });
    Ok(op.span("serve.render", "render", || protocol::render(&reply)))
}

/// The traced run: in-process replay of the service layers, then a short
/// open loop against a real server for queue wait and cache behaviour.
pub fn trace(args: RunArgs) -> Traced {
    let mut out = Traced::default();
    let frames: usize = frame_counts(args).iter().sum();
    out.metrics.insert(
        "hamil.generate.ms",
        median_cpu_ms(|| generate(args.seed, frames)),
    );
    let (frames, _) = generate(args.seed, TRACED_FRAMES);
    let lines: Vec<String> = frames.iter().enumerate().map(|(i, f)| f.line(i)).collect();
    let specs = match frames
        .iter()
        .map(Frame::spec)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(specs) => specs,
        Err(e) => {
            out.failures.push(e);
            return out;
        }
    };
    // The obs comparison must come first: `obs(true)`, which every service
    // op also sets, turns on process-global metric recording for good. An
    // untimed pass warms it up.
    for spec in &specs {
        drop(spec_request(spec).run());
    }
    let (_, plain) = timed(|| {
        for spec in &specs {
            drop(spec_request(spec).run());
        }
    });
    let (_, obs) = timed(|| {
        for spec in &specs {
            drop(spec_request(spec).obs(true).run());
        }
    });
    out.metrics
        .insert("obs.overhead_ratio", obs.wall_ms / plain.wall_ms);
    let reference: Vec<_> = frames
        .iter()
        .map(|f| match f.expect {
            Expect::Ok => Ok(Expect::Ok),
            _ => compiled_counts(f).map(|(q, d)| Expect::Counts(q, d)),
        })
        .collect();
    // Untraced and traced service ops use caches of their own, so both see
    // the same sequence of hits and misses.
    let (untraced_cache, traced_cache) = (
        Arc::new(CompileCache::with_capacity(CACHE_CAPACITY)),
        Arc::new(CompileCache::with_capacity(CACHE_CAPACITY)),
    );
    let mut recorder = Recorder::new();
    let mut attributed = Vec::with_capacity(frames.len());
    for (i, (frame, line)) in frames.iter().zip(&lines).enumerate() {
        out.attempted += 1;
        let (_, untraced) =
            timed(|| service_op(line.trim_end(), &untraced_cache, &mut Op::start("")));
        let (op, reply) = crate::trace::covered(|| {
            let mut op = Op::start(KINDS[frame.kind]);
            let reply = service_op(line.trim_end(), &traced_cache, &mut op);
            (op, reply)
        });
        attributed.push(op.attributed_ms());
        recorder.finish(op, untraced.wall_ms);
        let checked = reply.and_then(|reply| {
            let expect = reference[i].clone()?;
            check_reply(
                &Frame {
                    expect,
                    ..frame.clone()
                },
                &reply,
            )
        });
        if let Err(e) = checked {
            recorder.failures.push(format!("replayed frame {i}: {e}"));
        }
    }
    recorder.metrics(&mut out);
    // A short open loop on a real server: queue wait and the shared cache.
    let (frames, warmup) = generate(args.seed ^ 0x09e4, crate::MIN_OPS);
    let mut m = Measured::default();
    let open = Running::start()
        .map_err(|e| format!("starting the server: {e}"))
        .and_then(|server| {
            let mut ready = Ready {
                frames,
                warmup,
                server,
            };
            warm_up(&mut ready, &mut m)?;
            let open = open_loop(ready.server.addr, &ready.frames, &mut m)?;
            Ok((open, ready.server.stop()?))
        });
    out.attempted += m.attempted;
    out.failures.append(&mut m.failures);
    match open {
        Ok((open, report)) => {
            let e2e: Vec<f64> = open.latencies.iter().map(|l| l.1).collect();
            let e2e = stats::sorted(&e2e);
            let (e2e_p50, e2e_p99) = (stats::percentile(&e2e, 50.0), stats::percentile(&e2e, 99.0));
            let queue_p50 = report.queue_wait_p50_us as f64 / 1e3;
            let queue_p99 = report.queue_wait_p99_us as f64 / 1e3;
            let unattributed = e2e_p50 - stats::median(&attributed) - queue_p50;
            out.metrics.extend([
                ("serve.queue_wait.p50_share", queue_p50 / e2e_p50),
                ("serve.queue_wait.p99_share", queue_p99 / e2e_p99),
                ("serve.unattributed.p50_share", unattributed / e2e_p50),
                ("serve.slo_miss_ratio", open.slo_miss_ratio),
                ("cache.program_hit_ratio", report.cache.program_hit_rate()),
                ("cache.group_hit_ratio", report.cache.group_hit_rate()),
                ("cache.evictions", report.cache.evictions as f64),
            ]);
        }
        Err(e) => out.failures.push(e),
    }
    crate::suite::finish_trace(&mut out, recorder, "serve-mixed");
    out
}
