//! The `phoenixd` server: bounded worker pool, admission control, deadline
//! check at dispatch, cancellation registry, panic isolation, and graceful
//! drain.
//!
//! Concurrency model (no async runtime — `std::net` + scoped threads,
//! following the pipeline's own deterministic `std::thread::scope` idiom):
//!
//! - the **accept loop** runs on the caller's thread, blocked in `accept`;
//! - each **connection** gets a reader thread (frame assembly with a hard
//!   size bound, strict parsing, idle reaping) and a writer thread (reply
//!   serialization behind a write timeout, so one slow client never blocks
//!   a worker); stdio is one connection whose stdin thread feeds the same
//!   assembler. Each thread blocks on its own input, and a shutdown wakes
//!   the accept loop and every reader;
//! - a fixed pool of **worker supervisors** each run a worker loop inside
//!   `catch_unwind`: a worker that dies is logged, counted, its request
//!   answered with a typed `panic` reply, and the loop re-entered — the
//!   process lives. A worker checks a request's deadline once, when it
//!   picks the request up: an expired one is answered `deadline_exceeded`,
//!   and any other compiles with the time left as its pass budget, which
//!   stops deepening at the deadline while lowering and routing finish.
//!
//! Admission is a bounded queue: when full, requests are *shed* with a
//! typed `overloaded` reply carrying a `retry_after_ms` estimate — never
//! queued unboundedly, never silently dropped. Shutdown (SIGTERM handler or
//! [`ServerHandle::shutdown`]) stops admissions with `shutting_down`
//! replies, drains every admitted job, flushes every reply, and returns a
//! final [`ServeReport`].

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use phoenix_core::phoenix_cache::{CacheStats, CompileCache};
use phoenix_core::CancelToken;
use serde_json::Value;

use crate::protocol::{
    self, cancelling_reply, error_reply, parse_request, pong_reply, render, CompileSpec, ErrorKind,
    FleetSpec, Request, DEFAULT_MAX_FRAME_BYTES,
};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads compiling admitted requests.
    pub workers: usize,
    /// Admission queue bound; requests beyond it are shed with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Per-frame size bound; larger frames are rejected with
    /// `frame_too_large`.
    pub max_frame_bytes: usize,
    /// Capacity of the shared compile cache (entries per map).
    pub cache_capacity: usize,
    /// How long a reply write may block before the client is declared slow
    /// and its connection dropped.
    pub write_timeout: Duration,
    /// How long a connection may sit idle (no bytes, nothing in flight)
    /// before being reaped. A read times out after it, so a connection is
    /// reaped between one and two timeouts after its last byte.
    pub idle_timeout: Duration,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`: admission writes it into the frame, in whole
    /// milliseconds, so it picks the QoS tier as a client's would.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 16,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            cache_capacity: 256,
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            default_deadline: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics_contained: AtomicU64,
    worker_deaths: AtomicU64,
    invalid_frames: AtomicU64,
    oversized_frames: AtomicU64,
    slow_client_drops: AtomicU64,
    reaped_connections: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) -> u64 {
        field.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The work payload of an admitted job: a single-device compile or a
/// fleet compile. Admission control, deadlines, cancellation, and panic
/// containment treat both identically.
enum JobSpec {
    Compile(CompileSpec),
    Fleet(FleetSpec),
}

impl JobSpec {
    fn id(&self) -> u64 {
        match self {
            JobSpec::Compile(s) => s.id,
            JobSpec::Fleet(s) => s.id,
        }
    }

    fn deadline_ms(&mut self) -> &mut Option<u64> {
        match self {
            JobSpec::Compile(s) => &mut s.deadline_ms,
            JobSpec::Fleet(s) => &mut s.deadline_ms,
        }
    }

    fn execute(
        &self,
        cache: &Arc<CompileCache>,
        cancel: CancelToken,
        budget: Option<Duration>,
    ) -> Value {
        match self {
            JobSpec::Compile(s) => crate::execute_spec(s, Some(cache), Some(cancel), budget),
            JobSpec::Fleet(s) => crate::execute_fleet_spec(s, Some(cache), Some(cancel), budget),
        }
    }
}

/// An admitted compile job, queued for a worker.
struct Job {
    conn: u64,
    spec: JobSpec,
    token: CancelToken,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Sender<String>,
}

/// What a worker supervisor needs to answer for a job whose worker died.
struct JobMeta {
    conn: u64,
    id: u64,
    reply: Sender<String>,
}

struct ServerState {
    config: ServerConfig,
    cache: Arc<CompileCache>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    conns: Mutex<Connections>,
    counters: Counters,
    /// Microseconds each of the most recent [`MAX_WAIT_SAMPLES`] admitted
    /// jobs waited in the queue (admission → worker pickup), oldest first,
    /// for the report's percentiles.
    queue_waits_us: Mutex<VecDeque<u64>>,
    /// EWMA of job execution time in microseconds, for `retry_after_ms`.
    avg_job_us: AtomicU64,
    /// Set once, by `shutdown`, under the queue lock and before it takes
    /// the connection lock. Workers, registration and `close` read it under
    /// or after one of those locks, so `Relaxed` suffices.
    draining: AtomicBool,
}

/// Cap on retained queue-wait samples (~800 KiB): a newer wait replaces
/// the oldest.
const MAX_WAIT_SAMPLES: usize = 100_000;

/// What a shutdown wakes and a cancel or a hang-up reaches: the address
/// of the listener, and each open connection with a clone of its socket
/// (none for stdio) and the cancel tokens of its jobs in flight, by id.
#[derive(Default)]
struct Connections {
    listener: Option<SocketAddr>,
    open: HashMap<u64, Connection>,
}

#[derive(Default)]
struct Connection {
    socket: Option<TcpStream>,
    jobs: HashMap<u64, CancelToken>,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Sets the drain flag and wakes every blocked thread: idle workers
    /// under the queue lock, so a worker that found the flag clear is
    /// already waiting on the condvar; each reader by shutting its socket
    /// for reading; and the accept loop by connecting to the listener (in
    /// bounded time, so a full backlog cannot hang the shutdown).
    fn shutdown(&self) {
        {
            let _queue = self.lock_queue();
            if self.draining.swap(true, Ordering::Relaxed) {
                return;
            }
            self.queue_cv.notify_all();
        }
        let conns = self.lock_conns();
        for socket in conns.open.values().filter_map(|c| c.socket.as_ref()) {
            let _ = socket.shutdown(Shutdown::Read);
        }
        if let Some(addr) = conns.listener {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Applies `add` to the connection table unless the server is draining,
    /// and says whether it did: under the lock a shutdown wakes it under.
    fn register(&self, add: impl FnOnce(&mut Connections)) -> bool {
        let mut conns = self.lock_conns();
        let open = !self.draining();
        if open {
            add(&mut conns);
        }
        open
    }

    /// Forgets connection `conn` once its reader has returned. Unless the
    /// server is draining (admitted work then completes and flushes), the
    /// client is gone: its jobs in flight are cancelled, so workers stop
    /// burning time on results nobody will observe.
    fn close(&self, conn: u64) {
        let closed = self.lock_conns().open.remove(&conn).unwrap_or_default();
        if !self.draining() {
            closed.jobs.values().for_each(CancelToken::cancel);
        }
    }

    /// Drops the cancel token of job `id` on connection `conn`.
    fn forget(&self, conn: u64, id: u64) {
        if let Some(c) = self.lock_conns().open.get_mut(&conn) {
            c.jobs.remove(&id);
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_conns(&self) -> std::sync::MutexGuard<'_, Connections> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record_wait(&self, us: u64) {
        let mut waits = self
            .queue_waits_us
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if waits.len() == MAX_WAIT_SAMPLES {
            waits.pop_front();
        }
        waits.push_back(us);
    }

    /// Backoff hint for a shed request: the queue's expected drain time at
    /// the current average job cost, clamped to a sane band.
    fn retry_after_ms(&self, queue_len: usize) -> u64 {
        let avg_us = self.avg_job_us.load(Ordering::Relaxed).max(1_000);
        let workers = self.config.workers.max(1) as u64;
        let est = (queue_len as u64 + 1) * avg_us / workers / 1_000;
        est.clamp(10, 10_000)
    }

    fn observe_job_time(&self, elapsed: Duration) {
        let us = (elapsed.as_micros() as u64).max(1);
        let old = self.avg_job_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (3 * old + us) / 4 };
        self.avg_job_us.store(new, Ordering::Relaxed);
    }
}

/// The final observability report a drained server returns: every serve
/// counter, admission-latency percentiles, and the shared cache's stats.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Admitted requests answered (any status).
    pub completed: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests answered `cancelled`.
    pub cancelled: u64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Worker panics contained (process lived).
    pub panics_contained: u64,
    /// Workers respawned after dying.
    pub worker_deaths: u64,
    /// Frames rejected as malformed/unknown-field/ill-typed.
    pub invalid_frames: u64,
    /// Frames rejected for exceeding the size bound.
    pub oversized_frames: u64,
    /// Connections dropped for blocking reply writes too long.
    pub slow_client_drops: u64,
    /// Idle half-open connections reaped.
    pub reaped_connections: u64,
    /// Median queue wait (admission → worker pickup) of the most recent
    /// 100 000 admissions, microseconds.
    pub queue_wait_p50_us: u64,
    /// 99th-percentile queue wait of the most recent 100 000 admissions,
    /// microseconds.
    pub queue_wait_p99_us: u64,
    /// Shared compile-cache statistics.
    pub cache: CacheStats,
}

impl ServeReport {
    /// The report as a JSON object (the shape `phoenixd --report` writes,
    /// which `tests/daemon.rs` audits after a SIGTERM drain).
    pub fn to_json(&self) -> Value {
        protocol::obj(vec![
            ("admitted", Value::Int(self.admitted as i64)),
            ("completed", Value::Int(self.completed as i64)),
            ("shed", Value::Int(self.shed as i64)),
            ("cancelled", Value::Int(self.cancelled as i64)),
            (
                "deadline_exceeded",
                Value::Int(self.deadline_exceeded as i64),
            ),
            ("panics_contained", Value::Int(self.panics_contained as i64)),
            ("worker_deaths", Value::Int(self.worker_deaths as i64)),
            ("invalid_frames", Value::Int(self.invalid_frames as i64)),
            ("oversized_frames", Value::Int(self.oversized_frames as i64)),
            (
                "slow_client_drops",
                Value::Int(self.slow_client_drops as i64),
            ),
            (
                "reaped_connections",
                Value::Int(self.reaped_connections as i64),
            ),
            (
                "queue_wait_p50_us",
                Value::Int(self.queue_wait_p50_us as i64),
            ),
            (
                "queue_wait_p99_us",
                Value::Int(self.queue_wait_p99_us as i64),
            ),
            ("cache", protocol::cache_stats_value(&self.cache)),
        ])
    }

    /// Human-readable one-per-line rendering (flushed to stderr on drain).
    pub fn render(&self) -> String {
        format!(
            "serve report\n  admitted              {}\n  completed             {}\n  \
             shed (overloaded)     {}\n  cancelled             {}\n  deadline exceeded     {}\n  \
             panics contained      {}\n  worker deaths         {}\n  invalid frames        {}\n  \
             oversized frames      {}\n  slow-client drops     {}\n  reaped connections    {}\n  \
             queue wait p50        {} us\n  queue wait p99        {} us\n  \
             cache hit rate        {:.2} (program) / {:.2} (group) / {:.2} (route), {} evictions",
            self.admitted,
            self.completed,
            self.shed,
            self.cancelled,
            self.deadline_exceeded,
            self.panics_contained,
            self.worker_deaths,
            self.invalid_frames,
            self.oversized_frames,
            self.slow_client_drops,
            self.reaped_connections,
            self.queue_wait_p50_us,
            self.queue_wait_p99_us,
            self.cache.program_hit_rate(),
            self.cache.group_hit_rate(),
            self.cache.route_hit_rate(),
            self.cache.evictions,
        )
    }
}

/// A shutdown/introspection handle, cloneable across threads (hand one to
/// a signal handler or a test driver).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Initiates graceful drain: admissions stop (new compile frames get
    /// `shutting_down`), queued and in-flight jobs complete, replies flush,
    /// then the serving call returns its final report.
    pub fn shutdown(&self) {
        self.state.shutdown();
    }
}

/// The compile server. Construct with a [`ServerConfig`], then block on
/// [`Server::run_tcp`] or [`Server::run_stdio`]; both return the final
/// [`ServeReport`] after a graceful drain.
pub struct Server {
    state: Arc<ServerState>,
}

impl Server {
    /// A server with the given configuration and a fresh bounded cache.
    pub fn new(config: ServerConfig) -> Self {
        let cache = Arc::new(CompileCache::with_capacity(config.cache_capacity));
        Server {
            state: Arc::new(ServerState {
                config,
                cache,
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                conns: Mutex::default(),
                counters: Counters::default(),
                queue_waits_us: Mutex::new(VecDeque::new()),
                avg_job_us: AtomicU64::new(0),
                draining: AtomicBool::new(false),
            }),
        }
    }

    /// A handle for initiating shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// The process-wide compile cache mounted across all workers.
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.state.cache
    }

    /// Serves TCP connections on `listener` until shutdown, then drains and
    /// returns the final report.
    pub fn run_tcp(&self, listener: TcpListener) -> ServeReport {
        let state = &*self.state;
        match listener.local_addr() {
            Ok(mut addr) => {
                // An unspecified address is reached at its family's loopback.
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                state.register(|conns| conns.listener = Some(addr));
            }
            // Without its address, a shutdown could not wake the listener.
            Err(_) => state.shutdown(),
        }
        self.serve(|scope| {
            let mut next_conn: u64 = 0;
            while !state.draining() {
                let Ok((stream, _)) = listener.accept() else {
                    // Out of descriptors, say: back off instead of spinning.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                let Some(socket) = prepare_stream(&stream, &state.config) else {
                    continue;
                };
                next_conn += 1;
                let conn = next_conn;
                // After a shutdown, this is its wake-up: the loop ends.
                if state.register(|c| c.open.entry(conn).or_default().socket = Some(socket)) {
                    scope.spawn(move || serve_connection(state, stream, conn));
                }
            }
        })
    }

    /// Serves line-delimited requests from stdin (replies to stdout) until
    /// EOF or shutdown, then drains and returns the final report. EOF on
    /// stdin ends a final frame that lacks its newline and initiates the
    /// same graceful drain as SIGTERM; stdin is never reaped as idle.
    pub fn run_stdio(&self) -> ServeReport {
        let (tx, rx) = mpsc::channel::<String>();
        let (state, stdin_tx) = (Arc::clone(&self.state), tx.clone());
        state.register(|conns| drop(conns.open.insert(0, Connection::default())));
        // stdin reads cannot be interrupted portably, so a detached thread
        // owns them and feeds the assembler itself; it dies with the
        // process if still blocked at exit.
        std::thread::spawn(move || {
            let mut frames = FrameAssembler::new(&state, 0, &stdin_tx);
            let mut stdin = std::io::stdin().lock();
            loop {
                let taken = match stdin.fill_buf() {
                    Ok([]) => break,
                    Ok(buf) => frames.feed(buf),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                stdin.consume(taken);
            }
            // EOF ends a final frame that lacks its newline.
            frames.feed(b"\n");
            state.shutdown();
        });
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut out = std::io::stdout().lock();
                for line in rx.iter().take_while(|line| !line.is_empty()) {
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                }
            });
            let report = self.serve(|_| {});
            // Every worker has replied; an empty line, which no reply
            // renders to, stops the printer.
            let _ = tx.send(String::new());
            report
        })
    }

    /// Runs `transport` on the calling thread beside the worker
    /// supervisors until the server drains, then returns the final report
    /// once `transport`'s threads and every admitted job are done (the
    /// shutdown that started the drain has woken the idle workers).
    fn serve<'env>(&'env self, transport: impl for<'s> FnOnce(&'s Scope<'s, 'env>)) -> ServeReport {
        let state: &'env ServerState = &self.state;
        std::thread::scope(|scope| {
            for slot in 0..state.config.workers.max(1) {
                scope.spawn(move || supervise_worker(state, slot));
            }
            transport(scope);
        });
        self.report()
    }

    /// Snapshot the counters and cache statistics (the final report when
    /// called after a drain).
    pub fn report(&self) -> ServeReport {
        let s = &self.state;
        let c = &s.counters;
        let mut waits: Vec<u64> = s
            .queue_waits_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        waits.sort_unstable();
        let pct = |p: f64| -> u64 {
            if waits.is_empty() {
                0
            } else {
                let idx = ((waits.len() as f64 - 1.0) * p).round() as usize;
                waits[idx.min(waits.len() - 1)]
            }
        };
        ServeReport {
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            panics_contained: c.panics_contained.load(Ordering::Relaxed),
            worker_deaths: c.worker_deaths.load(Ordering::Relaxed),
            invalid_frames: c.invalid_frames.load(Ordering::Relaxed),
            oversized_frames: c.oversized_frames.load(Ordering::Relaxed),
            slow_client_drops: c.slow_client_drops.load(Ordering::Relaxed),
            reaped_connections: c.reaped_connections.load(Ordering::Relaxed),
            queue_wait_p50_us: pct(0.50),
            queue_wait_p99_us: pct(0.99),
            cache: s.cache.stats(),
        }
    }
}

fn send(tx: &Sender<String>, reply: Value) {
    let _ = tx.send(render(&reply));
}

/// Routes one parsed frame: answer protocol probes inline, register and
/// enqueue compiles, resolve cancels against the registry.
fn handle_frame(state: &ServerState, conn: u64, frame: &str, line_no: u64, tx: &Sender<String>) {
    if frame.trim().is_empty() {
        return;
    }
    let request = match parse_request(frame, line_no) {
        Ok(request) => request,
        Err(reply) => {
            Counters::bump(&state.counters.invalid_frames);
            send(tx, reply);
            return;
        }
    };
    match request {
        Request::Ping { id } => send(tx, pong_reply(id)),
        Request::Stats { id } => send(tx, stats_reply(state, id)),
        Request::Cancel { id } => {
            let conns = state.lock_conns();
            let token = conns.open.get(&conn).and_then(|c| c.jobs.get(&id));
            let found = token.map(CancelToken::cancel).is_some();
            drop(conns);
            if found {
                send(tx, cancelling_reply(id));
            } else {
                send(
                    tx,
                    error_reply(
                        Some(id),
                        ErrorKind::NotFound,
                        "no in-flight request with this id on this connection",
                        Some(line_no),
                        None,
                    ),
                );
            }
        }
        Request::Compile(spec) => admit(state, conn, JobSpec::Compile(spec), tx),
        Request::Fleet(spec) => admit(state, conn, JobSpec::Fleet(spec), tx),
    }
}

fn stats_reply(state: &ServerState, id: u64) -> Value {
    let c = &state.counters;
    protocol::obj(vec![
        ("id", Value::Int(id as i64)),
        ("status", Value::Str("stats".to_string())),
        (
            "admitted",
            Value::Int(c.admitted.load(Ordering::Relaxed) as i64),
        ),
        (
            "completed",
            Value::Int(c.completed.load(Ordering::Relaxed) as i64),
        ),
        ("shed", Value::Int(c.shed.load(Ordering::Relaxed) as i64)),
        ("queue_depth", Value::Int(state.lock_queue().len() as i64)),
        ("cache", protocol::cache_stats_value(&state.cache.stats())),
    ])
}

/// Admission control: give a frame without a deadline the server's
/// default, then reject during drain, shed when the queue is full, and
/// otherwise register the cancel token and enqueue. The drain check holds
/// the queue lock, so every admitted job is one the workers drain.
fn admit(state: &ServerState, conn: u64, mut spec: JobSpec, tx: &Sender<String>) {
    let now = Instant::now();
    let deadline_ms = spec.deadline_ms();
    if deadline_ms.is_none() {
        *deadline_ms = state
            .config
            .default_deadline
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    }
    let deadline = deadline_ms.map(|ms| now + Duration::from_millis(ms));
    let token = CancelToken::new();
    {
        let mut queue = state.lock_queue();
        if state.draining() {
            drop(queue);
            let message = "server is draining; no new work admitted";
            let kind = ErrorKind::ShuttingDown;
            send(tx, error_reply(Some(spec.id()), kind, message, None, None));
            return;
        }
        if queue.len() >= state.config.queue_capacity {
            let hint = state.retry_after_ms(queue.len());
            drop(queue);
            Counters::bump(&state.counters.shed);
            send(
                tx,
                error_reply(
                    Some(spec.id()),
                    ErrorKind::Overloaded,
                    "admission queue full; backing off",
                    None,
                    Some(hint),
                ),
            );
            return;
        }
        if let Some(c) = state.lock_conns().open.get_mut(&conn) {
            c.jobs.insert(spec.id(), token.clone());
        }
        queue.push_back(Job {
            conn,
            spec,
            token,
            deadline,
            enqueued: now,
            reply: tx.clone(),
        });
        Counters::bump(&state.counters.admitted);
    }
    state.queue_cv.notify_one();
}

/// Blocks until a job is available; `None` once draining and empty.
fn pop_job(state: &ServerState) -> Option<Job> {
    let mut queue = state.lock_queue();
    loop {
        if let Some(job) = queue.pop_front() {
            return Some(job);
        }
        if state.draining() {
            return None;
        }
        queue = state
            .queue_cv
            .wait(queue)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// One worker slot: re-enter the worker loop every time it dies, answering
/// the fatal job with a typed `panic` reply first. The process survives
/// any per-request panic.
fn supervise_worker(state: &ServerState, slot: usize) {
    let current: Mutex<Option<JobMeta>> = Mutex::new(None);
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| worker_loop(state, &current)));
        match outcome {
            Ok(()) => break,
            Err(_) => {
                Counters::bump(&state.counters.worker_deaths);
                Counters::bump(&state.counters.panics_contained);
                let fatal = current.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(meta) = fatal {
                    state.forget(meta.conn, meta.id);
                    Counters::bump(&state.counters.completed);
                    send(
                        &meta.reply,
                        error_reply(
                            Some(meta.id),
                            ErrorKind::Panic,
                            "worker panicked while serving this request; worker respawned",
                            None,
                            None,
                        ),
                    );
                }
                eprintln!("phoenixd: worker {slot} died; respawning");
            }
        }
    }
}

fn worker_loop(state: &ServerState, current: &Mutex<Option<JobMeta>>) {
    while let Some(job) = pop_job(state) {
        let started = Instant::now();
        state.record_wait(started.duration_since(job.enqueued).as_micros() as u64);
        *current.lock().unwrap_or_else(|e| e.into_inner()) = Some(JobMeta {
            conn: job.conn,
            id: job.spec.id(),
            reply: job.reply.clone(),
        });
        #[cfg(feature = "sabotage")]
        if let JobSpec::Compile(spec) = &job.spec {
            if spec.sabotage == Some(protocol::Sabotage::Worker) {
                panic!("sabotage: injected worker panic");
            }
        }
        // The one deadline check: a request whose deadline has passed is
        // answered `deadline_exceeded` here, without compiling; any other
        // compiles with the time left as its pass budget, which stops
        // deepening at the deadline while lowering and routing finish.
        let budget = job.deadline.map(|d| d.saturating_duration_since(started));
        let reply = if budget == Some(Duration::ZERO) {
            Counters::bump(&state.counters.deadline_exceeded);
            error_reply(
                Some(job.spec.id()),
                ErrorKind::DeadlineExceeded,
                "compilation abandoned: wall-clock deadline exceeded",
                None,
                None,
            )
        } else {
            let reply = job.spec.execute(&state.cache, job.token.clone(), budget);
            if reply.get("kind").and_then(Value::as_str) == Some("cancelled") {
                Counters::bump(&state.counters.cancelled);
            }
            reply
        };
        state.observe_job_time(started.elapsed());
        Counters::bump(&state.counters.completed);
        send(&job.reply, reply);
        state.forget(job.conn, job.spec.id());
        *current.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// One TCP connection: a reader (this thread) assembling size-bounded
/// frames, and a writer thread flushing replies behind a write timeout.
fn serve_connection(state: &ServerState, stream: TcpStream, conn: u64) {
    let (tx, rx) = mpsc::channel::<String>();
    let stream = &stream;
    std::thread::scope(|scope| {
        scope.spawn(move || writer_loop(stream, rx, state));
        reader_loop(state, stream, conn, &tx);
        state.close(conn);
        drop(tx);
        // The writer exits once every reply sender is gone — i.e. after the
        // workers have answered this connection's remaining jobs.
    });
}

/// Sets up an accepted connection and returns the clone of its socket a
/// shutdown wakes its reader through, or `None` if it cannot be cloned.
/// Replies go out at once (`TCP_NODELAY`): with requests pipelined on one
/// connection, Nagle's algorithm would otherwise hold each reply until the
/// client's delayed ACK. Reads time out after `idle_timeout` (1 ms for a
/// zero one, which the option rejects) and writes after `write_timeout`.
/// The socket options are best effort.
fn prepare_stream(stream: &TcpStream, config: &ServerConfig) -> Option<TcpStream> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.idle_timeout.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    stream.try_clone().ok()
}

/// Flushes reply lines to the socket. A write that exceeds the timeout
/// marks the client slow: the connection's remaining replies are drained
/// and discarded (never blocking a worker), and the drop is counted.
fn writer_loop(mut stream: &TcpStream, rx: Receiver<String>, state: &ServerState) {
    let mut dead = false;
    for line in rx {
        if dead {
            continue;
        }
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        if stream.write_all(&bytes).is_err() || stream.flush().is_err() {
            dead = true;
            Counters::bump(&state.counters.slow_client_drops);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Reads a connection's frames through a [`FrameAssembler`] until the
/// client hangs up, a shutdown shuts the socket for reading, or the
/// connection is reaped: a read waited `idle_timeout` for a byte, and
/// nothing is in flight.
fn reader_loop(state: &ServerState, stream: &TcpStream, conn: u64, tx: &Sender<String>) {
    let mut reader = BufReader::new(stream);
    let mut frames = FrameAssembler::new(state, conn, tx);
    while !state.draining() {
        let buf = match reader.fill_buf() {
            Ok([]) => return, // EOF, or a shutdown's wake-up
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let conns = state.lock_conns();
                if conns.open.get(&conn).is_some_and(|c| c.jobs.is_empty()) {
                    Counters::bump(&state.counters.reaped_connections);
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let consumed = frames.feed(buf);
        reader.consume(consumed);
    }
}

/// Turns one connection's bytes into the frames [`handle_frame`] routes:
/// newline-delimited, numbered from 1 and converted from UTF-8 lossily.
/// A frame over `max_frame_bytes` is discarded while its bytes stream in
/// and answered `frame_too_large` at its newline, so the assembler never
/// holds more than the bound, whatever the client sends. Both transports
/// feed one.
struct FrameAssembler<'a> {
    state: &'a ServerState,
    conn: u64,
    tx: &'a Sender<String>,
    /// The current frame's bytes, unless it is over the bound.
    line: Vec<u8>,
    /// Whether the current frame went over the bound.
    oversized: bool,
    line_no: u64,
}

impl<'a> FrameAssembler<'a> {
    fn new(state: &'a ServerState, conn: u64, tx: &'a Sender<String>) -> Self {
        FrameAssembler {
            state,
            conn,
            tx,
            line: Vec::new(),
            oversized: false,
            line_no: 0,
        }
    }

    /// Takes `bytes` up to and including the first newline, routing the
    /// frame it ends, or all of `bytes` when there is none; returns how
    /// many bytes it took.
    fn feed(&mut self, bytes: &[u8]) -> usize {
        let newline = bytes.iter().position(|&b| b == b'\n');
        let body = &bytes[..newline.unwrap_or(bytes.len())];
        if self.oversized || self.line.len() + body.len() > self.state.config.max_frame_bytes {
            // Stop buffering a frame that can only be rejected.
            self.oversized = true;
            self.line.clear();
        } else {
            self.line.extend_from_slice(body);
        }
        let Some(newline) = newline else {
            return bytes.len();
        };
        self.line_no += 1;
        if std::mem::take(&mut self.oversized) {
            Counters::bump(&self.state.counters.oversized_frames);
            let message = "frame exceeds the size bound";
            let reply = error_reply(
                None,
                ErrorKind::FrameTooLarge,
                message,
                Some(self.line_no),
                None,
            );
            send(self.tx, reply);
        } else {
            let text = String::from_utf8_lossy(&self.line);
            handle_frame(self.state, self.conn, &text, self.line_no, self.tx);
        }
        self.line.clear();
        newline + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_disable_nagle_and_set_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("address")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(
            !accepted.nodelay().expect("query"),
            "Nagle is on by default"
        );
        let config = ServerConfig {
            write_timeout: Duration::from_millis(1234),
            ..ServerConfig::default()
        };
        let write_half = prepare_stream(&accepted, &config).expect("clone");
        assert!(accepted.nodelay().expect("query"));
        assert!(
            write_half.nodelay().expect("query"),
            "one socket, one option"
        );
        // The kernel rounds socket timeouts up to its clock tick.
        let near = |t: Option<Duration>, want: Duration| {
            t.is_some_and(|t| t >= want && t < want + Duration::from_millis(20))
        };
        assert!(near(
            accepted.read_timeout().expect("query"),
            config.idle_timeout
        ));
        assert!(near(
            write_half.write_timeout().expect("query"),
            config.write_timeout
        ));
        drop(client);
    }

    #[test]
    fn the_wait_percentiles_follow_the_most_recent_admissions() {
        let server = Server::new(ServerConfig::default());
        for _ in 0..MAX_WAIT_SAMPLES {
            server.state.record_wait(1);
        }
        for _ in 0..MAX_WAIT_SAMPLES / 50 {
            server.state.record_wait(1_000_000);
        }
        let report = server.report();
        assert_eq!(report.queue_wait_p50_us, 1);
        assert_eq!(report.queue_wait_p99_us, 1_000_000);
    }

    #[test]
    fn the_assembler_never_buffers_more_than_the_bound() {
        let bound = DEFAULT_MAX_FRAME_BYTES;
        let server = Server::new(ServerConfig::default());
        let (tx, rx) = mpsc::channel();
        let mut frames = FrameAssembler::new(&server.state, 1, &tx);
        let chunk = vec![b'z'; 64 << 10];
        for _ in 0..16 * bound / chunk.len() {
            assert_eq!(frames.feed(&chunk), chunk.len());
            assert!(frames.line.len() <= bound, "{} buffered", frames.line.len());
        }
        let mut rest: &[u8] = b"\n{\"op\":\"ping\",\"id\":3}\n";
        while !rest.is_empty() {
            rest = &rest[frames.feed(rest)..];
        }
        drop(frames);
        drop(tx);
        let replies: Vec<Value> = rx
            .iter()
            .map(|line| serde_json::from_str(&line).expect("a JSON reply"))
            .collect();
        assert_eq!(replies.len(), 2, "{replies:?}");
        let kind = replies[0].get("kind").and_then(Value::as_str);
        assert_eq!(kind, Some("frame_too_large"));
        assert_eq!(replies[0].get("line").and_then(Value::as_u64), Some(1));
        assert_eq!(render(&replies[1]), render(&pong_reply(3)));
        assert_eq!(server.report().oversized_frames, 1);
    }
}
