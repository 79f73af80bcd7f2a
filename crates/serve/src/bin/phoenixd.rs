//! `phoenixd` — the long-running PHOENIX compile server.
//!
//! Speaks the line-delimited JSON protocol over TCP (`--tcp ADDR`) or
//! stdin/stdout (`--stdio`, the default). SIGTERM/SIGINT and stdin EOF all
//! initiate the same graceful drain: admissions stop, in-flight work
//! completes, replies flush, and the final observability report is printed
//! to stderr (and `--report FILE` as JSON).
//!
//! ```text
//! phoenixd --tcp 127.0.0.1:0 --workers 4 --queue 16 --report serve.json
//! ```
//!
//! With `--tcp` and port 0 the chosen port is announced on stdout as
//! `listening on ADDR`, so harnesses can spawn the daemon on an ephemeral
//! port and parse the line.

use std::io::Read;
use std::net::TcpListener;
use std::os::fd::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

use phoenix_serve::{Server, ServerConfig, ServerHandle};

// The only libc surface needed, avoiding a signal-handling dependency.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// The write end of the socket pair the signal handler wakes the shutdown
/// monitor through. Set once before the handlers are installed and never
/// closed, so the monitor's read sees a byte, never an end of file. The
/// first signal takes it, so one byte is all that is ever written. The
/// descriptor is the only value it publishes, so `Relaxed` suffices.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_sig: i32) {
    let fd = WAKE_FD.swap(-1, Ordering::Relaxed);
    if fd >= 0 {
        // SAFETY: `write(2)` is async-signal-safe, and the buffer is one
        // live byte. It is the first byte written to the open write end,
        // so the call never waits.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via `signal(2)`
/// and returns the socket the shutdown monitor blocks on.
fn install_signal_handlers() -> std::io::Result<UnixStream> {
    let (wake, wake_tx) = UnixStream::pair()?;
    WAKE_FD.store(wake_tx.into_raw_fd(), Ordering::Relaxed);
    // SAFETY: `on_signal` only swaps an atomic and calls `write(2)`, both
    // async-signal-safe, and `WAKE_FD` is set before either signal can
    // reach it.
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
    Ok(wake)
}

/// Bridges a signal to a graceful drain: blocks until the handler writes,
/// then shuts the server down.
fn spawn_shutdown_monitor(mut wake: UnixStream, handle: ServerHandle) {
    std::thread::spawn(move || {
        if wake.read_exact(&mut [0u8]).is_ok() {
            eprintln!("phoenixd: shutdown signal received; draining");
            handle.shutdown();
        }
    });
}

struct Args {
    tcp: Option<String>,
    config: ServerConfig,
    report_path: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: phoenixd [--stdio | --tcp ADDR] [--workers N] [--queue N] [--cache N]\n\
         \x20               [--max-frame-bytes N] [--default-deadline-ms N] [--report FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        tcp: None,
        config: ServerConfig::default(),
        report_path: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("phoenixd: {name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--stdio" => args.tcp = None,
            "--tcp" => args.tcp = Some(value("--tcp")),
            "--workers" => args.config.workers = parse_num(&value("--workers"), "--workers"),
            "--queue" => {
                args.config.queue_capacity = parse_num(&value("--queue"), "--queue");
            }
            "--cache" => args.config.cache_capacity = parse_num(&value("--cache"), "--cache"),
            "--max-frame-bytes" => {
                args.config.max_frame_bytes =
                    parse_num(&value("--max-frame-bytes"), "--max-frame-bytes");
            }
            "--default-deadline-ms" => {
                let ms: u64 = parse_num(&value("--default-deadline-ms"), "--default-deadline-ms");
                args.config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--report" => args.report_path = Some(value("--report")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("phoenixd: unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("phoenixd: invalid value `{s}` for {flag}");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let wake = match install_signal_handlers() {
        Ok(wake) => wake,
        Err(e) => {
            eprintln!("phoenixd: cannot install signal handlers: {e}");
            return ExitCode::from(1);
        }
    };
    let server = Server::new(args.config);
    spawn_shutdown_monitor(wake, server.handle());
    let report = match &args.tcp {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("phoenixd: cannot bind {addr}: {e}");
                    return ExitCode::from(1);
                }
            };
            match listener.local_addr() {
                Ok(local) => println!("listening on {local}"),
                Err(_) => println!("listening on {addr}"),
            }
            server.run_tcp(listener)
        }
        None => server.run_stdio(),
    };
    eprintln!("{}", report.render());
    if let Some(path) = &args.report_path {
        let json = phoenix_serve::protocol::render(&report.to_json());
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("phoenixd: cannot write report {path}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
