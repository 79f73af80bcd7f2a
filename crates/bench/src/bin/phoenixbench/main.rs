//! phoenixbench: the PHOENIX benchmark.
//!
//! One seeded command measures four workloads end to end — `chem-cnot`,
//! `device-route`, `vqe-sweep` and `serve-mixed` (see README.md for why
//! each was chosen) — and checks every output it measures. A traced run
//! (`--trace 1`) replays each workload layer by layer instead and prints
//! per-layer metrics. `compare` judges two sets of recorded runs.
//!
//! ```text
//! phoenixbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!              [--record FILE]
//! phoenixbench compare BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its own,
//! so peak memory is per workload and the process-global metrics switch
//! that instrumented compiles turn on cannot leak between workloads. The
//! last line of a workload's standard output is its result as one JSON
//! object; the exit code is nonzero if any output failed verification.
//!
//! Every timed stretch is measured twice: in wall-clock time and in the
//! CPU time of the whole process. The bounded end-to-end metrics use CPU
//! time, which leaves out the time a shared host takes the CPU away from
//! the process, calibrated for the host's speed during the run (see
//! `calibrate.rs`); wall-clock latency and throughput, and the raw CPU
//! times, are printed beside them. CPU time adds up every thread and
//! leaves out waiting, so the bounded metrics cannot judge a change to
//! parallelism, queueing or the service's loopback path; README.md gives
//! the measurements that kept wall-clock time out of them.

mod calibrate;
mod compare;
mod serve;
mod stats;
mod suite;
mod trace;
mod verify;
mod vqe;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Instant;

// `process_cpu_ms` and `peak_rss_mb` read Linux process clocks and
// `/proc`; the former relies on the 64-bit `struct timespec` layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("phoenixbench measures Linux process clocks and builds on 64-bit Linux only");

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["chem-cnot", "device-route", "vqe-sweep", "serve-mixed"];

/// Fewest timed operations per run: enough for ten samples beyond p99.
pub const MIN_OPS: usize = 1000;

/// Fewest set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// CPU time the set-up repetitions of a run spend at least, so that a
/// cheap set-up repeats often enough for its median to settle.
const SETUP_MIN_CPU_MS: f64 = 1000.0;

/// Most set-up repetitions per run.
const SETUP_MAX_REPEATS: usize = 200;

/// Measured seconds of a run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 10.0;

/// Run parameters every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
}

/// Circuit-quality totals over a workload's fixed program suite.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// CNOT + SU(4) gates.
    pub two_qubit: usize,
    /// Two-qubit depth.
    pub depth_2q: usize,
    /// SWAPs the router inserted.
    pub swaps: usize,
}

impl Quality {
    /// The quality of one compiled circuit (and its routing, if any).
    pub fn of(circuit: &phoenix_circuit::Circuit, swaps: usize) -> Self {
        let k = circuit.counts();
        Quality {
            two_qubit: k.cnot + k.su4,
            depth_2q: circuit.depth_2q(),
            swaps,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Quality) {
        self.two_qubit += other.two_qubit;
        self.depth_2q += other.depth_2q;
        self.swaps += other.swaps;
    }
}

/// Wall-clock and process CPU time of one measured stretch of work, ms.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Elapsed wall-clock time.
    pub wall_ms: f64,
    /// CPU time of every thread of this process.
    pub cpu_ms: f64,
}

impl Cost {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Cost) {
        self.wall_ms += other.wall_ms;
        self.cpu_ms += other.cpu_ms;
    }
}

/// A reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ms: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu_ms: process_cpu_ms(),
        }
    }

    /// The cost of everything since this reading.
    pub fn elapsed(&self) -> Cost {
        Cost {
            cpu_ms: process_cpu_ms() - self.cpu_ms,
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// The cost of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let start = Stamp::now();
    let out = f();
    (out, start.elapsed())
}

/// CPU time every thread of this process has used so far, ms. It counts
/// only time the process ran, so time a shared host gives to other guests
/// does not inflate it the way it inflates wall-clock time.
fn process_cpu_ms() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (the layout is
    // pinned by the `compile_error!` guard above), and `clock_gettime`
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// The set-up cost of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    /// Each clock's median over the repetitions.
    pub cost: Cost,
    /// Median over the repetitions of the CPU time, each calibrated.
    pub calibrated_cpu_ms: f64,
}

/// What an untraced workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up cost.
    pub setup: Setup,
    /// Names of the input classes (programs, or request kinds) that the
    /// geometric means average over.
    pub classes: Vec<String>,
    /// `(class, cost)` of each timed operation run by one caller with
    /// nothing else in flight: the CPU-time metrics.
    pub ops: Vec<(usize, Cost)>,
    /// `(class, wall ms)` per request of an open loop, for a workload that
    /// measures latency under load apart from `ops`; empty otherwise, and
    /// latency is the wall time of `ops`.
    pub latency: Vec<(usize, f64)>,
    /// Operations completed in a separate phase under load, and its cost,
    /// for the wall-clock throughput; `None` to use the sum over `ops`.
    pub throughput: Option<(usize, Cost)>,
    /// Operations attempted (timed and verification).
    pub attempted: u64,
    /// One message per failed, refused or unverified operation.
    pub failures: Vec<String>,
    /// Quality totals over the workload's suite.
    pub quality: Quality,
    /// Further `(name, value, unit)` lines for the human-readable output.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Reference samples taken between the timed operations.
    pub calibration: calibrate::Calibration,
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values; absent names print as 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Mean self time per traced op of each layer called, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Operations replayed.
    pub attempted: u64,
    /// Drift-guard and verification failures.
    pub failures: Vec<String>,
}

/// Runs `setup` at least [`SETUP_REPEATS`] times, and until the runs
/// have spent [`SETUP_MIN_CPU_MS`] (at most [`SETUP_MAX_REPEATS`] runs),
/// and keeps the last result. Each run is calibrated by a reference sample
/// taken right after it, since set-up happens before the timed loop's own
/// samples. Earlier results are dropped as soon as they are replaced.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> T) -> (T, Setup) {
    let mut reference = calibrate::Calibration::default();
    let (mut costs, mut calibrated) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut spent_ms = 0.0;
    while costs.len() < SETUP_REPEATS
        || (spent_ms < SETUP_MIN_CPU_MS && costs.len() < SETUP_MAX_REPEATS)
    {
        drop(kept.take());
        let (out, cost) = timed(&mut setup);
        kept = Some(out);
        spent_ms += cost.cpu_ms;
        calibrated.push(cost.cpu_ms / reference.sample());
        costs.push(cost);
    }
    let median =
        |clock: fn(&Cost) -> f64| stats::median(&costs.iter().map(clock).collect::<Vec<_>>());
    let setup = Setup {
        cost: Cost {
            wall_ms: median(|c| c.wall_ms),
            cpu_ms: median(|c| c.cpu_ms),
        },
        calibrated_cpu_ms: stats::median(&calibrated),
    };
    (kept.expect("set up at least once"), setup)
}

/// Median CPU milliseconds of [`SETUP_REPEATS`] calls of `f`.
pub fn median_cpu_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| timed(|| std::hint::black_box(f())).1.cpu_ms)
        .collect();
    stats::median(&times)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One reported metric: name, value, unit and the sample count behind it.
type Line = (&'static str, f64, &'static str, Option<usize>);

/// Order statistics of `(class, value)` samples.
struct Summary {
    p50: f64,
    /// Nearest-rank p99, with at least ten samples beyond it.
    p99: f64,
    /// Geometric mean over classes of each class's median.
    geomean: f64,
    /// Classes seen.
    classes: usize,
}

fn summarize(samples: &[(usize, f64)], classes: usize) -> Result<Summary, String> {
    let sorted = stats::sorted(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    if sorted.is_empty() {
        return Err("no operation was timed".to_string());
    }
    let medians: Vec<f64> = (0..classes)
        .filter_map(|c| {
            let of_class: Vec<f64> = samples.iter().filter(|s| s.0 == c).map(|s| s.1).collect();
            (!of_class.is_empty()).then(|| stats::median(&of_class))
        })
        .collect();
    Ok(Summary {
        p50: stats::percentile(&sorted, 50.0),
        p99: stats::tail_percentile(&sorted, 99.0)?,
        geomean: stats::geomean(&medians),
        classes: medians.len(),
    })
}

/// The bounded end-to-end metrics of a measured run (calibrated CPU time,
/// quality, memory), and the raw CPU, wall-clock and failure lines printed
/// beside them.
fn end_to_end(m: &Measured) -> Result<(Vec<Line>, Vec<Line>), String> {
    if m.calibration.is_empty() {
        return Err("the host speed was never sampled".to_string());
    }
    let (slowdown, samples) = m.calibration.slowdown();
    let cpu: Vec<(usize, f64)> = m.ops.iter().map(|(c, cost)| (*c, cost.cpu_ms)).collect();
    let wall: Vec<(usize, f64)> = if m.latency.is_empty() {
        m.ops.iter().map(|(c, cost)| (*c, cost.wall_ms)).collect()
    } else {
        m.latency.clone()
    };
    let c = summarize(&cpu, m.classes.len())?;
    let w = summarize(&wall, m.classes.len())?;
    let mut busy = Cost::default();
    m.ops.iter().for_each(|(_, c)| busy.add(*c));
    let (done, cost) = m.throughput.unwrap_or((m.ops.len(), busy));
    if busy.cpu_ms <= 0.0 || cost.wall_ms <= 0.0 {
        return Err("the timed operations took no time".to_string());
    }
    let per_cpu_s = m.ops.len() as f64 / (busy.cpu_ms / 1e3);
    let bounded = vec![
        ("setup_s", m.setup.calibrated_cpu_ms / 1e3, "s", None),
        ("cpu_ms_p50", c.p50 / slowdown, "ms", Some(cpu.len())),
        (
            "cpu_ms_geomean",
            c.geomean / slowdown,
            "ms",
            Some(c.classes),
        ),
        (
            "ops_per_cpu_s",
            per_cpu_s * slowdown,
            "ops/s",
            Some(cpu.len()),
        ),
        ("two_qubit_gates", m.quality.two_qubit as f64, "count", None),
        ("depth_2q", m.quality.depth_2q as f64, "count", None),
        ("peak_rss_mb", peak_rss_mb()?, "MB", None),
    ];
    let attempted = m.attempted.max(1);
    let beside = vec![
        ("host_slowdown", slowdown, "ratio", Some(samples)),
        ("cpu_ms_p99", c.p99 / slowdown, "ms", Some(cpu.len())),
        ("raw_setup_cpu_s", m.setup.cost.cpu_ms / 1e3, "s", None),
        ("raw_cpu_ms_p50", c.p50, "ms", Some(cpu.len())),
        ("raw_cpu_ms_p99", c.p99, "ms", Some(cpu.len())),
        ("raw_ops_per_cpu_s", per_cpu_s, "ops/s", Some(cpu.len())),
        ("setup_wall_s", m.setup.cost.wall_ms / 1e3, "s", None),
        ("latency_ms_p50", w.p50, "ms", Some(wall.len())),
        ("latency_ms_p99", w.p99, "ms", Some(wall.len())),
        ("latency_ms_geomean", w.geomean, "ms", Some(w.classes)),
        (
            "throughput_per_s",
            done as f64 / (cost.wall_ms / 1e3),
            "ops/s",
            Some(done),
        ),
        (
            "failed_ratio",
            m.failures.len() as f64 / attempted as f64,
            "ratio",
            Some(attempted as usize),
        ),
    ];
    Ok((bounded, beside))
}

/// Prints the final JSON line of one workload (with `metrics` only),
/// appends the record (with `beside` as well) if asked, and returns
/// whether every output was correct.
fn report(
    workload: &str,
    trace: bool,
    args: RunArgs,
    record: Option<&str>,
    (metrics, beside): (&[Line], &[Line]),
    attempted: u64,
    failures: &[String],
) -> bool {
    for f in failures {
        eprintln!("{workload}: FAILED: {f}");
    }
    let correct = failures.is_empty();
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failures.len(),
        fields.join(", ")
    );
    if let Some(path) = record {
        let values: Vec<String> = metrics
            .iter()
            .chain(beside)
            .map(|(name, value, _, _)| format!("\"{name}\": {}", json_num(*value)))
            .collect();
        let line = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \"metrics\": {{{}}}}}\n",
            args.seed,
            u8::from(trace),
            values.join(", ")
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = written {
            eprintln!("{workload}: cannot append to {path}: {e}");
            return false;
        }
    }
    correct
}

/// A finite number in JSON syntax, all digits kept.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload in this process and reports it.
fn run_workload(workload: &str, trace: bool, args: RunArgs, record: Option<&str>) -> bool {
    let (metrics, beside, attempted, failures) = if trace {
        let traced = match workload {
            "chem-cnot" | "device-route" => suite::trace(workload, args),
            "vqe-sweep" => vqe::trace(args),
            _ => serve::trace(args),
        };
        for (layer, ms) in &traced.self_ms {
            println!("{workload} {layer}.self_ms {ms} ms");
        }
        let metrics: Vec<Line> = trace::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = traced.metrics.get(name).copied().unwrap_or(0.0);
                (name, value, unit, None)
            })
            .collect();
        (metrics, Vec::new(), traced.attempted, traced.failures)
    } else {
        let measured = match workload {
            "chem-cnot" | "device-route" => suite::run(workload, args),
            "vqe-sweep" => vqe::run(args),
            _ => serve::run(args),
        };
        let mut failures = measured.failures.clone();
        let (metrics, mut beside) = end_to_end(&measured).unwrap_or_else(|e| {
            failures.push(e);
            (Vec::new(), Vec::new())
        });
        beside.extend(measured.notes.iter().map(|&(n, v, u)| (n, v, u, None)));
        (metrics, beside, measured.attempted, failures)
    };
    for (name, value, unit, count) in metrics.iter().chain(&beside) {
        match count {
            Some(n) => println!("{workload} {name} {value} {unit} n={n}"),
            None => println!("{workload} {name} {value} {unit}"),
        }
    }
    report(
        workload,
        trace,
        args,
        record,
        (&metrics, &beside),
        attempted,
        &failures,
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: phoenixbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--traced] \
         [--record FILE]\n       phoenixbench compare BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("phoenixbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut workload: Option<String> = None;
    let mut args = RunArgs {
        seed: 7,
        seconds: DEFAULT_SECONDS,
    };
    let mut trace = false;
    let mut record: Option<String> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(());
        let parsed = match flag.as_str() {
            "--workload" => value().map(|v| workload = Some(v)),
            "--seed" => value().and_then(|v| v.parse().map(|s| args.seed = s).map_err(drop)),
            "--seconds" => value().and_then(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .map(|s| args.seconds = s)
                    .ok_or(())
            }),
            "--trace" => value()
                .and_then(|v| match v.as_str() {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err(()),
                })
                .map(|t| trace = t),
            "--traced" => {
                trace = true;
                Ok(())
            }
            "--record" => value().map(|v| record = Some(v)),
            _ => Err(()),
        };
        if parsed.is_err() {
            eprintln!("phoenixbench: bad argument `{flag}`");
            return usage();
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            eprintln!("phoenixbench: unknown workload `{w}`");
            return usage();
        }
        return if run_workload(w, trace, args, record.as_deref()) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // Every workload in a process of its own.
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("phoenixbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if let Some(r) = &record {
            cmd.args(["--record", r]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("phoenixbench: workload {w} failed ({status})");
                all_ok = false;
            }
            Err(e) => {
                eprintln!("phoenixbench: cannot run workload {w}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
