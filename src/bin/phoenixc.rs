//! `phoenixc` — command-line driver for the PHOENIX compiler.
//!
//! ```text
//! phoenixc compile --input program.txt [--isa cnot|su4] [--topology all|<device-spec>]
//!                  [--qasm out.qasm] [--no-simplify] [--no-order] [--lookahead K]
//! phoenixc demo uccsd|qaoa
//! ```
//!
//! Device specs are resolved through the [`DeviceRegistry`]: `line:N`,
//! `ring:N`, `grid:RxC`, `heavy-hex:RxL`, `ion-trap:N`, or a preset name
//! (`falcon27`, `manhattan65`, `eagle127`), optionally with an `@isa`
//! suffix (`@cnot`, `@su4`, `@kak`).
//!
//! `phoenixc` compiles one program per run; the compile service and its
//! line-delimited JSON protocol are `phoenixd`'s, on stdin/stdout by
//! default.
//!
//! Program files list one Pauli exponentiation per line as
//! `<coefficient> <pauli string>` after a `qubits <n>` header; `#` starts a
//! comment. Example:
//!
//! ```text
//! qubits 3
//! 0.12  ZYY
//! -0.34 ZZY
//! ```

use phoenix::circuit::qasm;
use phoenix::core::phoenix_obs::perfetto;
use phoenix::core::{CompileRequest, Device, DeviceRegistry, PhoenixOptions, Target};
use phoenix::hamil::{qaoa, uccsd, Molecule};
use phoenix::pauli::PauliString;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", USAGE);
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  phoenixc compile --input <file> [--isa cnot|su4] [--topology all|<device-spec>]
                   [--qasm <out.qasm>] [--no-simplify] [--no-order] [--lookahead K]
                   [--obs [--obs-trace <out.json>]]
  phoenixc demo uccsd|qaoa

  device specs resolve through the registry: line:N, ring:N, grid:RxC,
  heavy-hex:RxL, ion-trap:N, or a preset (falcon27, manhattan65,
  eagle127), optionally with an @isa suffix (@cnot, @su4, @kak).
  'heavyhex' is accepted as an alias for manhattan65.

  --obs prints a compile report (per-pass timing, gate/depth deltas,
  stage-2 groups, metrics) to stderr; --obs-trace additionally writes a
  Chrome/Perfetto-loadable trace-event JSON.

  The compile service speaks its protocol on stdin/stdout by default:
  see `phoenixd --help`.";

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let mut input = None;
    let mut isa = "cnot".to_string();
    let mut topology = "all".to_string();
    let mut qasm_out = None;
    let mut via_kak = false;
    let mut obs = false;
    let mut obs_trace = None;
    let mut options = PhoenixOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--input" => input = Some(value()?),
            "--isa" => isa = value()?,
            "--topology" => topology = value()?,
            "--qasm" => qasm_out = Some(value()?),
            "--via-kak" => via_kak = true,
            "--obs" => obs = true,
            "--obs-trace" => obs_trace = Some(value()?),
            "--no-simplify" => options.enable_simplification = false,
            "--no-order" => options.enable_ordering = false,
            "--lookahead" => {
                options.lookahead = value()?
                    .parse()
                    .map_err(|e| format!("bad lookahead: {e}"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let input = input.ok_or("missing --input")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("{input}: {e}"))?;
    let (n, terms) = parse_program(&text)?;
    eprintln!("program: {n} qubits, {} pauli exponentiations", terms.len());

    let target = match topology.as_str() {
        "all" => match isa.as_str() {
            "cnot" if via_kak => Target::CnotViaKak,
            "cnot" => Target::Cnot,
            "su4" => Target::Su4,
            other => return Err(format!("unknown isa '{other}'")),
        },
        spec => {
            if isa != "cnot" && isa != "su4" {
                return Err(format!("unknown isa '{isa}'"));
            }
            Target::Device(parse_device(spec, &isa, via_kak)?)
        }
    };
    // The report's spans are built only for a compile that keeps its trace.
    let report = obs || obs_trace.is_some();
    let outcome = CompileRequest::new(n, &terms)
        .options(options)
        .target(target)
        .trace(report)
        .obs(report)
        .run()
        .map_err(|e| e.to_string())?;
    if let Some(hw) = &outcome.hardware {
        eprintln!(
            "routing: {} swaps, {:.2}x overhead on {topology}",
            hw.num_swaps,
            hw.routing_overhead(),
        );
    }
    if let Some(report) = &outcome.obs {
        if obs {
            eprint!("{}", report.render());
        }
        if let Some(path) = obs_trace {
            let file = perfetto::to_trace_file(&input, report);
            let json = perfetto::to_json(&file).map_err(|e| format!("{path}: {e}"))?;
            std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    let circuit = outcome.circuit;
    let k = circuit.counts();
    println!(
        "compiled: {} gates | {} CNOT | {} SU(4) | depth {} | 2Q depth {}",
        k.total,
        k.cnot,
        k.su4,
        circuit.depth(),
        circuit.depth_2q()
    );
    if let Some(path) = qasm_out {
        std::fs::write(&path, qasm::to_qasm(&circuit)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("uccsd") => {
            let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
            let c = CompileRequest::new(h.num_qubits(), h.terms())
                .target(Target::Cnot)
                .run()
                .map_err(|e| e.to_string())?
                .circuit;
            println!(
                "{h}\nPHOENIX: {} CNOTs, 2Q depth {}",
                c.counts().cnot,
                c.depth_2q()
            );
            Ok(())
        }
        Some("qaoa") => {
            let h = qaoa::benchmark(qaoa::QaoaKind::Reg3, 16, 7);
            let device = DeviceRegistry::new()
                .build("manhattan65")
                .map_err(|e| e.to_string())?;
            let hw = CompileRequest::new(h.num_qubits(), h.terms())
                .target(Target::Device(device))
                .run()
                .map_err(|e| e.to_string())?
                .hardware
                .ok_or("hardware program missing")?;
            println!(
                "{h}\nPHOENIX on heavy-hex: {} CNOTs, {} SWAPs, 2Q depth {}",
                hw.circuit.counts().cnot,
                hw.num_swaps,
                hw.circuit.depth_2q()
            );
            Ok(())
        }
        _ => Err("demo needs 'uccsd' or 'qaoa'".to_string()),
    }
}

/// Parses the `qubits N` + `<coeff> <string>` program format.
fn parse_program(text: &str) -> Result<(usize, Vec<(PauliString, f64)>), String> {
    let mut n = None;
    let mut terms = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("qubits") {
            n = Some(
                rest.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("line {}: bad qubit count: {e}", ln + 1))?,
            );
            continue;
        }
        let n = n.ok_or_else(|| format!("line {}: term before 'qubits' header", ln + 1))?;
        let (coeff, pauli) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("line {}: expected '<coeff> <pauli>'", ln + 1))?;
        let c: f64 = coeff
            .parse()
            .map_err(|e| format!("line {}: bad coefficient: {e}", ln + 1))?;
        let p: PauliString = pauli
            .trim()
            .parse()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        if p.num_qubits() != n {
            return Err(format!(
                "line {}: string has {} qubits, header says {n}",
                ln + 1,
                p.num_qubits()
            ));
        }
        terms.push((p, c));
    }
    Ok((n.ok_or("missing 'qubits N' header")?, terms))
}

/// Resolves a `--topology` spec through the [`DeviceRegistry`], honoring
/// `--isa`/`--via-kak` when the spec carries no `@isa` suffix of its own.
fn parse_device(spec: &str, isa: &str, via_kak: bool) -> Result<Device, String> {
    // Legacy alias from the pre-registry CLI surface.
    let spec = if spec == "heavyhex" {
        "manhattan65"
    } else {
        spec
    };
    let spec = if spec.contains('@') {
        spec.to_string()
    } else {
        match (isa, via_kak) {
            ("su4", _) => format!("{spec}@su4"),
            ("cnot", true) => format!("{spec}@kak"),
            _ => format!("{spec}@cnot"),
        }
    };
    DeviceRegistry::new()
        .build(&spec)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_program_happy_path() {
        let (n, terms) = parse_program("# demo\nqubits 3\n0.5 XYZ\n-1 ZZI\n").unwrap();
        assert_eq!(n, 3);
        assert_eq!(terms.len(), 2);
        assert_eq!(terms[1].1, -1.0);
    }

    #[test]
    fn parse_program_errors() {
        assert!(parse_program("0.5 XX\n").is_err(), "missing header");
        assert!(parse_program("qubits 2\n0.5 XXX\n").is_err(), "arity");
        assert!(parse_program("qubits 2\nnope XX\n").is_err(), "coeff");
    }

    #[test]
    fn parse_device_specs() {
        use phoenix::core::NativeIsa;
        let line = parse_device("line:5", "cnot", false).unwrap();
        assert_eq!(line.graph().num_qubits(), 5);
        assert_eq!(line.isa(), NativeIsa::Cnot);
        let grid = parse_device("grid:2x3", "su4", false).unwrap();
        assert_eq!(grid.graph().num_qubits(), 6);
        assert_eq!(grid.isa(), NativeIsa::Su4);
        let hex = parse_device("heavyhex", "cnot", true).unwrap();
        assert_eq!(hex.graph().num_qubits(), 65);
        assert_eq!(hex.isa(), NativeIsa::CnotViaKak);
        // An explicit @isa suffix on the spec wins over --isa.
        let pinned = parse_device("ring:4@su4", "cnot", false).unwrap();
        assert_eq!(pinned.isa(), NativeIsa::Su4);
        assert!(parse_device("torus:9", "cnot", false).is_err());
    }
}
