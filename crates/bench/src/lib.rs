//! Shared harness for regenerating every table and figure of the PHOENIX
//! paper's evaluation.
//!
//! Each experiment is a binary (`table1`, `table2_fig5`, `fig6`, `table3`,
//! `table4_fig7`, `fig8`) printing the paper's rows/series to stdout and
//! writing machine-readable JSON into `results/`. See `EXPERIMENTS.md` at
//! the workspace root for the paper-vs-measured record.

use phoenix_circuit::Circuit;
use phoenix_core::phoenix_obs::{perfetto, ObsReport};
use phoenix_core::{CompileRequest, Device, PhoenixCompiler, Target};
use phoenix_pauli::PauliString;
use serde::Serialize;
use std::path::Path;

/// Default deterministic seed shared by every experiment binary.
pub const SEED: u64 = 7;

/// True when observability instrumentation was requested with `--obs`.
/// Every experiment binary honors it; the collected reports land in
/// `results/<bin>_perfetto.json` (Chrome/Perfetto loadable),
/// `results/<bin>_obs.json` (machine-readable, every pass span carrying its
/// time and before/after circuit statistics), and
/// `results/<bin>_report.txt` (human-readable).
pub fn obs_enabled() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// True when pass-boundary translation validation was requested with
/// `--verify`. Every experiment binary honors it; a miscompiled pass then
/// aborts the run with the offending pass named.
pub fn verify_enabled() -> bool {
    std::env::args().any(|a| a == "--verify")
}

/// The PHOENIX compiler every experiment binary should use: default
/// options, with pass-boundary verification attached when requested via
/// [`verify_enabled`].
pub fn phoenix_compiler() -> PhoenixCompiler {
    PhoenixCompiler::new(phoenix_core::PhoenixOptions {
        verify: verify_enabled(),
        ..phoenix_core::PhoenixOptions::default()
    })
}

/// The paper's short column label for a strategy name
/// (`"TKET-style"` → `"TKET"`).
pub fn short_label(name: &str) -> &str {
    name.strip_suffix("-style").unwrap_or(name)
}

/// Collects per-benchmark [`ObsReport`]s when `--obs` is set and writes
/// them under `results/` on [`Tracer::finish`]. Without the flag every
/// recording method is a no-op, so default experiment output is unchanged.
///
/// Compilations are replayed through the unified [`CompileRequest`] API.
#[derive(Debug)]
pub struct Tracer {
    experiment: &'static str,
    obs: bool,
    reports: Vec<(String, ObsReport)>,
}

impl Tracer {
    /// A tracer for `experiment`, enabled per [`obs_enabled`].
    pub fn from_args(experiment: &'static str) -> Self {
        Tracer {
            experiment,
            obs: obs_enabled(),
            reports: Vec::new(),
        }
    }

    /// Runs `request` instrumented and files its report (no-op when
    /// disabled; exits nonzero on compile errors). The compile keeps its
    /// trace too, because only a traced compile builds the span tree.
    pub fn record(&mut self, label: &str, request: CompileRequest) {
        if !self.obs {
            return;
        }
        let outcome = or_exit(request.trace(true).obs(true).run(), label);
        if let Some(report) = outcome.obs {
            self.reports.push((label.to_string(), report));
        }
    }

    /// Records an instrumented logical (CNOT-target) PHOENIX compilation
    /// of `terms` (no-op when disabled; exits nonzero on compile errors).
    pub fn record_logical(
        &mut self,
        label: &str,
        compiler: &PhoenixCompiler,
        n: usize,
        terms: &[(PauliString, f64)],
    ) {
        self.record(label, compiler.request(n, terms).target(Target::Cnot));
    }

    /// Records an instrumented device-targeted PHOENIX compilation of
    /// `terms` on `device` — coupling graph, native ISA, and noise profile
    /// included (no-op when disabled; exits nonzero on compile errors).
    pub fn record_device(
        &mut self,
        label: &str,
        compiler: &PhoenixCompiler,
        n: usize,
        terms: &[(PauliString, f64)],
        device: &Device,
    ) {
        self.record(
            label,
            compiler
                .request(n, terms)
                .target(Target::Device(device.clone())),
        );
    }

    /// Writes the collected reports (no-op when there are none):
    /// `results/<bin>_obs.json`, `results/<bin>_perfetto.json` and
    /// `results/<bin>_report.txt`.
    pub fn finish(self) {
        if self.reports.is_empty() {
            return;
        }
        write_results(&format!("{}_obs", self.experiment), &self.reports);
        let file = perfetto::to_trace_file_batch(&self.reports);
        let json = or_exit(perfetto::to_json(&file), "serializing perfetto trace");
        write_text(&format!("{}_perfetto.json", self.experiment), &json);
        let mut text = String::new();
        for (label, report) in &self.reports {
            text.push_str(&format!("=== {label} ===\n{}\n", report.render()));
        }
        write_text(&format!("{}_report.txt", self.experiment), &text);
    }
}

/// Circuit metrics in the paper's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Metrics {
    /// Total gate count (1Q included — Table I's `#Gate`).
    pub gates: usize,
    /// CNOT count.
    pub cnot: usize,
    /// SU(4) block count.
    pub su4: usize,
    /// Full depth.
    pub depth: usize,
    /// 2Q-only depth.
    pub depth_2q: usize,
}

impl Metrics {
    /// Extracts metrics from a circuit.
    pub fn of(c: &Circuit) -> Metrics {
        let k = c.counts();
        Metrics {
            gates: k.total,
            cnot: k.cnot,
            su4: k.su4,
            depth: c.depth(),
            depth_2q: c.depth_2q(),
        }
    }
}

/// Geometric mean of strictly positive values (the paper's averaging rule).
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive entries.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Unwraps an experiment step, printing the diagnostic to stderr and
/// exiting with status 1 on failure — a failing experiment binary should
/// report what went wrong, not dump a panic backtrace.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

/// Writes a JSON result file under `results/`, creating the directory.
/// Prints a diagnostic to stderr and exits nonzero on I/O errors.
pub fn write_results(name: &str, value: &impl Serialize) {
    let dir = Path::new("results");
    or_exit(
        std::fs::create_dir_all(dir),
        &format!("creating {}", dir.display()),
    );
    let path = dir.join(format!("{name}.json"));
    let json = or_exit(
        serde_json::to_string_pretty(value),
        &format!("serializing {name} results"),
    );
    or_exit(
        std::fs::write(&path, json),
        &format!("writing {}", path.display()),
    );
    eprintln!("[results] wrote {}", path.display());
}

/// Writes a verbatim text file under `results/` (`name` includes the
/// extension), creating the directory. Prints a diagnostic to stderr and
/// exits nonzero on I/O errors.
pub fn write_text(name: &str, text: &str) {
    let dir = Path::new("results");
    or_exit(
        std::fs::create_dir_all(dir),
        &format!("creating {}", dir.display()),
    );
    let path = dir.join(name);
    or_exit(
        std::fs::write(&path, text),
        &format!("writing {}", path.display()),
    );
    eprintln!("[results] wrote {}", path.display());
}

/// Renders one markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_circuit::Gate;

    #[test]
    fn metrics_extracts_counts() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        let m = Metrics::of(&c);
        assert_eq!(m.gates, 2);
        assert_eq!(m.cnot, 1);
        assert_eq!(m.depth_2q, 1);
        assert_eq!(m.depth, 2);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixes_multiplicatively() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[0.0, 1.0]);
    }

    #[test]
    fn row_renders_markdown() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }

    #[test]
    fn short_label_strips_the_style_suffix() {
        assert_eq!(short_label("TKET-style"), "TKET");
        assert_eq!(short_label("Paulihedral-style"), "Paulihedral");
        assert_eq!(short_label("PHOENIX"), "PHOENIX");
        assert_eq!(short_label("original"), "original");
    }

    fn tracer(obs: bool) -> Tracer {
        Tracer {
            experiment: "test",
            obs,
            reports: Vec::new(),
        }
    }

    #[test]
    fn disabled_tracer_collects_nothing() {
        let mut t = tracer(false);
        t.record_logical("x", &phoenix_compiler(), 2, &[("ZZ".parse().unwrap(), 0.1)]);
        assert!(t.reports.is_empty());
        t.finish();
    }

    #[test]
    fn obs_tracer_records_reports() {
        let mut t = tracer(true);
        t.record_logical("x", &phoenix_compiler(), 2, &[("ZZ".parse().unwrap(), 0.1)]);
        assert_eq!(t.reports.len(), 1);
        assert_eq!(t.reports[0].1.root.name, "pipeline");
        assert!(t.reports[0].1.metrics.counter("passes_run").unwrap_or(0) > 0);
    }
}
