//! `phoenixbench compare BASE CHANGE [--spec BENCHMARK.json]`: judges two
//! sets of recorded runs (files written with `--record`, one JSON object
//! per run) metric by metric and workload by workload.
//!
//! Runs pair up in file order, so record the two sides alternately. A
//! metric **improved** only if the change wins at least nine tenths of the
//! pairs (ties count for neither) and the medians differ by more than the
//! base's interquartile range; it **regressed** if the change's median is
//! worse than the base's by more than the metric's bound; it is
//! **unresolved** when the base's own spread is wider than the bound and
//! the change does not read better on every run; otherwise it is
//! **unchanged**. `failed_ratio` and `swaps`, which the spec cannot list
//! because a good run reads 0 on them for some workloads, are judged with
//! a bound of 0. Other metrics without a bound (the per-layer ones, and the
//! recorded lines the spec does not list) are shown for information. Any
//! change in a circuit-quality count, and any failed operation, is flagged.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
struct MetricSpec {
    name: String,
    lower_is_better: bool,
    /// Allowed worsening as a share of the base median; `None` for the
    /// per-layer metrics.
    bound: Option<f64>,
    quality: bool,
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
    Info,
}

fn read_spec(path: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = v
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: no `{section}` list"))?;
        for e in entries {
            let field = |k: &str| e.get(k).and_then(Value::as_str);
            let name = field("name").ok_or_else(|| format!("{path}: metric without a name"))?;
            let lower_is_better = match field("better") {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{path}: `{name}` has no `better` direction")),
            };
            let bound = if bounded {
                Some(
                    e.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{path}: `{name}` has no bound"))?,
                )
            } else {
                None
            };
            out.push(MetricSpec {
                name: name.to_string(),
                lower_is_better,
                bound,
                quality: QUALITY.contains(&name),
            });
        }
    }
    Ok(out)
}

/// The circuit-quality counts. The compiler is deterministic, so any
/// difference in them, between runs or between sides, is a real change.
const QUALITY: [&str; 4] = ["two_qubit_gates", "depth_2q", "swaps", "router.swaps"];

/// Recorded metrics the spec cannot list, because a good run reads 0 on
/// them for some workloads, that are still judged with a bound of 0: any
/// increase regresses.
const ZERO_BOUND: [&str; 2] = ["failed_ratio", "swaps"];

/// A recorded metric the spec does not list: judged with a bound of 0 if
/// it is in [`ZERO_BOUND`], shown for information otherwise.
fn unlisted(name: &str) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        lower_is_better: true,
        bound: ZERO_BOUND.contains(&name).then_some(0.0),
        quality: QUALITY.contains(&name),
    }
}

/// `workload → metric → values`, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let Some(Value::Map(metrics)) = v.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", i + 1));
        };
        let entry = runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(x) = value.as_f64() {
                entry.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// Share of run pairs the change wins, with the number of pairs.
fn pairs_won(base: &[f64], change: &[f64], lower_is_better: bool) -> (usize, usize) {
    let pairs = base.len().min(change.len());
    let won = base
        .iter()
        .zip(change)
        .filter(|(a, b)| if lower_is_better { b < a } else { b > a })
        .count();
    (won, pairs)
}

fn verdict(base: &[f64], change: &[f64], spec: &MetricSpec) -> Verdict {
    let (won, pairs) = pairs_won(base, change, spec.lower_is_better);
    let (mb, mc) = (stats::median(base), stats::median(change));
    let spread = stats::iqr(base);
    let better = if spec.lower_is_better {
        mc < mb
    } else {
        mc > mb
    };
    let Some(bound) = spec.bound else {
        return Verdict::Info;
    };
    if pairs > 0 && better && won * 10 >= pairs * 9 && (mc - mb).abs() > spread {
        return Verdict::Improved;
    }
    let worse_by = if spec.lower_is_better {
        mc - mb
    } else {
        mb - mc
    };
    if worse_by > bound * mb.abs() {
        return Verdict::Regressed;
    }
    let all_better = base.iter().all(|a| {
        change
            .iter()
            .all(|c| if spec.lower_is_better { c < a } else { c > a })
    });
    if spread > bound * mb.abs() && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// What `compare` flags whatever the verdict: a quality count that differs
/// anywhere, or a failed operation in any run.
fn flag(spec: &MetricSpec, base: &[f64], change: &[f64]) -> Option<&'static str> {
    if spec.quality && base.iter().chain(change).any(|x| *x != base[0]) {
        Some("QUALITY CHANGED")
    } else if spec.name == "failed_ratio" && base.iter().chain(change).any(|x| *x > 0.0) {
        Some("FAILURES")
    } else {
        None
    }
}

fn summary(values: &[f64]) -> String {
    let [q1, _, q3] = stats::quartiles(values);
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        stats::median(values),
        q1,
        q3,
        values.len()
    )
}

/// Entry point of the `compare` subcommand: prints one row per (workload,
/// metric) and fails if any metric regressed or any quality count changed.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [base_path, change_path] = files.as_slice() else {
        return Err("usage: phoenixbench compare BASE CHANGE [--spec BENCHMARK.json]".to_string());
    };
    let specs = read_spec(&spec_path)?;
    let (base, change) = (read_runs(base_path)?, read_runs(change_path)?);
    println!(
        "{:<13} {:<37} {:<48} {:<48} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won"
    );
    let (mut flagged, mut regressed) = (0, 0);
    for workload in crate::WORKLOADS {
        let (Some(b), Some(c)) = (base.get(workload), change.get(workload)) else {
            continue;
        };
        let extra: Vec<MetricSpec> = b
            .keys()
            .filter(|name| !specs.iter().any(|s| &s.name == *name))
            .map(|name| unlisted(name))
            .collect();
        for spec in specs.iter().chain(&extra) {
            let (Some(bv), Some(cv)) = (b.get(&spec.name), c.get(&spec.name)) else {
                continue;
            };
            let (won, pairs) = pairs_won(bv, cv, spec.lower_is_better);
            let won = if spec.bound.is_some() {
                format!("{won}/{pairs}")
            } else {
                "-".to_string()
            };
            let judged = verdict(bv, cv, spec);
            regressed += usize::from(judged == Verdict::Regressed);
            let mut verdict = format!("{judged:?}").to_lowercase();
            if let Some(flag) = flag(spec, bv, cv) {
                verdict.push_str("  ");
                verdict.push_str(flag);
                flagged += 1;
            }
            println!(
                "{workload:<13} {:<37} {:<48} {:<48} {won:>7}  {verdict}",
                spec.name,
                summary(bv),
                summary(cv),
            );
        }
    }
    if flagged + regressed > 0 {
        return Err(format!(
            "{regressed} metric(s) regressed, {flagged} flag(s) raised (quality changed or failures)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_ms_p50".to_string(),
            lower_is_better: lower,
            bound: Some(bound),
            quality: false,
        }
    }

    #[test]
    fn a_clear_win_on_nine_of_ten_pairs_is_an_improvement() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];
        let mut change = base.map(|x| x * 0.8);
        change[4] = 10.5; // one lost pair
        assert_eq!(verdict(&base, &change, &spec(true, 0.1)), Verdict::Improved);
        // Eight of ten is not enough.
        change[5] = 10.6;
        assert_ne!(verdict(&base, &change, &spec(true, 0.1)), Verdict::Improved);
    }

    #[test]
    fn worsening_beyond_the_bound_regresses() {
        let base = [100.0, 101.0, 99.0, 100.0];
        let change = [112.0, 113.0, 111.0, 112.0];
        assert_eq!(
            verdict(&base, &change, &spec(true, 0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &change, &spec(true, 0.2)),
            Verdict::Unchanged
        );
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            verdict(&change, &base, &spec(false, 0.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [50.0, 100.0, 150.0, 80.0, 120.0];
        let change = [60.0, 110.0, 140.0, 90.0, 100.0];
        assert_eq!(
            verdict(&base, &change, &spec(true, 0.1)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn quality_counts_have_a_zero_bound() {
        let q = MetricSpec {
            name: "two_qubit_gates".to_string(),
            lower_is_better: true,
            bound: Some(0.0),
            quality: true,
        };
        assert_eq!(verdict(&[500.0; 3], &[500.0; 3], &q), Verdict::Unchanged);
        assert_eq!(verdict(&[500.0; 3], &[501.0; 3], &q), Verdict::Regressed);
        assert_eq!(verdict(&[500.0; 3], &[499.0; 3], &q), Verdict::Improved);
    }

    #[test]
    fn failures_and_swaps_are_judged_with_a_zero_bound() {
        let failed = unlisted("failed_ratio");
        assert_eq!(failed.bound, Some(0.0));
        assert_eq!(verdict(&[0.0; 4], &[0.0; 4], &failed), Verdict::Unchanged);
        assert_eq!(flag(&failed, &[0.0; 4], &[0.0; 4]), None);
        assert_eq!(verdict(&[0.0; 4], &[0.001; 4], &failed), Verdict::Regressed);
        // One failure in one run is flagged even though the median is 0.
        let one_failure = [0.0, 0.001, 0.0, 0.0];
        assert_eq!(flag(&failed, &[0.0; 4], &one_failure), Some("FAILURES"));
        let swaps = unlisted("swaps");
        assert!(swaps.quality && swaps.bound == Some(0.0));
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], &swaps), Verdict::Unchanged);
        assert_eq!(verdict(&[40.0; 3], &[41.0; 3], &swaps), Verdict::Regressed);
        assert_eq!(
            flag(&swaps, &[40.0; 3], &[41.0; 3]),
            Some("QUALITY CHANGED")
        );
        assert_eq!(unlisted("latency_ms_p99").bound, None);
    }

    #[test]
    fn pairs_follow_file_order_and_ties_count_for_neither() {
        assert_eq!(pairs_won(&[1.0, 2.0, 3.0], &[0.5, 2.0, 4.0], true), (1, 3));
        assert_eq!(pairs_won(&[1.0, 2.0], &[2.0, 3.0, 9.0], false), (2, 2));
    }
}
