//! `diff A.json B.json`: two result files compared metric by metric
//! under the bounds in `BENCHMARK.json`.
//!
//! A is the base. For each (workload, end-to-end metric) the row shows
//! both medians and their ratio B/A, and one of:
//!
//! * `ok` — B is no worse than A by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — B looks worse by more than the bound, but that
//!   cannot be told from noise: a side has a single run (so no spread
//!   of its own), or the runs in a file spread wider than the bound and
//!   do not all sit on one side; or a value is missing; or a file is a
//!   `--quick` or noisy run, or a run of the workload is marked invalid.
//!
//! Seeded simulated statistics are `exact`: any difference regresses.

use crate::hist::median;
use crate::json::{parse, Json};
use crate::spec;
use crate::suite::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Bit-equal or regressed.
    Exact,
    /// May worsen by `bound` (a share of A's median) in the direction
    /// `lower_is_better` says is worse.
    Bound { bound: f64, lower_is_better: bool },
}

/// Classifies one metric given every run's value in A and in B.
pub fn classify(a: &[f64], b: &[f64], rule: Rule) -> Status {
    let (Some(mid_a), Some(mid_b)) = (median(a), median(b)) else {
        return Status::Unresolved;
    };
    match rule {
        Rule::Exact => {
            // Run i of both files used the same seed.
            let same =
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            if same {
                Status::Ok
            } else {
                Status::Regressed
            }
        }
        Rule::Bound {
            bound,
            lower_is_better,
        } => {
            if mid_a == 0.0 {
                return Status::Unresolved;
            }
            let worse_by = if lower_is_better {
                (mid_b - mid_a) / mid_a.abs()
            } else {
                (mid_a - mid_b) / mid_a.abs()
            };
            if worse_by <= bound {
                return Status::Ok;
            }
            // Worse by more than the bound. It only counts if each side
            // has runs enough to show its own spread and they repeat
            // more tightly than the bound, or every run of B is worse
            // than every run of A.
            if a.len() < 2 || b.len() < 2 {
                return Status::Unresolved;
            }
            let wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
            let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let separated = if lower_is_better {
                min(b) > max(a)
            } else {
                max(b) < min(a)
            };
            if (wide(a) || wide(b)) && !separated {
                Status::Unresolved
            } else {
                Status::Regressed
            }
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("mpil-benchmark/1") {
        return Err(format!("{path}: not a mpil-benchmark/1 result file"));
    }
    Ok(doc)
}

fn runs<'a>(doc: &'a Json, workload: &str) -> &'a [Json] {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .map_or(&[][..], Json::as_arr)
}

/// Every run's value of `metric` on `workload`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(doc, workload)
        .iter()
        .filter_map(|run| run.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

/// The count a service run prints beside `lookup_p99_ms`.
const WHOLE_P99: &str = "lookup_p99_whole_phase_ms";

/// Every run's value of the count `name` on `workload`.
fn counts(doc: &Json, workload: &str, name: &str) -> Vec<f64> {
    runs(doc, workload)
        .iter()
        .filter_map(|run| run.get("detail")?.get("counts")?.get(name)?.as_f64())
        .collect()
}

/// Whether the benchmark marked a run of `workload` invalid.
fn has_invalid_run(doc: &Json, workload: &str) -> bool {
    runs(doc, workload)
        .iter()
        .any(|run| run.get("valid").and_then(Json::as_bool) == Some(false))
}

/// `(name, bound, lower_is_better)` of each end-to-end metric.
fn bounds(path: &str) -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("{path}: metric without {k}"))
            };
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                field("bound")?.as_f64().unwrap_or(0.0),
                field("better")?.as_str() == Some("lower"),
            ))
        })
        .collect()
}

pub fn run(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds(benchmark_json)?;
    let flag = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_bool) == Some(true);
    let quick = flag(&a, "quick") || flag(&b, "quick");
    let noisy = flag(&a, "noisy") || flag(&b, "noisy");
    if quick {
        println!("# a --quick result is not comparable: nothing below can regress");
    }
    if noisy {
        println!("# a run started on a busy machine: regressions are reported as unresolved");
    }
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>9}  {:<7} status",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let row = |workload: &str, metric: &str, va: &[f64], vb: &[f64], bound: &str, status: &str| {
        let show = |v: &[f64]| median(v).map_or("missing".to_string(), |m| format!("{m:.4}"));
        let ratio = match (median(va), median(vb)) {
            (Some(ma), Some(mb)) if ma != 0.0 => format!("{:.4}", mb / ma),
            _ => "-".to_string(),
        };
        println!(
            "{workload:<20} {metric:<26} {:>14} {:>14} {ratio:>9}  {bound:<7} {status}",
            show(va),
            show(vb),
        );
    };
    let mut regressed = 0;
    for workload in spec::WORKLOADS {
        let invalid = has_invalid_run(&a, workload) || has_invalid_run(&b, workload);
        if invalid {
            println!(
                "# {workload}: a run is marked invalid: regressions are reported as unresolved"
            );
        }
        for (metric, bound, lower_is_better) in &bounds {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            let exact = spec::is_exact(workload, metric);
            let rule = if exact {
                Rule::Exact
            } else {
                Rule::Bound {
                    bound: *bound,
                    lower_is_better: *lower_is_better,
                }
            };
            let mut status = classify(&va, &vb, rule);
            if status == Status::Regressed && (quick || noisy || invalid) {
                status = Status::Unresolved;
            }
            regressed += usize::from(status == Status::Regressed);
            let bound_label = if exact {
                "exact".to_string()
            } else {
                format!("{:.1}%", bound * 100.0)
            };
            row(workload, metric, &va, &vb, &bound_label, status.label());

            // The whole-phase tail beside the gated one. It does not
            // repeat on shared cores (README), so it never regresses: a
            // reader sees it, and a shift beyond the bound says "look".
            if workload.starts_with("svc-") && metric == "lookup_p99_ms" {
                let (va, vb) = (
                    counts(&a, workload, WHOLE_P99),
                    counts(&b, workload, WHOLE_P99),
                );
                let status = match classify(&va, &vb, rule) {
                    Status::Ok => "ok (not gated)",
                    _ => "unresolved (not gated)",
                };
                row(workload, WHOLE_P99, &va, &vb, "-", status);
            }
        }
    }
    println!("# {regressed} regressed (ratios are B/A, A = {path_a})");
    Ok(if regressed > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Rule = Rule::Bound {
        bound: 0.10,
        lower_is_better: true,
    };
    const HIGHER_10: Rule = Rule::Bound {
        bound: 0.10,
        lower_is_better: false,
    };

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        assert_eq!(classify(&[100.0], &[109.0], LOWER_10), Status::Ok);
        assert_eq!(classify(&[100.0], &[50.0], LOWER_10), Status::Ok, "better");
        assert_eq!(classify(&[100.0], &[91.0], HIGHER_10), Status::Ok);
        assert_eq!(
            classify(&[100.0], &[300.0], HIGHER_10),
            Status::Ok,
            "better"
        );
    }

    #[test]
    fn beyond_the_bound_regresses_when_both_sides_repeat_tightly() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [120.0, 121.0, 119.0, 120.5];
        assert_eq!(classify(&a, &b, LOWER_10), Status::Regressed);
        let b = [89.0, 88.0, 89.5, 88.5];
        assert_eq!(classify(&a, &b, HIGHER_10), Status::Regressed);
    }

    #[test]
    fn a_single_run_cannot_show_a_regression() {
        // One run has no spread of its own: a same-code run that lands
        // 30 % out must not fail the gate.
        assert_eq!(classify(&[100.0], &[130.0], LOWER_10), Status::Unresolved);
        assert_eq!(classify(&[100.0], &[70.0], HIGHER_10), Status::Unresolved);
        let three = [100.0, 101.0, 99.0];
        assert_eq!(classify(&three, &[130.0], LOWER_10), Status::Unresolved);
        assert_eq!(classify(&[130.0], &three, HIGHER_10), Status::Unresolved);
        // It can still show that nothing got worse.
        assert_eq!(classify(&[100.0], &[105.0], LOWER_10), Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate() {
        // A's own runs spread 30 %: a 15 % shift of the median proves nothing.
        let a = [85.0, 100.0, 115.0, 100.0];
        let b = [100.0, 115.0, 130.0, 115.0];
        assert_eq!(classify(&a, &b, LOWER_10), Status::Unresolved);
        // Same spread, but every run of B is worse than every run of A.
        let b = [200.0, 230.0, 260.0, 230.0];
        assert_eq!(classify(&a, &b, LOWER_10), Status::Regressed);
    }

    #[test]
    fn missing_values_are_unresolved() {
        assert_eq!(classify(&[], &[1.0], LOWER_10), Status::Unresolved);
        assert_eq!(classify(&[1.0], &[], Rule::Exact), Status::Unresolved);
        assert_eq!(classify(&[0.0], &[1.0], LOWER_10), Status::Unresolved);
    }

    #[test]
    fn exact_metrics_must_be_bit_equal() {
        assert_eq!(classify(&[4.9, 5.1], &[4.9, 5.1], Rule::Exact), Status::Ok);
        assert_eq!(
            classify(&[4.9, 5.1], &[5.1, 4.9], Rule::Exact),
            Status::Regressed
        );
        assert_eq!(
            classify(&[4.9], &[4.900000000000001], Rule::Exact),
            Status::Regressed
        );
        // Even an "improvement" of a seeded count means the protocol changed.
        assert_eq!(classify(&[41.0], &[40.0], Rule::Exact), Status::Regressed);
    }
}
