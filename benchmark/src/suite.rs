//! The whole benchmark in one command: every workload, each in a child
//! process of its own (so its peak RSS is its own), gathered into one
//! result file.

use std::process::Command;

use crate::hist::{median, quartiles};
use crate::json::{parse, Json};
use crate::machine;
use crate::spec;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Runs per workload, on seeds `seed`, `seed + 1`, …
    pub runs: usize,
    pub out: Option<String>,
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// One child run: its human-readable lines are passed through, its
/// `detail` line and final result line are returned parsed.
fn child(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Exit code 1 is a failed check: the result line says so, and the
    // suite goes on to the other workloads.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{workload}: child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut detail = Json::Null;
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("detail ") {
            detail = parse(rest)?;
        } else if line.starts_with('{') {
            result = Some(parse(line)?);
        } else {
            println!("{line}");
        }
    }
    let result = result.ok_or_else(|| format!("{workload}: child printed no result line"))?;
    Ok((result, detail))
}

/// `{name: value}` from a result line's `metrics`.
fn values_of(result: &Json) -> Json {
    Json::obj(
        result
            .get("metrics")
            .map_or(&[][..], Json::members)
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null))),
    )
}

pub fn run(args: &SuiteArgs) -> Result<i32, String> {
    let load = machine::load_average();
    let noisy = machine::is_noisy(load);
    let mut all_correct = true;
    // Seed by seed, every workload in turn: a workload's runs are then
    // spread over the whole suite, minutes apart, and a slow stretch of
    // the machine cannot sit on all of them.
    let mut runs_of: Vec<Vec<Json>> = vec![Vec::new(); spec::WORKLOADS.len()];
    for run in 0..args.runs.max(1) {
        let seed = args.seed + run as u64;
        for (workload, runs) in spec::WORKLOADS.iter().zip(&mut runs_of) {
            let (result, detail) = child(args, workload, seed, false)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let mut members = vec![("seed".to_string(), Json::Num(seed as f64))];
            for key in ["correct", "attempted", "failed"] {
                members.push((
                    key.to_string(),
                    result.get(key).cloned().unwrap_or(Json::Null),
                ));
            }
            // A run the benchmark itself calls invalid (see
            // `Outcome::invalid`) keeps its numbers, marked.
            let valid = detail.get("invalid").is_none_or(|why| *why == Json::Null);
            members.push(("valid".to_string(), Json::Bool(valid)));
            members.push(("end_to_end".to_string(), values_of(&result)));
            members.push(("detail".to_string(), detail));
            if args.trace {
                let (traced, traced_detail) = child(args, workload, seed, true)?;
                all_correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
                members.push(("per_layer".to_string(), values_of(&traced)));
                members.push(("traced_detail".to_string(), traced_detail));
            }
            runs.push(Json::Obj(members));
        }
    }
    let mut workloads = Vec::new();
    for (workload, runs) in spec::WORKLOADS.iter().zip(runs_of) {
        // Median and quartile spread of each end-to-end metric over the runs.
        let mut medians = Vec::new();
        let mut spreads = Vec::new();
        for (name, _) in spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("end_to_end")?.get(name)?.as_f64())
                .collect();
            if let Some(mid) = median(&values) {
                medians.push((*name, Json::Num(mid)));
            }
            if let Some(s) = spread(&values) {
                spreads.push((*name, Json::Num(s)));
            }
        }
        workloads.push((
            *workload,
            Json::obj([
                ("median", Json::obj(medians)),
                ("spread", Json::obj(spreads)),
                ("runs", Json::Arr(runs)),
            ]),
        ));
    }

    let doc = Json::obj([
        ("schema", Json::Str("mpil-benchmark/1".into())),
        ("machine", machine::describe(load)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("runs_per_workload", Json::Num(args.runs.max(1) as f64)),
        ("quick", Json::Bool(args.quick)),
        ("comparable", Json::Bool(!args.quick && !noisy)),
        ("noisy", Json::Bool(noisy)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        format!(
            "benchmark/out/result-seed{}{}.json",
            args.seed,
            if args.quick { "-quick" } else { "" }
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "# result written to {path}{}{}{}",
        if args.quick {
            " (QUICK: numbers not comparable)"
        } else {
            ""
        },
        if noisy {
            " (NOISY: machine was busy at start)"
        } else {
            ""
        },
        if all_correct {
            ""
        } else {
            " (A CORRECTNESS CHECK FAILED)"
        }
    );
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0)); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None, "no share of a zero median");
    }
}
