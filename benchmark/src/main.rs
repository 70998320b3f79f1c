//! `mpil-benchmark`: one benchmark for the live `mpild` service and the
//! simulators. See `benchmark/README.md` for what it measures and why;
//! `benchmark/run.sh` is the front door.
//!
//! ```text
//! mpil-benchmark --workload W --seed S --seconds N --trace 0|1 [--quick]
//! mpil-benchmark [--seed S] [--trace] [--quick] [--runs N] [--out FILE]   (every workload, N = 3)
//! mpil-benchmark diff A.json B.json
//! ```

mod alloc;
mod clock;
mod diff;
mod hist;
mod json;
mod machine;
mod outcome;
mod pace;
mod probes;
mod service;
mod sim;
mod span;
mod spec;
mod statics;
mod suite;
mod svc;

use json::Json;
use outcome::{Outcome, RunArgs};
use span::Recorder;

#[global_allocator]
static ALLOC: alloc::SwitchAlloc = alloc::SwitchAlloc;

/// `--name value` pairs and bare words, as given.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Self {
        let args: Vec<String> = args.collect();
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].strip_prefix("--") {
                Some(name) => {
                    let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                    i += 1 + usize::from(value.is_some());
                    cli.flags.push((name.to_string(), value));
                }
                None => {
                    cli.words.push(args[i].clone());
                    i += 1;
                }
            }
        }
        cli
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read '{text}'")),
        }
    }

    /// `--trace`, `--trace 1` and `--trace 0`.
    fn trace(&self) -> Result<bool, String> {
        match (self.has("trace"), self.value("trace")) {
            (false, _) => Ok(false),
            (true, None | Some("1")) => Ok(true),
            (true, Some("0")) => Ok(false),
            (true, Some(other)) => Err(format!("--trace: expected 0 or 1, got '{other}'")),
        }
    }
}

/// Runs one workload in this process.
fn run_workload(args: &RunArgs) -> Result<(Outcome, Recorder), String> {
    let mut rec = Recorder::new(args.trace);
    alloc::count(args.trace);
    let name = args.workload.as_str();
    let mut out = if let Some(spec) = service::spec_of(name) {
        service::run(&spec, args, &mut rec)?
    } else if let Some(engines) = sim::engines_of(name, args.quick) {
        sim::run(&engines, args, &mut rec)?
    } else if let Some(size) = statics::size_of(name, args.quick) {
        statics::run(size, args, &mut rec)?
    } else {
        return Err(format!(
            "unknown workload '{name}' (expected one of: {})",
            spec::WORKLOADS.join(", ")
        ));
    };
    if args.trace {
        let trace = rec.to_json(name, out.counts_json());
        let dir = std::path::Path::new("benchmark/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        // A traced run must report every per-layer metric (the contract
        // of the tools that drive `BENCHMARK.json`), so the layers this
        // workload did not cross are measured by the probes.
        let probed = probes::run(args, &out.metrics)?;
        out.metrics.fill(probed);
    }
    alloc::count(false);
    Ok((out, rec))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end metric (untraced)
/// or every per-layer metric (traced).
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let declared = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            // A count of work the traced workload never asked a layer for
            // is zero. Times always come from a probe, so a missing one
            // is a bug.
            None if trace && !matches!(*unit, "s" | "ms" | "us" | "ns") => 0.0,
            None => return Err(format!("workload did not measure '{name}'")),
        };
        metrics.push((
            *name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str((*unit).to_string())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render())
}

fn print_human(args: &RunArgs, out: &Outcome, rec: &Recorder) {
    let declared = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    println!(
        "# {} seed {} {} s{}{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { " traced" } else { "" },
        if args.quick {
            " QUICK (numbers not comparable)"
        } else {
            ""
        }
    );
    for (name, unit) in declared {
        if let Some(v) = out.metrics.get(name) {
            println!("{name:<40} {v:>16.4} {unit}");
        }
    }
    for (name, value) in &out.counts {
        println!("  count {name:<32} {value}");
    }
    if args.trace {
        for (name, self_ns, spans) in rec.self_time_by_name() {
            println!(
                "  self  {name:<32} {:>12.3} ms over {spans} spans",
                self_ns as f64 / 1e6
            );
        }
    }
    for (what, passed, detail) in &out.checks {
        if !passed {
            println!("  CHECK FAILED {what}: {detail}");
            eprintln!(
                "mpil-benchmark: {}: check failed: {what}: {detail}",
                args.workload
            );
        }
    }
    println!(
        "  checks: {} of {} passed",
        out.checks.iter().filter(|c| c.1).count(),
        out.checks.len()
    );
    if let Some(why) = &out.invalid {
        println!("  INVALID (not comparable): {why}");
    }
}

fn real_main() -> Result<i32, String> {
    clock::now_ns(); // start the process clock
    let cli = Cli::parse(std::env::args().skip(1));
    if cli.words.first().map(String::as_str) == Some("diff") {
        let (a, b) = match cli.words.as_slice() {
            [_, a, b] => (a, b),
            _ => return Err("usage: diff A.json B.json".into()),
        };
        return diff::run(a, b, "BENCHMARK.json");
    }
    let quick = cli.has("quick");
    let default_seconds = if quick {
        spec::QUICK_SECONDS
    } else {
        spec::RUN_SECONDS
    };
    let seconds: f64 = cli.parsed("seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 60]"));
    }
    let seed: u64 = cli.parsed("seed", 1)?;
    let trace = cli.trace()?;
    let Some(workload) = cli.value("workload") else {
        return suite::run(&suite::SuiteArgs {
            seed,
            seconds,
            trace,
            quick,
            runs: cli.parsed("runs", if quick { 1 } else { spec::SUITE_RUNS })?,
            out: cli.value("out").map(str::to_string),
        });
    };
    let args = RunArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        quick,
    };
    let (out, rec) = run_workload(&args)?;
    print_human(&args, &out, &rec);
    // What the suite keeps beyond the driver's line, which comes last.
    println!(
        "detail {}",
        Json::obj([
            ("checks", out.checks_json()),
            ("invalid", out.invalid.clone().map_or(Json::Null, Json::Str)),
            ("counts", out.counts_json()),
        ])
        .render()
    );
    println!("{}", result_line(&out, trace)?);
    Ok(if out.correct() { 0 } else { 1 })
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("mpil-benchmark: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn trace_takes_a_value_or_stands_alone() {
        assert_eq!(cli(&["--trace", "0"]).trace(), Ok(false));
        assert_eq!(cli(&["--trace", "1", "--seed", "4"]).trace(), Ok(true));
        assert_eq!(cli(&["--trace", "--quick"]).trace(), Ok(true));
        assert_eq!(cli(&["--seed", "4"]).trace(), Ok(false));
        assert!(cli(&["--trace", "yes"]).trace().is_err());
        let c = cli(&["diff", "a.json", "b.json", "--seed", "9"]);
        assert_eq!(c.words, ["diff", "a.json", "b.json"]);
        assert_eq!(c.parsed("seed", 1u64), Ok(9));
        assert!(cli(&["--seed", "x"]).parsed("seed", 1u64).is_err());
    }

    /// `--quick` runs every workload, traced and untraced, with every
    /// check on, and must emit exactly the declared names and units.
    /// One test, so the workloads run one after another.
    #[test]
    fn a_quick_run_of_every_workload_emits_every_declared_metric() {
        // Traces are written to benchmark/out under the working directory.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
            .expect("the repo root");
        for workload in spec::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: 5,
                    seconds: spec::QUICK_SECONDS,
                    trace,
                    quick: true,
                };
                let (out, _) = run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let failed: Vec<_> = out.checks.iter().filter(|c| !c.1).collect();
                assert!(failed.is_empty(), "{workload} trace={trace}: {failed:?}");
                assert!(!out.checks.is_empty(), "{workload}: no check was made");

                let line = result_line(&out, trace).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let doc = json::parse(&line).expect("the result line is JSON");
                let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
                assert!(doc.get("attempted").and_then(Json::as_f64) >= Some(1.0));
                assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));

                let declared = if trace {
                    spec::PER_LAYER
                } else {
                    spec::END_TO_END
                };
                let metrics = doc.get("metrics").expect("metrics").members();
                assert_eq!(metrics.len(), declared.len());
                for ((name, metric), (want_name, want_unit)) in metrics.iter().zip(declared) {
                    assert_eq!(name, want_name);
                    assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*want_unit));
                    let value = metric.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {value:?}"
                    );
                    if !trace {
                        assert!(value > Some(0.0), "{workload} {name} must never be 0");
                    }
                }
            }
        }
    }
}
