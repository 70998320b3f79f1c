//! `mpilctl load` — drive a daemon with the insert-then-lookup load.
//!
//! The same code as the `mpil-load` binary ([`mpild::front::load`]),
//! flag for flag: with `--addr HOST:PORT` it targets a running `mpild`;
//! with `--embedded` it spawns a daemon thread in-process first (all
//! `mpilctl serve` flags apply). Reports one JSON line; `--min-success`,
//! `--max-p99-ms` and `--budget-s` turn it into a pass/fail gate.

use mpil_workload::Args;

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] when the daemon is unreachable, fails to spawn, or a
/// gate is violated (the error then starts with the JSON report line).
pub fn run(args: &Args) -> Result<String, CliError> {
    let (report, failures) = mpild::front::load(args).map_err(CliError)?;
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(CliError(format!("{report}{}", failures.join("\n"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn embedded_load_reports_and_passes_gates() {
        let out = run(&args(
            "--embedded --nodes 16 --degree 4 --objects 10 --lookups 30 \
             --workers 8 --seed 2 --min-success 90",
        ))
        .expect("embedded load");
        assert!(out.contains("\"load\":"), "got:\n{out}");
        assert!(out.contains("\"daemon\":"), "got:\n{out}");
    }

    #[test]
    fn impossible_gate_fails() {
        let err = run(&args(
            "--embedded --nodes 16 --degree 4 --objects 5 --lookups 10 \
             --seed 2 --max-p99-ms 0.000001",
        ))
        .expect_err("gate must fail");
        assert!(err.0.contains("GATE FAILED: lookup p99"), "got: {err}");
    }

    #[test]
    fn a_failed_gate_still_returns_the_report_and_names_every_gate() {
        let err = run(&args(
            "--embedded --nodes 16 --degree 4 --objects 5 --lookups 10 \
             --seed 2 --max-p99-ms 0.000001 --min-success 101",
        ))
        .expect_err("both gates must fail");
        let (report, failures) = err.0.split_once('\n').expect("report line, then gates");
        assert!(report.starts_with("{\"load\":"), "got: {err}");
        assert!(report.contains("\"daemon\":"), "got: {err}");
        assert!(failures.contains("lookup success"), "got: {err}");
        assert!(failures.contains("lookup p99"), "got: {err}");
    }
}
