//! `mpilctl sweep` — one scenario fanned across seeds on the parallel
//! experiment runner (one worker per core; the results do not depend on
//! the count), with merged statistics (and optional JSON).

use mpil_harness::ExperimentRunner;
use mpil_workload::{Args, RunningStats};

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on an unknown `--system` or a flag it cannot read.
pub fn run(args: &Args) -> Result<String, CliError> {
    let scenario = super::perturb::parse_scenario(args)?;
    let count = args.try_value("seeds")?.unwrap_or(8u64);
    let json = args.flag("json");
    args.finish()?;
    if count == 0 {
        return Err(CliError("--seeds must be at least 1".into()));
    }
    let first = scenario.run.seed;
    let Some(end) = first.checked_add(count) else {
        return Err(CliError(format!(
            "--seed {first} + --seeds {count} overflows the seed range"
        )));
    };
    let seeds: Vec<u64> = (first..end).collect();
    let runner = ExperimentRunner::default();
    let sweep = runner.run_seeds(&scenario, &seeds);
    if json {
        return Ok(sweep.to_json());
    }
    let fmt = |s: &RunningStats| {
        format!(
            "mean {:.1}, std {:.1}, min {:.1}, max {:.1}",
            s.mean(),
            s.std_dev(),
            s.min(),
            s.max()
        )
    };
    Ok(format!(
        "{scenario}\n\
         seeds            = {} ({}..{})\n\
         workers          = {}\n\
         success rate %   : {}\n\
         lookup msgs      : {}\n\
         total msgs       : {}\n\
         reply hops       : {}\n\
         replicas/object  : {}\n",
        seeds.len(),
        seeds.first().copied().unwrap_or(0),
        seeds.last().copied().unwrap_or(0),
        runner.workers(),
        fmt(&sweep.stats.success_rate),
        fmt(&sweep.stats.lookup_messages),
        fmt(&sweep.stats.total_messages),
        fmt(&sweep.stats.mean_reply_hops),
        fmt(&sweep.stats.mean_replicas),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn sweep_reports_merged_stats() {
        let out = run(&args(
            "--system mpil-chord --nodes 100 --ops 8 --p 0.0 --seeds 2",
        ))
        .expect("ok");
        assert!(out.contains("seeds            = 2"), "got:\n{out}");
        assert!(out.contains("success rate %"), "got:\n{out}");
    }

    #[test]
    fn sweep_emits_json() {
        let out = run(&args(
            "--system mpil-chord --nodes 100 --ops 8 --p 0.0 --seeds 2 --json",
        ))
        .expect("ok");
        assert!(out.contains("\"per_seed\""), "got:\n{out}");
        assert!(out.contains("\"merged\""), "got:\n{out}");
    }

    #[test]
    fn sweep_json_header_is_self_describing() {
        // The document alone must identify the engine and seed range.
        let out = run(&args(
            "--system gossip --nodes 80 --ops 6 --p 0.0 --seed 7 --seeds 2 --json",
        ))
        .expect("ok");
        assert!(
            out.contains("\"engine\": \"Gossip k-walk active=8 passive=24\""),
            "got:\n{out}"
        );
        assert!(
            out.contains("\"seed_range\": {\"first\": 7, \"last\": 8, \"count\": 2}"),
            "got:\n{out}"
        );
        assert!(out.contains("\"scenario\": \"Gossip k-walk"), "got:\n{out}");
    }

    #[test]
    fn sweep_rejects_unknown_system() {
        assert!(run(&args("--system banana --seeds 2")).is_err());
    }

    #[test]
    fn sweep_has_no_worker_count() {
        let err = run(&args("--system mpil-chord --nodes 100 --ops 8 --workers 2"))
            .expect_err("--workers");
        assert!(err.0.contains("unknown flag --workers"), "{err}");
    }

    #[test]
    fn sweep_rejects_zero_seeds() {
        let err = run(&args("--system mpil-chord --nodes 100 --ops 8 --seeds 0"))
            .expect_err("zero seeds");
        assert!(err.0.contains("--seeds"), "{err}");
    }

    #[test]
    fn sweep_rejects_seed_range_overflow() {
        let err = run(&args(
            "--system mpil-chord --nodes 100 --ops 8 --seed 18446744073709551615 --seeds 2",
        ))
        .expect_err("overflow");
        assert!(err.0.contains("overflow"), "{err}");
    }
}
