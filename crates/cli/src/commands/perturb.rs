//! `mpilctl perturb` — one perturbation run (Sections 3 / 6.2, plus the
//! Chord/Kademlia extension baselines).

use mpil_harness::{run_scenario, EngineSpec, PerturbResult, PerturbRun, Scenario};
use mpil_workload::Args;

use crate::CliError;

/// The longest `--idle`, `--offline` or `--deadline` a run takes, in
/// seconds: a simulated century, past any experiment and far inside
/// the microseconds of the simulated clock.
const MAX_SECS: u64 = 100 * 365 * 24 * 3600;

/// Builds the scenario named by the standard perturbation flags,
/// refusing an unknown `--system`, a size below the system's fewest
/// nodes, an operation count of zero, a probability outside [0, 1], and
/// a flapping period that is zero or that the simulated clock cannot
/// hold for the whole run (one period per operation).
pub(crate) fn parse_scenario(args: &Args) -> Result<Scenario, CliError> {
    let (system, nodes) = EngineSpec::read(args, "system", "mpil", 300)?;
    let run = PerturbRun {
        nodes,
        operations: args.try_value_in("ops", 1..)?.unwrap_or(60usize),
        idle_secs: args.try_value_in("idle", 0..=MAX_SECS)?.unwrap_or(30),
        offline_secs: args.try_value_in("offline", 0..=MAX_SECS)?.unwrap_or(30),
        probability: args.try_value_in("p", 0.0..=1.0)?.unwrap_or(0.5f64),
        deadline_cap_secs: args.try_value_in("deadline", 1..=MAX_SECS)?.unwrap_or(60),
        loss_probability: args.try_value_in("loss", 0.0..=1.0)?.unwrap_or(0.0f64),
        seed: args.try_value("seed")?.unwrap_or(42u64),
    };
    let (idle, offline) = (run.idle_secs, run.offline_secs);
    if idle + offline == 0 {
        return Err(CliError(format!(
            "--idle {idle} --offline {offline}: the flapping period must be positive"
        )));
    }
    // One lookup a period, each due within a period: half the clock
    // for those leaves the other half for the warm-up and the tail.
    let span = (run.operations as u64 + 2).checked_mul(run.period().as_micros());
    if span.is_none_or(|us| us >= 1 << 62) {
        return Err(CliError(format!(
            "--ops {} --idle {idle} --offline {offline}: the run outlasts the simulated clock",
            run.operations
        )));
    }
    Ok(Scenario::new(system, run))
}

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on an unknown `--system` or a flag it cannot read.
pub(crate) fn run(args: &Args) -> Result<String, CliError> {
    let scenario = parse_scenario(args)?;
    args.finish()?;
    Ok(format!("{scenario}\n{}", detail(run_scenario(&scenario))))
}

fn detail(r: PerturbResult) -> String {
    format!(
        "success rate     = {:.1}%\n\
         lookup traffic   = {} msgs\n\
         total traffic    = {} msgs\n\
         reply hops       = {:.2}\n\
         replicas/object  = {:.1}\n",
        r.success_rate, r.lookup_messages, r.total_messages, r.mean_reply_hops, r.mean_replicas
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn mpil_run_reports_success() {
        let out = run(&args("--system mpil --nodes 120 --ops 10 --p 0.0")).expect("ok");
        assert!(out.contains("success rate"), "got:\n{out}");
        assert!(out.contains("MPIL without DS"), "got:\n{out}");
    }

    #[test]
    fn chord_baseline_runs() {
        let out = run(&args("--system chord --nodes 100 --ops 8 --p 0.0")).expect("ok");
        assert!(out.contains("success rate"), "got:\n{out}");
    }

    #[test]
    fn unknown_system_is_an_error() {
        assert!(run(&args("--system gnutella2")).is_err());
    }

    #[test]
    fn every_documented_system_parses() {
        for (name, spec) in EngineSpec::systems() {
            let scenario = parse_scenario(&args(&format!("--system {name}"))).expect(&name);
            assert_eq!(scenario.engine, spec, "{name}");
        }
        for retired in ["gossip-walk", "mpil-random", "mpil-power-law"] {
            let err = parse_scenario(&args(&format!("--system {retired}"))).expect_err(retired);
            assert!(err.0.contains("--system"), "{err}");
        }
    }

    #[test]
    fn gossip_run_reports_success() {
        let out = run(&args("--system gossip --nodes 100 --ops 8 --p 0.0")).expect("ok");
        assert!(out.contains("success rate"), "got:\n{out}");
        assert!(out.contains("Gossip k-walk"), "got:\n{out}");
    }

    #[test]
    fn plumtree_run_reports_success() {
        let out = run(&args("--system plumtree --nodes 100 --ops 8 --p 0.0")).expect("ok");
        assert!(out.contains("success rate"), "got:\n{out}");
        assert!(out.contains("Plumtree active=5"), "got:\n{out}");
    }
}
