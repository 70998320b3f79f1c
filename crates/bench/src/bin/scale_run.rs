//! Kernel-scaling point: one engine at one overlay size, with wall-clock
//! and peak-RSS measurement ([`mpil_bench::scale_curve`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin scale_run -- \
//!     --engine mpil|kademlia|chord|pastry|gossip|plumtree|foaf \
//!     --nodes N [--ops K] [--p X] [--seed S] \
//!     [--strategy walk|ring] \
//!     [--budget-s B] [--max-rss-mib M] [--max-msgs-per-lookup T]
//! ```
//!
//! Prints one JSON object line per invocation. Run one point per process
//! so the `VmHWM` peak-RSS reading belongs to that point; a scaling
//! curve is the per-point lines of several invocations.
//!
//! `--strategy` selects the gossip search (`walk`, the default, or
//! `ring`); any other engine refuses it, as it refuses any other value
//! (exit 2, the flag named), so each point has one spelling.
//!
//! `--budget-s B`, `--max-rss-mib M`, and `--max-msgs-per-lookup T`
//! turn the run into a CI tripwire: if the point takes longer than `B`
//! wall-clock seconds, the process's peak RSS exceeds `M` MiB, or
//! stage-2 lookup traffic averages more than `T` messages per lookup,
//! the process exits 1 (the point is still printed, so a bad run
//! remains diagnosable).

use std::time::Duration;

use mpil_bench::scale_curve::{run_point, scale_spec};
use mpil_bench::Args;
use mpil_harness::{EngineSpec, RssBudget, TrafficBudget, WallClockBudget};

/// Count every heap allocation so the point can report steady-state
/// allocations per kernel event — the enforcement side of the
/// allocation-free message plane.
#[global_allocator]
static ALLOC: mpil_alloc::CountingAlloc = mpil_alloc::CountingAlloc;

/// What the command line asks for; a budget of zero is no budget.
struct Plan {
    spec: EngineSpec,
    nodes: usize,
    ops: usize,
    p: f64,
    seed: u64,
    budget_s: u64,
    max_rss_mib: f64,
    max_msgs_per_lookup: f64,
}

/// Reads the whole command line or says which flag cannot be read.
fn plan(args: &Args) -> Result<Plan, String> {
    let name = args.try_value("engine")?.unwrap_or("mpil".to_string());
    let strategy: Option<String> = args.try_value("strategy")?;
    let spec = scale_spec(&name, strategy.as_deref())?;
    let plan = Plan {
        spec,
        nodes: args
            .try_value_in("nodes", spec.fewest_nodes()..)?
            .unwrap_or(1000),
        ops: args.try_value("ops")?.unwrap_or(20),
        p: args.try_value_in("p", 0.0..=1.0)?.unwrap_or(0.5),
        seed: args.try_value("seed")?.unwrap_or(1),
        budget_s: args.try_value("budget-s")?.unwrap_or(0),
        max_rss_mib: args.try_value("max-rss-mib")?.unwrap_or(0.0),
        max_msgs_per_lookup: args.try_value("max-msgs-per-lookup")?.unwrap_or(0.0),
    };
    args.finish()?;
    Ok(plan)
}

fn main() {
    let (plan, _) = mpil_bench::run(plan);
    let budget =
        (plan.budget_s > 0).then(|| WallClockBudget::start(Duration::from_secs(plan.budget_s)));
    let rss_budget = (plan.max_rss_mib > 0.0).then(|| RssBudget::new(plan.max_rss_mib));
    let traffic_budget =
        (plan.max_msgs_per_lookup > 0.0).then(|| TrafficBudget::new(plan.max_msgs_per_lookup));
    let point = run_point(plan.spec, plan.nodes, plan.ops, plan.p, plan.seed);
    eprintln!(
        "{}: {} nodes in {:.2}s (build {:.2}s, inserts {:.2}s, lookups {:.2}s), peak {:.0} MiB, \
         success {:.0}%, {:.4} allocs/event over {} events",
        point.engine,
        point.nodes,
        point.total_s,
        point.build_s,
        point.insert_s,
        point.lookup_s,
        point.peak_rss_mib,
        point.success_rate,
        point.allocs_per_event(),
        point.events,
    );
    println!("{}", point.to_json());
    let context = format!("{} {}-node point", point.engine, point.nodes);
    let checks = [
        budget.map(|b| b.check(&context)),
        rss_budget.map(|b| b.check(&context)),
        traffic_budget.map(|b| b.check(&context, point.lookup_msgs, point.operations)),
    ];
    if let Some(msg) = checks.into_iter().flatten().find_map(Result::err) {
        eprintln!("scale_run: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each spelling is refused with the flag named (exit code 2 in
    /// `main`): a budget that cannot be read must not vanish.
    #[test]
    fn a_command_line_that_cannot_be_read_is_refused() {
        for (line, named) in [
            ("--nodes banana", "--nodes"),
            ("--max-rss-mib 1,5", "--max-rss-mib"),
            ("--budget-s --nodes 50", "--budget-s needs a value"),
            ("--max-rss 100", "unknown flag --max-rss"),
            ("--engine warp", "--engine"),
            ("--engine plumtree --strategy ring", "--strategy"),
            ("--engine chord --strategy banana", "--strategy"),
            ("--engine gossip --strategy plumtree", "--strategy"),
            ("--engine chord --p 1.5", "--p \"1.5\""),
            ("--p -0.5", "--p \"-0.5\""),
            ("--p NaN", "--p \"NaN\""),
            ("--engine chord --nodes 0 --p 0", "--nodes \"0\""),
            ("--engine mpil --nodes 8", "--nodes \"8\""),
            ("--nodes 5", "--nodes \"5\""),
        ] {
            let why = plan(&Args::parse(line.split(' ').map(String::from)))
                .err()
                .unwrap_or_else(|| panic!("{line:?} was accepted"));
            assert!(why.contains(named), "{line:?}: {why}");
        }
        let ci = "--engine plumtree --nodes 20000 --seed 1 --budget-s 120 \
                  --max-rss-mib 400 --max-msgs-per-lookup 25";
        let plan = plan(&Args::parse(ci.split_whitespace().map(String::from))).expect("ci's line");
        assert_eq!((plan.nodes, plan.budget_s), (20_000, 120));
    }
}
