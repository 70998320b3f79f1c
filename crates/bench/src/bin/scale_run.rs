//! Kernel-scaling point: one engine at one overlay size, with wall-clock
//! and peak-RSS measurement ([`mpil_bench::scale_curve`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin scale_run -- \
//!     --engine SYSTEM --nodes N [--ops K] [--p X] [--seed S] \
//!     [--budget-s B] [--max-rss-mib M] [--max-msgs-per-lookup T]
//! ```
//!
//! Prints one JSON object line per invocation. Run one point per process
//! so the `VmHWM` peak-RSS reading belongs to that point; a scaling
//! curve is the per-point lines of several invocations.
//!
//! `--engine` takes a system's one name, as `mpilctl perturb --system`
//! does ([`EngineSpec::systems`]; `mpil-regular` by default, MPIL over a
//! random 8-regular graph), and `--nodes` no fewer than it can be built
//! on. The epidemic searches scale very differently: at 20k nodes and
//! p = 0.5 `gossip` (k random walks) swings from seed to seed,
//! `gossip-ring` holds 100 % at ~3 500 msgs/lookup, and `plumtree`
//! matches it at ~5 (the `scripts/ci.sh` traffic tripwire holds it to
//! that).
//!
//! `--budget-s B`, `--max-rss-mib M`, and `--max-msgs-per-lookup T`
//! turn the run into a CI tripwire: if the point takes longer than `B`
//! wall-clock seconds, the process's peak RSS exceeds `M` MiB, or
//! stage-2 lookup traffic averages more than `T` messages per lookup,
//! the process exits 1 (the point is still printed, so a bad run
//! remains diagnosable).

use mpil_bench::scale_curve::run_point;
use mpil_bench::Args;
use mpil_harness::EngineSpec;

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
    let (spec, nodes) = EngineSpec::read(args, "engine", "mpil-regular", 1000)?;
    let plan = Plan {
        spec,
        nodes,
        ops: args.try_value_in("ops", 1..)?.unwrap_or(20),
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
    let (secs, mib, msgs) = (point.total_s, point.peak_rss_mib, point.msgs_per_lookup());
    let broken = if plan.budget_s > 0 && secs >= plan.budget_s as f64 {
        format!("took {secs:.2}s (budget {}s)", plan.budget_s)
    } else if plan.max_rss_mib > 0.0 && mib > plan.max_rss_mib {
        format!(
            "peaked at {mib:.1} MiB RSS (ceiling {:.1} MiB)",
            plan.max_rss_mib
        )
    } else if plan.max_msgs_per_lookup > 0.0 && msgs > plan.max_msgs_per_lookup {
        format!(
            "spent {msgs:.1} msgs/lookup (ceiling {:.1})",
            plan.max_msgs_per_lookup
        )
    } else {
        return;
    };
    eprintln!(
        "scale_run: {} {}-node point {broken}",
        point.engine, point.nodes
    );
    std::process::exit(1);
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
            ("--engine warp", "--engine \"warp\" names no system"),
            ("--engine mpil-random", "--engine \"mpil-random\""),
            ("--engine gossip --strategy ring", "unknown flag --strategy"),
            ("--engine chord --p 1.5", "--p \"1.5\""),
            ("--p -0.5", "--p \"-0.5\""),
            ("--p NaN", "--p \"NaN\""),
            ("--engine chord --nodes 0 --p 0", "--nodes \"0\""),
            ("--engine mpil-regular --nodes 8", "--nodes \"8\""),
            ("--engine mpil-complete --nodes 1", "--nodes \"1\""),
            ("--nodes 5", "--nodes \"5\""),
            ("--engine chord --ops 0", "--ops \"0\""),
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

    /// Every system `mpilctl perturb --system` names is a point here,
    /// under the same name.
    #[test]
    fn every_system_is_a_point() {
        for (name, spec) in EngineSpec::systems() {
            let line = format!("--engine {name}");
            let plan = plan(&Args::parse(line.split(' ').map(String::from))).expect(&line);
            assert_eq!(plan.spec, spec, "{line}");
        }
        let line = "--engine pastry-rr --nodes 40";
        let plan = plan(&Args::parse(line.split(' ').map(String::from))).expect(line);
        assert_eq!(plan.spec, EngineSpec::MSPASTRY_RR);
    }
}
