//! Kernel-scaling point: one engine at one overlay size, with wall-clock
//! and peak-RSS measurement ([`mpil_bench::scale_curve`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin scale_run -- \
//!     --engine mpil|kademlia|chord|pastry|gossip|plumtree|foaf \
//!     --nodes N [--ops K] [--p X] [--seed S] \
//!     [--strategy walk|ring|plumtree|foaf] \
//!     [--budget-s B] [--max-rss-mib M] [--max-msgs-per-lookup T]
//! ```
//!
//! Prints one JSON object line per invocation. Run one point per process
//! so the `VmHWM` peak-RSS reading belongs to that point; a scaling
//! curve is the per-point lines of several invocations.
//!
//! `--strategy` selects the gossip lookup strategy (`walk`, the
//! default, `ring`, `plumtree`, or `foaf` — the last two pick the
//! HyParView/Plumtree epidemic engine, also reachable directly as
//! `--engine plumtree|foaf`); the other engines ignore it.
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
use mpil_harness::{RssBudget, TrafficBudget, WallClockBudget};

/// Count every heap allocation so the point can report steady-state
/// allocations per kernel event — the enforcement side of the
/// allocation-free message plane.
#[global_allocator]
static ALLOC: mpil_alloc::CountingAlloc = mpil_alloc::CountingAlloc;

fn main() {
    let args = Args::parse_env();
    let name = args.value_or("engine", "mpil".to_string());
    let strategy = args.value_or("strategy", "walk".to_string());
    let Some(spec) = scale_spec(&name, &strategy) else {
        eprintln!(
            "unknown --engine '{name}' / --strategy '{strategy}' \
             (expected mpil, kademlia, chord, pastry, gossip, plumtree, or foaf; \
             walk, ring, plumtree, or foaf)"
        );
        std::process::exit(2);
    };
    let nodes = args.value_or("nodes", 1000usize);
    let ops = args.value_or("ops", 20usize);
    let p = args.value_or("p", 0.5f64);
    let seed = args.value_or("seed", 1u64);
    let budget_s = args.value_or("budget-s", 0u64);
    let budget = (budget_s > 0).then(|| WallClockBudget::start(Duration::from_secs(budget_s)));
    let max_rss_mib = args.value_or("max-rss-mib", 0.0f64);
    let rss_budget = (max_rss_mib > 0.0).then(|| RssBudget::new(max_rss_mib));
    let max_msgs_per_lookup = args.value_or("max-msgs-per-lookup", 0.0f64);
    let traffic_budget =
        (max_msgs_per_lookup > 0.0).then(|| TrafficBudget::new(max_msgs_per_lookup));
    let point = run_point(spec, nodes, ops, p, seed);
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
    if let Some(budget) = budget {
        if let Err(msg) = budget.check(&context) {
            eprintln!("scale_run: {msg}");
            std::process::exit(1);
        }
    }
    if let Some(rss_budget) = rss_budget {
        if let Err(msg) = rss_budget.check(&context) {
            eprintln!("scale_run: {msg}");
            std::process::exit(1);
        }
    }
    if let Some(traffic_budget) = traffic_budget {
        if let Err(msg) = traffic_budget.check(&context, point.lookup_msgs, point.operations) {
            eprintln!("scale_run: {msg}");
            std::process::exit(1);
        }
    }
}
