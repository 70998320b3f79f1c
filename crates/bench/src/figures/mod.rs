//! One function per figure/table driver.
//!
//! Every figure binary is a one-line shim over a function here:
//! [`crate::print`] the [`mpil_harness::Report`] it builds from the
//! command line ([`crate::run`] for fig11, which prints as it goes).
//! Each function reads its flags strictly and calls [`Args::finish`]
//! before any work starts, so a command line it cannot read is refused
//! with the flag named. The experiment fan-out runs through
//! [`mpil_harness::ExperimentRunner`] and — for every event-driven
//! engine — the [`mpil_harness::DiscoveryEngine`] lifecycle, so every
//! figure is reproducible against every engine from one code path.

use mpil_harness::{EngineSpec, ExperimentRunner, PerturbRun, Scenario};

use crate::Args;

pub mod ablations;
pub mod analysis;
pub mod extensions;
pub mod perturbation;
pub mod statics;

pub use ablations::{ablation_baselines, ablation_metric, ablation_split_policy};
pub use analysis::{fig7_local_maxima, fig8_complete_replicas};
pub use extensions::{
    ext_churn_traces, ext_dht_comparison, ext_gossip_discovery, ext_link_loss,
    ext_overlay_independence,
};
pub use perturbation::{fig11_perturbation, fig12_traffic, fig1_pastry_perturbation};
pub use statics::{fig10_lookup_cost, fig9_insertion, table1_2_lookup_success, table3_flows};

/// The knobs every figure reads: (`--full`, `--csv`, `--seed`, 42 when
/// absent).
fn standard(args: &Args) -> Result<(bool, bool, u64), String> {
    let seed = args.try_value("seed")?.unwrap_or(42);
    Ok((args.flag("full"), args.flag("csv"), seed))
}

/// `system` under `idle:offline` flapping at the given size and seed;
/// [`sweep`] fills in the flapping probability.
fn row(
    system: EngineSpec,
    (idle, offline): (u64, u64),
    nodes: usize,
    ops: usize,
    seed: u64,
) -> Scenario {
    let mut run = PerturbRun::new(idle, offline, 0.0);
    run.nodes = nodes;
    run.operations = ops;
    run.seed = seed;
    Scenario::new(system, run)
}

/// Measures every row at every flapping probability on `runner` and
/// returns the results as `[row][probability]`.
fn sweep<R: Send>(
    runner: ExperimentRunner,
    rows: &[Scenario],
    probabilities: &[f64],
    measure: impl Fn(&Scenario) -> R + Sync,
) -> Vec<Vec<R>> {
    let mut points = Vec::with_capacity(rows.len() * probabilities.len());
    for row in rows {
        for &p in probabilities {
            let mut point = *row;
            point.run.probability = p;
            points.push(point);
        }
    }
    let mut results = runner.map(&points, measure).into_iter();
    rows.iter()
        .map(|_| results.by_ref().take(probabilities.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure of each module refuses, with the flag named, what it
    /// cannot read as written — before any work starts.
    #[test]
    fn every_module_refuses_a_flag_it_cannot_read() {
        type Figure = fn(&Args) -> Result<(), String>;
        // ablations, analysis, extensions, perturbation, statics
        let figures: [Figure; 5] = [
            |a| ablation_metric(a).map(drop),
            |a| fig7_local_maxima(a).map(drop),
            |a| ext_dht_comparison(a).map(drop),
            fig11_perturbation,
            |a| table3_flows(a).map(drop),
        ];
        for (module, figure) in figures.into_iter().enumerate() {
            for (line, named) in [
                ("--sed 2", "unknown flag --sed"),
                ("--seed many", "--seed \"many\""),
                ("--full --seed", "--seed needs a value"),
            ] {
                let args = Args::parse(line.split(' ').map(String::from));
                let why = figure(&args).expect_err(line);
                assert!(why.contains(named), "module {module}, {line}: {why}");
            }
        }
        // The extensions' five --ops readers refuse a run of no lookups.
        let no_ops = Args::parse(["--ops", "0"].map(String::from));
        let why = ext_dht_comparison(&no_ops).map(drop).expect_err("--ops 0");
        assert!(why.contains("--ops \"0\""), "{why}");
        // Nor do the extensions build an overlay of no nodes.
        let no_nodes = Args::parse(["--nodes", "0"].map(String::from));
        let extensions: [Figure; 5] = [
            |a| ext_churn_traces(a).map(drop),
            |a| ext_dht_comparison(a).map(drop),
            |a| ext_link_loss(a).map(drop),
            |a| ext_gossip_discovery(a).map(drop),
            |a| ext_overlay_independence(a).map(drop),
        ];
        for (extension, figure) in extensions.into_iter().enumerate() {
            let why = figure(&no_nodes).expect_err("--nodes 0");
            assert!(
                why.contains("--nodes \"0\""),
                "extension {extension}: {why}"
            );
        }
    }
}
