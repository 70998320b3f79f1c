//! One function per figure/table driver.
//!
//! Every `src/bin/*` binary is a three-line shim over a function here:
//! parse [`crate::Args`], build a [`mpil_harness::Report`], print it.
//! The experiment fan-out runs through
//! [`mpil_harness::ExperimentRunner`] and — for every event-driven
//! engine — the [`mpil_harness::DiscoveryEngine`] lifecycle, so every
//! figure is reproducible against every engine from one code path.

use mpil_harness::{EngineSpec, ExperimentRunner, PerturbRun, Scenario};

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
