//! Closed-form figures (Section 5.2: Figures 7–8), with optional
//! Monte-Carlo cross-checks against actual generated graphs
//! (`--validate`).

use mpil::{MpilConfig, StaticEngine};
use mpil_analysis::AnalysisModel;
use mpil_harness::Report;
use mpil_id::{Id, IdSpace};
use mpil_overlay::{generators, NodeIdx};
use mpil_workload::{RunningStats, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::standard;
use crate::Args;

/// Figure 7: expected number of local maxima for random regular
/// topologies (Section 5.2 closed form), with an optional Monte-Carlo
/// cross-check against actual generated graphs (`--validate`).
pub fn fig7_local_maxima(args: &Args) -> Result<Report, String> {
    let (_full, _csv, seed) = standard(args)?;
    let validate = args.flag("validate");
    args.finish()?;
    let model = AnalysisModel::base4();
    let sizes = [4000usize, 8000, 16000];
    let degrees: Vec<usize> = (10..=100).step_by(10).collect();

    let mut headers = vec!["degree".to_string()];
    headers.extend(sizes.iter().map(|n| format!("{n} nodes")));
    if validate {
        headers.push("simulated (1000, d)".into());
    }
    let mut table = Table::new(headers);
    for &d in &degrees {
        let mut row = vec![d.to_string()];
        for &n in &sizes {
            row.push(format!("{:.1}", model.expected_local_maxima_regular(n, d)));
        }
        if validate {
            row.push(format!("{:.1}", monte_carlo_local_maxima(1000, d, seed)));
        }
        table.row(row);
    }
    let mut report = Report::new();
    report.table(
        "Figure 7: expected number of local maxima (random regular topologies, base-4)",
        table,
    );
    report.note(format!(
        "expected hops to a local maximum (1/C): d=10 -> {:.1}, d=50 -> {:.1}, d=100 -> {:.1}",
        model.expected_hops_regular(10),
        model.expected_hops_regular(50),
        model.expected_hops_regular(100)
    ));
    Ok(report)
}

/// Counts actual local maxima on generated graphs (scaled to the formula's
/// per-node probability times 1000 nodes for comparability).
fn monte_carlo_local_maxima(nodes: usize, degree: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = generators::random_regular(nodes, degree, &mut rng).expect("graph generation");
    let space = IdSpace::base4();
    let trials = 40;
    let mut total = 0usize;
    for _ in 0..trials {
        let object = Id::random(&mut rng);
        total += topo
            .iter_nodes()
            .filter(|&n| {
                let own = space.common_digits(object, topo.id(n));
                topo.neighbors(n)
                    .iter()
                    .all(|&m| space.common_digits(object, topo.id(m)) <= own)
            })
            .count();
    }
    total as f64 / trials as f64
}

/// Figure 8: expected number of replicas on complete topologies
/// (Section 5.2 closed form), with an optional simulated cross-check on
/// small complete graphs (`--validate`).
pub fn fig8_complete_replicas(args: &Args) -> Result<Report, String> {
    let (_full, _csv, seed) = standard(args)?;
    let validate = args.flag("validate");
    args.finish()?;
    let model = AnalysisModel::base4();
    let sizes: Vec<usize> = (1..=8).map(|k| k * 2000).collect();

    let mut headers = vec!["nodes".to_string(), "expected replicas".to_string()];
    if validate {
        headers.push("simulated (n=800)".into());
    }
    let mut table = Table::new(headers);
    let simulated = if validate {
        Some(simulate_complete(800, seed))
    } else {
        None
    };
    for &n in &sizes {
        let mut row = vec![
            n.to_string(),
            format!("{:.3}", model.expected_replicas_complete(n)),
        ];
        if let Some(sim) = simulated {
            row.push(format!(
                "{sim:.3} (formula {:.3})",
                model.expected_replicas_complete(800)
            ));
        }
        table.row(row);
    }
    let mut report = Report::new();
    report.table(
        "Figure 8: expected number of replicas (complete topologies, base-4)",
        table,
    );
    Ok(report)
}

/// Inserts random objects into an actual complete graph and reports the
/// mean replica count (every tied global maximum stores).
fn simulate_complete(n: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = generators::complete(n, &mut rng).expect("complete graph");
    // One flow suffices on a complete graph (every node is everyone's
    // neighbor); give the budget room for ties.
    let config = MpilConfig::default()
        .with_max_flows(30)
        .with_num_replicas(1);
    let mut engine = StaticEngine::new(&topo, config, seed ^ 1);
    let mut stats = RunningStats::new();
    for _ in 0..60 {
        let object = Id::random(&mut rng);
        let origin = NodeIdx::new(rng.gen_range(0..n as u32));
        let report = engine.insert(origin, object);
        stats.push(f64::from(report.replicas));
    }
    stats.mean()
}
