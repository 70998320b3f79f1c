//! Static-overlay figures and tables (Section 6.1: Figures 9–10,
//! Tables 1–3).

use mpil::MpilConfig;
use mpil_harness::Report;
use mpil_workload::Table;

use super::standard;
use crate::scale::static_scale;
use crate::static_exp::{insertion_behavior, lookup_behavior, paper_insert_config, Family};
use crate::Args;

/// Figure 9: MPIL insertion behavior over power-law and random overlays —
/// replicas per insertion (left panel), insertion traffic (center), and
/// duplicate messages (right), vs overlay size.
///
/// Paper parameters: max_flows = 30, per-flow replicas = 5, DS on.
pub fn fig9_insertion(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    args.finish()?;
    let scale = static_scale(full);
    let config = paper_insert_config();
    let families = [
        Family::PowerLaw,
        Family::Random {
            degree: scale.random_degree,
        },
    ];

    let mut table = Table::new(vec![
        "family".into(),
        "nodes".into(),
        "avg replicas".into(),
        "avg traffic".into(),
        "total duplicates".into(),
        "avg flows".into(),
    ]);
    for family in families {
        for &n in scale.sizes {
            eprintln!(
                "fig9: {} {n} nodes ({} graphs x {} inserts)",
                family.label(),
                scale.graphs,
                scale.objects
            );
            let b = insertion_behavior(family, n, scale.graphs, scale.objects, config, seed);
            table.row(vec![
                family.label().into(),
                n.to_string(),
                format!("{:.1}", b.mean_replicas),
                format!("{:.1}", b.mean_traffic),
                b.total_duplicates.to_string(),
                format!("{:.2}", b.mean_flows),
            ]);
        }
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Figure 9: MPIL insertion behavior (max_flows=30, per-flow replicas=5; replica bound {})",
            config.replica_bound()
        ),
        table,
    );
    Ok(report)
}

/// Figure 10: MPIL lookup latency (hops of the first successful reply,
/// left panel) and lookup traffic (right panel) vs overlay size, for
/// power-law and random overlays.
///
/// Paper parameters: lookups with max_flows = 10 and per-flow
/// replicas = 5 ("that setting gives 100% success rates for all sizes").
pub fn fig10_lookup_cost(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    args.finish()?;
    let scale = static_scale(full);
    let insert_config = paper_insert_config();
    let lookup_config = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(5);

    let mut table = Table::new(vec![
        "family".into(),
        "nodes".into(),
        "success %".into(),
        "avg latency (hops)".into(),
        "avg traffic".into(),
        "traffic to 1st reply".into(),
    ]);
    for family in [
        Family::PowerLaw,
        Family::Random {
            degree: scale.random_degree,
        },
    ] {
        for &n in scale.sizes {
            eprintln!("fig10: {} {n} nodes", family.label());
            let b = lookup_behavior(
                family,
                n,
                scale.graphs,
                scale.objects,
                insert_config,
                lookup_config,
                seed,
            );
            table.row(vec![
                family.label().into(),
                n.to_string(),
                format!("{:.1}", b.success_rate),
                format!("{:.2}", b.mean_hops),
                format!("{:.1}", b.mean_traffic),
                format!("{:.1}", b.mean_traffic_to_first_reply),
            ]);
        }
    }
    let mut report = Report::new();
    report.table(
        "Figure 10: MPIL lookup latency and traffic (max_flows=10, per-flow replicas=5)",
        table,
    );
    Ok(report)
}

/// Tables 1 and 2: MPIL lookup success rate (%) over power-law
/// (Table 1) and random (Table 2) topologies, for max_flows ∈ {5, 10, 15}
/// × per-flow replicas ∈ {1..5}.
///
/// Insertions use the paper's setting (max_flows = 30, per-flow
/// replicas = 5) before each grid.
pub fn table1_2_lookup_success(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    args.finish()?;
    let scale = static_scale(full);
    let insert_config = paper_insert_config();
    let max_flows = [5u32, 10, 15];
    let replicas = [1u32, 2, 3, 4, 5];

    let mut report = Report::new();
    for (label, family) in [
        (
            "Table 1: MPIL lookup success rate over power-law topologies",
            Family::PowerLaw,
        ),
        (
            "Table 2: MPIL lookup success rate over random topologies",
            Family::Random {
                degree: scale.random_degree,
            },
        ),
    ] {
        let mut headers = vec!["# nodes".to_string(), "Max flows".to_string()];
        headers.extend(replicas.iter().map(|r| format!("r={r}")));
        let mut table = Table::new(headers);
        for &n in scale.sizes {
            for &mf in &max_flows {
                eprintln!("{}: {n} nodes, max_flows={mf}", family.label());
                let mut row = vec![n.to_string(), mf.to_string()];
                for &r in &replicas {
                    let lookup_config = MpilConfig::default()
                        .with_max_flows(mf)
                        .with_num_replicas(r);
                    let b = lookup_behavior(
                        family,
                        n,
                        scale.graphs,
                        scale.objects,
                        insert_config,
                        lookup_config,
                        seed,
                    );
                    row.push(format!("{:.1}", b.success_rate));
                }
                table.row(row);
            }
        }
        report.table(label, table);
    }
    Ok(report)
}

/// Table 3: the actual number of flows created by lookups with
/// max_flows = 10 and per-flow replicas = 3.
pub fn table3_flows(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    args.finish()?;
    let scale = static_scale(full);
    let insert_config = paper_insert_config();
    let lookup_config = MpilConfig::default()
        .with_max_flows(10)
        .with_num_replicas(3);

    let mut table = Table::new(vec!["topology".into(), "actual # of flows".into()]);
    for family in [
        Family::PowerLaw,
        Family::Random {
            degree: scale.random_degree,
        },
    ] {
        for &n in scale.sizes {
            eprintln!("table3: {} {n} nodes", family.label());
            let b = lookup_behavior(
                family,
                n,
                scale.graphs,
                scale.objects,
                insert_config,
                lookup_config,
                seed,
            );
            table.row(vec![
                format!("{} {n}", family.label()),
                format!("{:.3}", b.mean_flows),
            ]);
        }
    }
    let mut report = Report::new();
    report.table(
        "Table 3: actual number of flows of lookups (max_flows=10, per-flow replicas=3)",
        table,
    );
    Ok(report)
}
