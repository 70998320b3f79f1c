//! Perturbation figures (Sections 3 and 6.2: Figures 1, 11, 12).
//!
//! Each figure builds its (system × setting × probability) point list,
//! fans it out through [`mpil_harness::fan_out`], and formats the
//! order-preserved results.

use mpil_harness::{run_scenario, EngineSpec, Report, Scenario};
use mpil_workload::Table;

use super::{row, standard, sweep};
use crate::scale::perturb_scale;
use crate::Args;

/// Figure 1: the effect of perturbation on MSPastry.
///
/// Success rate (%) vs flapping probability for idle:offline settings
/// 1:1, 45:15, 30:30 and 300:300 seconds.
pub fn fig1_pastry_perturbation(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let scale = perturb_scale(full);
    args.finish()?;
    let settings: &[(u64, u64)] = &[(1, 1), (45, 15), (30, 30), (300, 300)];

    let rows: Vec<Scenario> = settings
        .iter()
        .map(|&s| row(EngineSpec::MSPASTRY, s, scale.nodes, scale.operations, seed))
        .collect();
    eprintln!(
        "fig1: {} runs ({} settings x {} probabilities), {} nodes, {} lookups each",
        rows.len() * scale.probabilities.len(),
        settings.len(),
        scale.probabilities.len(),
        scale.nodes,
        scale.operations
    );
    let results = sweep(&rows, scale.probabilities, run_scenario);

    let mut headers = vec!["flap prob".to_string()];
    headers.extend(settings.iter().map(|&(i, o)| format!("{i}:{o}")));
    let mut table = Table::new(headers);
    for (pi, &p) in scale.probabilities.iter().enumerate() {
        let mut cells = vec![format!("{p:.1}")];
        cells.extend(results.iter().map(|r| format!("{:.1}", r[pi].success_rate)));
        table.row(cells);
    }
    let mut report = Report::new();
    report.table(
        "Figure 1: MSPastry success rate (%) under perturbation",
        table,
    );
    Ok(report)
}

/// Figure 11: success rate under perturbation for the four systems —
/// MSPastry, MSPastry with RR, MPIL with DS, MPIL without DS — at
/// idle:offline settings 1:1, 30:30 and 300:300 seconds.
///
/// Unlike the other figure functions, this one **streams**: each
/// setting's table is printed as soon as its sweep completes (paper
/// scale takes hours per setting — a killed run must not discard the
/// settings it already finished).
pub fn fig11_perturbation(args: &Args) -> Result<(), String> {
    let (full, csv, seed) = standard(args)?;
    let scale = perturb_scale(full);
    args.finish()?;
    let settings: &[(u64, u64)] = &[(1, 1), (30, 30), (300, 300)];
    let systems = EngineSpec::FIGURE_11;

    for &(idle, offline) in settings {
        let rows =
            systems.map(|system| row(system, (idle, offline), scale.nodes, scale.operations, seed));
        eprintln!(
            "fig11 idle:offline={idle}:{offline}: {} runs, {} nodes, {} lookups each",
            rows.len() * scale.probabilities.len(),
            scale.nodes,
            scale.operations
        );
        let results = sweep(&rows, scale.probabilities, run_scenario);

        let mut headers = vec!["flap prob".to_string()];
        headers.extend(systems.iter().map(EngineSpec::label));
        let mut table = Table::new(headers);
        for (pi, &p) in scale.probabilities.iter().enumerate() {
            let mut cells = vec![format!("{p:.1}")];
            cells.extend(results.iter().map(|r| format!("{:.1}", r[pi].success_rate)));
            table.row(cells);
        }
        let mut report = Report::new();
        report.table(
            format!("Figure 11 (idle:offline = {idle}:{offline}): success rate (%)"),
            table,
        );
        report.print(csv);
    }
    Ok(())
}

/// Figure 12: overall traffic under perturbation (idle:offline = 30:30) —
/// forwarded lookup messages (left panel) and total messages including
/// maintenance and acks (right panel), vs flapping probability.
pub fn fig12_traffic(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let scale = perturb_scale(full);
    args.finish()?;
    let systems = [
        EngineSpec::MSPASTRY,
        EngineSpec::MPIL_DS,
        EngineSpec::MPIL_NO_DS,
    ];

    let rows = systems.map(|system| row(system, (30, 30), scale.nodes, scale.operations, seed));
    eprintln!(
        "fig12: {} runs, {} nodes, {} lookups each",
        rows.len() * scale.probabilities.len(),
        scale.nodes,
        scale.operations
    );
    let results = sweep(&rows, scale.probabilities, run_scenario);

    let mut report = Report::new();
    for (title, pick) in [
        (
            "Figure 12 (left): forwarded lookup messages (idle:offline = 30:30)",
            0usize,
        ),
        (
            "Figure 12 (right): total messages incl. maintenance (idle:offline = 30:30)",
            1usize,
        ),
    ] {
        let mut headers = vec!["flap prob".to_string()];
        headers.extend(systems.iter().map(EngineSpec::label));
        let mut table = Table::new(headers);
        for (pi, &p) in scale.probabilities.iter().enumerate() {
            let mut cells = vec![format!("{p:.1}")];
            cells.extend(results.iter().map(|r| {
                let v = if pick == 0 {
                    r[pi].lookup_messages
                } else {
                    r[pi].total_messages
                };
                v.to_string()
            }));
            table.row(cells);
        }
        report.table(title, table);
    }
    Ok(report)
}
