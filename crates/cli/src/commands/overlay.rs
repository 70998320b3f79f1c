//! `mpilctl overlay` — generate an overlay and print its statistics.

use mpil_harness::mean_out_degree;
use mpil_overlay::stats;
use mpil_workload::Args;

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on unknown families, infeasible parameters or a flag it
/// cannot read.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (family, source, nodes) = super::read_family(args, "powerlaw")?;
    let seed = args.try_value("seed")?.unwrap_or(42u64);
    args.finish()?;

    // Structured overlays report directed out-degree statistics.
    let Some(topo) = source.generate(nodes, seed) else {
        let (_, nbrs) = source.build(nodes, seed);
        let mut degrees: Vec<usize> = nbrs.iter().map(<[_]>::len).collect();
        degrees.sort_unstable();
        return Ok(format!(
            "{} overlay: {} nodes (directed pointer graph)\n\
             out-degree: mean {:.1}, min {}, median {}, max {}\n",
            family,
            nodes,
            mean_out_degree(&nbrs),
            degrees.first().copied().unwrap_or(0),
            degrees[degrees.len() / 2],
            degrees.last().copied().unwrap_or(0),
        ));
    };
    let topo = topo.map_err(|e| CliError(format!("overlay generation failed: {e}")))?;
    let hist = stats::degree_histogram(&topo);
    let (min_d, max_d) = (
        hist.iter().position(|&c| c > 0).unwrap_or(0),
        hist.iter().rposition(|&c| c > 0).unwrap_or(0),
    );
    Ok(format!(
        "{} overlay: {} nodes, {} edges\n\
         degree: mean {:.1}, min {}, max {}\n\
         connected: {}\n\
         diameter (sampled): {}\n",
        family,
        topo.len(),
        topo.edge_count(),
        stats::mean_degree(&topo),
        min_d,
        max_d,
        stats::is_connected(&topo),
        stats::estimate_diameter(&topo, 8),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn powerlaw_overlay_reports_stats() {
        let out = run(&args("--family powerlaw --nodes 200 --seed 1")).expect("ok");
        assert!(out.contains("200 nodes"));
        assert!(out.contains("connected: true"));
    }

    #[test]
    fn chord_overlay_reports_out_degree() {
        let out = run(&args("--family chord --nodes 100 --seed 1")).expect("ok");
        assert!(out.contains("directed pointer graph"));
        assert!(out.contains("out-degree"));
    }

    #[test]
    fn unknown_family_is_an_error() {
        let err = run(&args("--family banana")).expect_err("must fail");
        assert!(err.0.contains("banana"));
    }
}
