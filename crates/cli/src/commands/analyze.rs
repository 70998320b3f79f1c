//! `mpilctl analyze` — Section 5 closed forms.

use mpil_analysis::AnalysisModel;
use mpil_workload::Args;

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on an unknown `--what` or a flag it cannot read.
pub fn run(args: &Args) -> Result<String, CliError> {
    let what = args.value("what").unwrap_or("local-maxima").to_string();
    // The complete-overlay replica formula needs two nodes at least.
    let fewest = if what == "replicas" { 2 } else { 0 };
    let nodes = args.try_value_in("nodes", fewest..)?.unwrap_or(16_000usize);
    // `--base4` is the default; the synopsis names it, so it is accepted.
    let _ = args.flag("base4");
    let base16 = args.flag("base16");
    let degree = match what.as_str() {
        "local-maxima" | "local_maxima" => args.try_value("degree")?.unwrap_or(50usize),
        _ => 0,
    };
    args.finish()?;
    let (model, base) = if base16 {
        (AnalysisModel::base16(), 16)
    } else {
        (AnalysisModel::base4(), 4)
    };
    match what.as_str() {
        "local-maxima" | "local_maxima" => {
            let strict = model.expected_local_maxima_regular(nodes, degree);
            let ties = model.expected_local_maxima_regular_with_ties(nodes, degree);
            let hops = model.expected_hops_regular(degree);
            Ok(format!(
                "random regular overlay, N = {nodes}, degree = {degree} (base-{base})\n\
                 E[#local maxima]          = {strict:.1}   (paper's strict-dominance formula, Fig. 7)\n\
                 E[#local maxima w/ ties]  = {ties:.1}   (MPIL's actual tie-allowing definition)\n\
                 E[hops to a local max]    = {hops:.2}   (random walk, 1/C)\n",
            ))
        }
        "replicas" => {
            let r = model.expected_replicas_complete(nodes);
            Ok(format!(
                "complete overlay, N = {nodes} (base-{base})\n\
                 E[#replicas] = {r:.4}   (paper's Figure 8 band: 1.55-1.63)\n",
            ))
        }
        other => Err(CliError(format!(
            "unknown analysis {other:?} (want local-maxima|replicas)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn local_maxima_matches_figure_7() {
        let out = run(&args("--what local-maxima --nodes 16000 --degree 100")).expect("ok");
        // Figure 7 reads ≈120 for N=16000, d=100.
        assert!(out.contains("118."), "got:\n{out}");
    }

    #[test]
    fn replicas_inside_figure_8_band() {
        let out = run(&args("--what replicas --nodes 8000")).expect("ok");
        assert!(out.contains("1.59"), "got:\n{out}");
    }

    #[test]
    fn unknown_what_is_an_error() {
        assert!(run(&args("--what entropy")).is_err());
    }
}
