//! `mpilctl` subcommands. Each module exposes
//! `run(&Args) -> Result<String, CliError>`.

pub mod analyze;
pub mod load;
pub mod overlay;
pub mod perturb;
pub mod serve;
pub mod simulate;
pub mod sweep;

use crate::CliError;
use mpil_overlay::{generators, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds one of the plain graph families (the structured overlays are
/// handled by [`overlay`] itself, which needs their neighbor lists, not
/// a `Topology`).
pub(crate) fn build_topology(
    family: &str,
    nodes: usize,
    degree: usize,
    seed: u64,
) -> Result<Topology, CliError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = match family {
        "powerlaw" | "power-law" => generators::power_law(nodes, Default::default(), &mut rng),
        "random" | "regular" => generators::random_regular(nodes, degree, &mut rng),
        "complete" => generators::complete(nodes, &mut rng),
        other => {
            return Err(CliError(format!(
                "unknown overlay family {other:?} (want powerlaw|random|regular|complete)"
            )))
        }
    };
    topo.map_err(|e| CliError(format!("overlay generation failed: {e}")))
}

/// A command line as the tests write it.
#[cfg(test)]
fn args(line: &str) -> mpil_workload::Args {
    mpil_workload::Args::parse(line.split_whitespace().map(String::from))
}
