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
use mpil_harness::OverlaySource;
use mpil_workload::Args;

/// Reads an overlay family and its size: `--family` (`default` when
/// absent) from [`OverlaySource::NAMES`], `--degree` as the `regular`
/// family's degree (16 when absent), and `--nodes` (1000 when absent),
/// refused below the family's [`OverlaySource::fewest_nodes`].
pub(crate) fn read_family(
    args: &Args,
    default: &str,
) -> Result<(String, OverlaySource, usize), CliError> {
    let family = args.value("family").unwrap_or(default).to_string();
    let degree = args.try_value("degree")?.unwrap_or(16usize);
    let source = match OverlaySource::named(&family).map_err(|why| format!("--family {why}"))? {
        OverlaySource::RandomRegular(_) => OverlaySource::RandomRegular(degree),
        source => source,
    };
    let nodes = args
        .try_value_in("nodes", source.fewest_nodes()..)?
        .unwrap_or(1000usize);
    Ok((family, source, nodes))
}

/// A command line as the tests write it.
#[cfg(test)]
fn args(line: &str) -> mpil_workload::Args {
    mpil_workload::Args::parse(line.split_whitespace().map(String::from))
}
