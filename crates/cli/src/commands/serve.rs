//! `mpilctl serve` — run the `mpild` daemon in the foreground.
//!
//! The same code as the `mpild` binary ([`mpild::front::serve`]), flag
//! for flag: binds the loopback-UDP control socket, prints the
//! start-up line, and serves until a client sends a drain frame
//! (`mpilctl load --stop-daemon`, or `mpil-load`).

use mpil_workload::Args;

use crate::CliError;

/// Runs the subcommand. Blocks until the daemon is drained; the
/// returned string is the daemon's final JSON report.
///
/// # Errors
///
/// [`CliError`] if the control socket cannot bind or the cluster fails
/// to spawn.
pub(crate) fn run(args: &Args) -> Result<String, CliError> {
    mpild::front::serve(args).map_err(CliError)
}
