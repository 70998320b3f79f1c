//! `mpild` — the MPIL service daemon.
//!
//! Hosts a live MPIL cluster (one shard thread per core) behind a loopback-UDP
//! control socket. Prints one JSON line on startup (with the bound
//! control address) and one final JSON report after a `drain` request
//! shuts it down. It is [`mpild::front::serve`] under its own name
//! (`mpilctl serve` is the other); `--help` lists the flags.

use std::process::ExitCode;

use mpil_workload::Args;

fn main() -> ExitCode {
    match mpild::front::serve(&Args::parse_env()) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("mpild: {why}");
            ExitCode::from(2)
        }
    }
}
