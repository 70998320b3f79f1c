//! `mpil-load` — load generator for `mpild`.
//!
//! Runs the paper's insert-then-lookup workload against a daemon:
//! announce phase closed-loop, lookup phase at a configurable offered
//! rate (open loop, bounded in-flight window) or closed-loop, with
//! optional flapping churn injected through the admin plane mid-run.
//! Prints one JSON line with latency percentiles and success rates,
//! and exits 1 when a `--min-success` / `--max-p99-ms` gate (or the
//! `--budget-s` wall-clock budget) is violated, 2 when the run could
//! not start. It is [`mpild::front::load`] under its own name
//! (`mpilctl load` is the other); `--help` lists the flags.

use std::process::ExitCode;

use mpil_workload::Args;

fn main() -> ExitCode {
    match mpild::front::load(&Args::parse_env()) {
        Ok((report, failures)) => {
            print!("{report}");
            for failure in &failures {
                eprintln!("mpil-load: {failure}");
            }
            ExitCode::from(u8::from(!failures.is_empty()))
        }
        Err(why) => {
            eprintln!("mpil-load: {why}");
            ExitCode::from(2)
        }
    }
}
