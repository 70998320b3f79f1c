//! # mpil-workload
//!
//! Experiment support for the MPIL reproduction: workload generators
//! matching the paper's methodology (random object IDs, random
//! origin nodes, insert-then-lookup phases), streaming statistics, the
//! table/CSV rendering the bench binaries print, clock-free arrival
//! pacing (open/closed loop) for the live load generator, the flag
//! parser every binary of the workspace shares, and the one sanctioned
//! wall-clock touchpoint ([`WallClock`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod budget;
mod cli;
mod pacing;
mod requests;
mod stats;
mod table;

pub use budget::{peak_rss_mib, WallClock};
pub use cli::Args;
pub use pacing::Pacer;
pub use requests::{InsertLookupWorkload, WorkloadConfig};
pub use stats::{Percentiles, RunningStats};
pub use table::Table;
