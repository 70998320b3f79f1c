//! # mpil-workload
//!
//! Experiment support for the MPIL reproduction: workload generators
//! matching the paper's methodology (random object IDs, random
//! origin nodes, insert-then-lookup phases), streaming statistics, the
//! table/CSV rendering the bench binaries print, clock-free arrival
//! pacing (open/closed loop) for the live load generator, the flag
//! parser every binary of the workspace shares, and the one sanctioned
//! wall-clock touchpoint ([`WallClock`] and the budgets built on it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cli;
pub mod pacing;
pub mod requests;
pub mod stats;
pub mod table;

pub use budget::{peak_rss_mib, RssBudget, TrafficBudget, WallClock, WallClockBudget};
pub use cli::Args;
pub use pacing::{Pacer, PacingMode};
pub use requests::{InsertLookupWorkload, WorkloadConfig};
pub use stats::{Percentiles, RunningStats};
pub use table::{Align, Table};
