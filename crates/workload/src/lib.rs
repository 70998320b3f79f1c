//! # mpil-workload
//!
//! Experiment support for the MPIL reproduction: workload generators
//! matching the paper's methodology (random object IDs, random
//! origin nodes, insert-then-lookup phases), streaming statistics, the
//! table/CSV rendering the bench binaries print, clock-free arrival
//! pacing (open/closed loop) for the live load generator, and the flag
//! parser every binary of the workspace shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod pacing;
pub mod requests;
pub mod stats;
pub mod table;

pub use cli::Args;
pub use pacing::{Pacer, PacingMode};
pub use requests::{InsertLookupWorkload, WorkloadConfig};
pub use stats::{Percentiles, RunningStats};
pub use table::{Align, Table};
