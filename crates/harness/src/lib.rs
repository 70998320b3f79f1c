//! # mpil-harness
//!
//! The paper's central claim is *overlay-independence*: MPIL runs
//! unchanged over any substrate. This crate turns that claim into an
//! API. [`DiscoveryEngine`] is the one lifecycle every engine speaks:
//! it is implemented once, for [`mpil_sim::Sim`] of any
//! [`mpil_sim::Protocol`], so MPIL's [`mpil::DynamicNetwork`],
//! [`mpil_chord::ChordSim`], [`mpil_kademlia::KademliaSim`],
//! [`mpil_pastry::PastrySim`] and the epidemic
//! [`mpil_gossip::EpidemicSim`] all have it by being `Sim<P>`. [`Scenario`] is the one experiment descriptor
//! every figure driver speaks: which engine, how many nodes, which
//! perturbation schedule, which workload.
//!
//! On top of both sits the [`ExperimentRunner`]: a bounded worker pool
//! (`std::thread::scope` threads) that fans scenarios — or one scenario
//! across many seeds — out in parallel, with deterministic per-seed RNG
//! streams and order-preserving result collection, so a parallel run is
//! bit-identical to a sequential one. The paper's two-stage
//! perturbation methodology (insert on the static overlay, then flap
//! and look up) is implemented once, as the stage methods of
//! [`PreparedRun`]; [`run_scenario`] is the plain reader of that
//! sequence, and the bench crate's instrumented drivers call the same
//! stages with their own measurements in between.
//!
//! Results merge across seeds via [`mpil_workload::RunningStats`] and
//! emit uniformly as text tables, CSV ([`Report`]), or JSON
//! ([`SeedSweep::to_json`]).
//!
//! Adding a new substrate = implementing [`mpil_sim::Protocol`] (see
//! the conformance suite in `tests/conformance.rs`), an [`EngineSpec`]
//! variant with one row in [`EngineSpec::NAMES`] (the one table of
//! system names every command line reads) and, if its frozen pointer
//! graph should also serve as an MPIL overlay, an [`OverlaySource`]
//! variant with one row in [`OverlaySource::NAMES`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // P001

#[cfg(test)]
mod dhts;
pub mod engine;
#[cfg(test)]
mod perturb;
pub mod report;
pub mod runner;
pub mod scenario;

pub use engine::{Counters, DiscoveryEngine, LookupHandle};
pub use mpil_gossip::LookupStrategy;
pub use mpil_workload::{peak_rss_mib, RssBudget, TrafficBudget, WallClock, WallClockBudget};
pub use report::Report;
pub use runner::{
    run_prepared, run_scenario, ExperimentRunner, PerturbResult, SeedStats, SeedSweep,
};
pub use scenario::{
    mean_out_degree, EngineSpec, LookupTally, OverlaySource, PerturbRun, PreparedRun, Scenario,
};
