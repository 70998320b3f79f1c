//! # mpil-chord
//!
//! A Chord DHT (Stoica et al., SIGCOMM 2001) built on the [`mpil_sim`]
//! kernel, serving two roles in the MPIL reproduction:
//!
//! * a **second structured baseline** next to
//!   [`mpil_pastry`](https://docs.rs/mpil-pastry): the paper's related
//!   work (Li et al., "Comparing the performance of distributed hash
//!   tables under churn") compares Chord-family DHTs under churn, and
//!   Chord's maintenance (stabilize / fix-fingers / check-predecessor)
//!   is the canonical alternative to Pastry's probing;
//! * a **third frozen overlay for MPIL** in the overlay-independence
//!   experiments: [`ChordSim::neighbor_lists`] exposes each node's
//!   successors ∪ fingers ∪ predecessor as a static graph that
//!   [`mpil::DynamicNetwork`](https://docs.rs/mpil) routes on with no
//!   maintenance at all — extending the paper's Section 6.2 result
//!   (MPIL over the MSPastry overlay) to a second structured topology.
//!
//! The engine implements greedy finger routing with successor-interval
//! delivery, successor-list failover, per-hop acks with retransmission,
//! probe-based failure declaration, a join protocol, and optional
//! DHash-style successor replication.
//!
//! ```
//! use mpil_chord::{build_converged_states, ChordConfig, ChordSim, LookupOutcome};
//! use mpil_overlay::{random_ids, NodeIdx};
//! use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration, SimTime};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let config = ChordConfig::default();
//! let ids = random_ids(50, &mut rng);
//! let states = build_converged_states(&ids);
//! let mut sim = ChordSim::new(
//!     (ids, states),
//!     config,
//!     Box::new(AlwaysOn),
//!     Box::new(ConstantLatency(SimDuration::from_millis(10))),
//!     42,
//! );
//!
//! let object = mpil_id::Id::from_low_u64(0xcafe);
//! sim.insert(NodeIdx::new(0), object);
//! sim.run_to_quiescence();
//!
//! let h = sim.issue_lookup(NodeIdx::new(7), object, SimTime::from_secs(60));
//! sim.run_until(SimTime::from_secs(60));
//! assert!(matches!(sim.lookup_outcome(h), LookupOutcome::Succeeded { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod config;
pub mod engine;
pub mod ring;
pub mod state;

pub use bootstrap::build_converged_states;
pub use config::ChordConfig;
pub use engine::{Chord, ChordSim, LookupOutcome};
pub use state::ChordState;
