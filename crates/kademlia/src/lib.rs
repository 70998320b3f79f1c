//! # mpil-kademlia
//!
//! A Kademlia DHT (Maymounkov & Mazières, IPTPS 2002) built on the
//! [`mpil_sim`] kernel, serving two roles in the MPIL reproduction:
//!
//! * a **third structured baseline** next to Pastry and Chord. The MPIL
//!   paper singles Kademlia out in Section 4.1: "Unlike the Kademlia
//!   overlay, which also uses an XOR, MPIL uses the XOR metric to select
//!   *multiple* next hops for the query." Kademlia is therefore the
//!   closest structured relative of MPIL — same metric family, single
//!   search frontier managed by the originator — and the most
//!   informative head-to-head comparison under perturbation;
//! * a **fourth frozen overlay for MPIL**: [`KademliaSim::neighbor_lists`]
//!   exposes each node's bucket contents as a static graph for the
//!   overlay-independence experiments.
//!
//! The engine implements k-buckets with ping-before-evict admission,
//! iterative `FIND_NODE`/`FIND_VALUE` with `α` parallelism, `STORE` at
//! the `k` closest nodes, and periodic bucket refresh.
//!
//! ```
//! use mpil_kademlia::{build_converged_tables, KademliaConfig, KademliaSim, LookupOutcome};
//! use mpil_overlay::NodeIdx;
//! use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration, SimTime};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let config = KademliaConfig::default();
//! let ids: Vec<mpil_id::Id> = (0..50).map(|_| mpil_id::Id::random(&mut rng)).collect();
//! let tables = build_converged_tables(&ids, &config);
//! let mut sim = KademliaSim::new(
//!     (ids, tables),
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

pub mod config;
pub mod engine;
pub mod table;

pub use config::KademliaConfig;
pub use engine::{Kademlia, KademliaSim, LookupOutcome};
pub use table::{build_converged_tables, Admission, KBucket, RoutingTable};
