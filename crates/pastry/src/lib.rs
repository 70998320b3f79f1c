//! # mpil-pastry
//!
//! A from-scratch Pastry implementation standing in for **MSPastry**, the
//! baseline the paper compares MPIL against (Sections 3 and 6.2).
//!
//! The paper ran Microsoft Research's MSPastry under a limited license;
//! that code is not available, so this crate implements the published
//! Pastry design (Rowstron & Druschel, Middleware 2001) plus the
//! dependability machinery of MSPastry (Castro, Costa & Rowstron,
//! DSN 2004) that the paper's configuration lists:
//!
//! * prefix routing with a **leaf set** (`l = 8`) and a **routing table**
//!   (`b = 4`, 40 rows × 16 columns);
//! * **per-hop acknowledgments** with retransmission (probe timeout 3 s,
//!   2 retries) and failure declaration + re-routing when they exhaust;
//! * periodic **leaf-set probing** (30 s), **routing-table probing**
//!   (90 s) and **routing-table maintenance** (12 000 s);
//! * passive re-integration: any message from a previously-declared-failed
//!   node re-admits it to the receiver's tables;
//! * optional **Replication on Route (RR)**: every node on an insertion's
//!   path stores a replica (Figure 11's "MSPastry with RR").
//!
//! It runs over the same [`mpil_sim`] kernel as MPIL's dynamic agents, so
//! the Figure 1/11/12 comparisons hold the network model constant.
//!
//! The overlay also exports each node's **neighbor list** (leaf set ∪
//! routing table), which is how the paper runs "MPIL over the overlay of
//! MSPastry ... without any of the overlay maintenance techniques".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bootstrap;
mod config;
mod engine;
mod leafset;
mod routing_table;
mod state;

pub use bootstrap::{build_converged_states, build_converged_states_partial};
pub use config::PastryConfig;
pub use engine::{LookupOutcome, Pastry, PastrySim};
pub use leafset::LeafSet;
pub use routing_table::RoutingTable;
pub use state::{NextHop, PastryState};
