//! # mpil-overlay
//!
//! Overlay graphs and the topology generators the paper evaluates on
//! (Section 6):
//!
//! * **power-law graphs** "generated by Inet ... with 0% of degree 1 nodes"
//!   — [`generators::power_law`], an Inet-style preferential generator;
//! * **random graphs** where "each node has 100 neighbors, equally" —
//!   [`generators::random_regular`];
//! * **complete topologies** used by the Section 5 analysis —
//!   [`generators::complete`];
//! * a **GT-ITM-style transit-stub** Internet topology used to assign
//!   message latencies in the packet-level simulations —
//!   [`transit_stub`].
//!
//! A [`Topology`] is an undirected graph whose vertices carry 160-bit IDs
//! ([`mpil_id::Id`]), its neighbor lists one [`Adjacency`] array. MPIL is
//! *overlay-independent*: it consumes nothing but each node's neighbor
//! list, so every experiment in the paper is parameterized by one of
//! these graphs.
//!
//! ```
//! use mpil_overlay::{generators, Topology};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let topo: Topology = generators::random_regular(100, 6, &mut rng)?;
//! assert_eq!(topo.len(), 100);
//! assert!(topo.iter_nodes().all(|n| topo.degree(n) == 6));
//! # Ok::<(), mpil_overlay::generators::GenerateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod generators;
pub mod stats;
pub mod transit_stub;

mod adjacency;
mod builder;
mod topology;

pub use adjacency::Adjacency;
pub use builder::{random_ids, TopologyBuilder};
pub use topology::{NodeIdx, Topology};
