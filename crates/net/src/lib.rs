//! # mpil-net
//!
//! A **live** MPIL runtime: the same routing algorithm the simulators
//! verify, executed by real threads over real transports. Where
//! [`mpil::StaticEngine`] and [`mpil::DynamicNetwork`] reproduce the
//! paper's experiments deterministically, this crate is what a
//! downstream user would actually deploy in-process:
//!
//! * [`codec`] — a versioned binary wire format for MPIL messages
//!   (documented byte-for-byte; round-trip property-tested);
//! * [`transport`] — a [`Transport`] abstraction with an in-process
//!   `std::sync::mpsc` channel mesh and a loopback UDP mesh;
//! * [`node`] — one overlay node: the simulator's [`mpil::Agent`],
//!   counters, perturbation control;
//! * `shard` — the evented loop that hosts a share of the nodes, one
//!   per core: the very receive path the simulator runs
//!   ([`mpil::Agent::receive`]), its results sent on, with a hop between
//!   two nodes of one shard handed over in memory instead of through the
//!   transport;
//! * [`cluster`] — [`LiveCluster`]: spawn a topology over those shards,
//!   insert/lookup through any entry node, perturb nodes at will, and
//!   shut down cleanly (draining in-flight traffic first);
//! * [`request`] — [`RequestTracker`]: per-request timeout/retry
//!   bookkeeping for pipelined clients such as the `mpild` daemon.
//!
//! ```
//! use mpil_net::{LiveClusterBuilder, TransportKind};
//! use mpil_overlay::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//! use std::time::Duration;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let topo = generators::random_regular(32, 6, &mut rng)?;
//! let mut cluster = LiveClusterBuilder::new()
//!     .transport(TransportKind::Channel)
//!     .spawn(&topo)?;
//!
//! let object = mpil_id::Id::from_low_u64(0xfeed);
//! let origin = mpil_overlay::NodeIdx::new(0);
//! let holders = cluster.insert(origin, object, Duration::from_millis(300));
//! assert!(!holders.is_empty());
//!
//! let hit = cluster.lookup(mpil_overlay::NodeIdx::new(9), object, Duration::from_secs(2));
//! assert!(hit.is_some());
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(clippy::disallowed_types, reason = "D002: the wall-clock zone (sockets and timeouts)")]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // P001

pub mod cluster;
pub mod codec;
pub mod node;
pub mod request;
mod shard;
pub mod transport;

pub use cluster::{
    ClientEvent, LiveCluster, LiveClusterBuilder, LiveLookup, SpawnError, TransportKind,
};
pub use codec::{DecodeError, EncodeError, WireMessage, WIRE_VERSION};
pub use node::NodeStats;
pub use request::{Pending, RequestTracker, RetryPolicy};
pub use transport::{
    ChannelMesh, ChannelTransport, Transport, TransportError, UdpMesh, UdpTransport,
};
