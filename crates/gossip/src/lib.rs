//! # mpil-gossip
//!
//! The epidemic/unstructured-overlay discovery engine: the fifth
//! substrate behind `mpil_harness::DiscoveryEngine`, testing the
//! paper's overlay-independence claim in the regime its structured
//! substrates (Chord, Kademlia, Pastry) cannot reach.
//!
//! Two engines share the crate, both on the [`mpil_sim`] kernel:
//!
//! **The flat Cyclon engine** ([`GossipSim`], [`GossipConfig`]):
//!
//! * **Membership** ([`PartialView`], [`build_converged_views`]):
//!   bounded partial views maintained by Cyclon-style push-pull
//!   shuffles — age-based peer selection, swap semantics on overflow —
//!   with SWIM-style suspicion evicting peers that miss
//!   [`GossipConfig::suspicion_limit`] consecutive shuffle replies.
//! * **Replication**: inserts launch TTL-bounded random walks that
//!   deposit the pointer at every node visited.
//! * **Lookup** ([`LookupStrategy::KRandomWalk`],
//!   [`LookupStrategy::ExpandingRing`]): `k` independent random walks
//!   with TTL, or expanding-ring flooding with per-round duplicate
//!   suppression; both reply directly to the origin.
//!
//! **The two-layer epidemic engine** ([`EpidemicSim`],
//! [`EpidemicConfig`]):
//!
//! * **Membership** ([`Membership`], [`build_converged_membership`]):
//!   HyParView — a small symmetric active view maintained by
//!   JOIN/FORWARD-JOIN/NEIGHBOR with reactive replacement from a larger
//!   passive view refreshed by shuffles.
//! * **Replication**: inserts broadcast announcements down a Plumtree —
//!   eager push on tree links, IHAVE digests to the rest, GRAFT/PRUNE
//!   lazy repair — planting the pointer at essentially every node.
//! * **Lookup** ([`LookupStrategy::Plumtree`], [`LookupStrategy::Foaf`]):
//!   shallow TTL-bounded queries of the active view retried in rounds,
//!   or FOAF-style bounded-fanout walks; an order of magnitude fewer
//!   messages per lookup than expanding-ring flooding.
//!
//! The engine is ID-agnostic like MPIL — no key-space metric, only
//! exact pointer matches — and every random choice flows through the
//! kernel RNG, so fixed seeds reproduce bit-for-bit. Its live views can
//! also be frozen into neighbor lists ([`GossipSim::neighbor_lists`])
//! for MPIL to route over, closing the loop on overlay-independence
//! (`OverlaySource::Gossip` in the harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod epidemic;
pub mod membership;
mod ticker;
pub mod view;

pub use config::{EpidemicConfig, GossipConfig, LookupStrategy};
pub use engine::{Gossip, GossipSim, GossipStats};
pub use epidemic::{Epidemic, EpidemicSim};
pub use membership::{build_converged_membership, Membership};
pub use view::{build_converged_views, PartialView, ViewEntry};

/// Outcome of one lookup (the shared engine-agnostic enum).
pub use mpil_sim::LookupOutcome;
