//! # mpil-gossip
//!
//! The epidemic/unstructured-overlay discovery engine: the fifth
//! substrate behind `mpil_harness::DiscoveryEngine`, testing the
//! paper's overlay-independence claim in the regime its structured
//! substrates (Chord, Kademlia, Pastry) cannot reach.
//!
//! One engine ([`EpidemicSim`], [`EpidemicConfig`]) on the [`mpil_sim`]
//! kernel, one membership layer under every search:
//!
//! * **Membership** ([`Membership`], [`build_converged_membership`]):
//!   HyParView — a small symmetric active view maintained by
//!   JOIN/FORWARD-JOIN/NEIGHBOR with reactive replacement from a larger
//!   passive view refreshed by shuffles, both bounded [`PartialView`]s.
//! * **Replication**: inserts broadcast announcements down a Plumtree —
//!   eager push on tree links, IHAVE digests to the rest, GRAFT/PRUNE
//!   lazy repair — planting the pointer at essentially every node; under
//!   the two unstructured searches, a few TTL-bounded random walks
//!   deposit it where they pass instead.
//! * **Lookup** ([`LookupStrategy`]): shallow TTL-bounded queries of the
//!   active view retried in rounds ([`LookupStrategy::Plumtree`]),
//!   FOAF-style bounded-fanout walks ([`LookupStrategy::Foaf`]), `k`
//!   independent random walks ([`LookupStrategy::KRandomWalk`]), or
//!   expanding-ring flooding with per-round duplicate suppression
//!   ([`LookupStrategy::ExpandingRing`]); all reply directly to the
//!   origin.
//!
//! The engine is ID-agnostic like MPIL — no key-space metric, only
//! exact pointer matches — and every random choice flows through the
//! kernel RNG, so fixed seeds reproduce bit-for-bit. Its converged
//! active views can also be frozen into neighbor lists for MPIL to
//! route over, closing the loop on overlay-independence
//! (`OverlaySource::HyParView` in the harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod epidemic;
pub mod membership;
mod ticker;
pub mod view;

pub use config::{EpidemicConfig, LookupStrategy};
pub use epidemic::{Epidemic, EpidemicSim};
pub use membership::{build_converged_membership, Membership};
pub use view::PartialView;

/// Outcome of one lookup (the shared engine-agnostic enum).
pub use mpil_sim::LookupOutcome;
