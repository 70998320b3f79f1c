//! # mpil-sim
//!
//! A deterministic discrete-event simulation kernel plus the paper's
//! **periodic flapping** perturbation model (Section 3):
//!
//! > "A perturbed node periodically flaps between being offline and being
//! > idle (online). At the beginning of each idle period, every node comes
//! > back online ... At the beginning of the offline period, however, each
//! > node decides whether to go offline or to stay online based on the
//! > flapping probability. Each node randomly picks its very first
//! > beginning of the flapping period."
//!
//! The kernel ([`Network`]) delivers protocol messages with latencies from
//! a [`LatencyModel`] (constant, uniform, or shortest paths over the
//! GT-ITM-style transit-stub hierarchy) and drops any message whose
//! receiver is offline at arrival time, exactly as an unresponsive
//! (perturbed) host would. Both the Pastry baseline and MPIL's dynamic
//! agents run on this kernel, so their perturbation results are directly
//! comparable.
//!
//! The acked baselines (Chord, MSPastry) keep every request they retry —
//! a routed hop, a probe, a stabilize request — in an [`Outstanding`]
//! table: one resend-then-give-up policy, written and tested once.
//!
//! Every engine sends through [`Cx::send`], which names the send's
//! [`Class`] (lookup, insert, reply, maintenance, ack); [`Sim`] keeps
//! the one tally of them ([`Counters`]) that every message column of
//! the figures reads, so no engine counts its own traffic.
//!
//! Determinism: every run is a pure function of its seeds. Same-time
//! events fire in insertion order, and the flapping coin for (node,
//! period) is a hash, so availability can be queried at any time in O(1)
//! without materializing a schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod availability;
mod engine;
mod latency;
mod net;
mod outcome;
mod outstanding;
mod pool;
mod rng;
mod time;
mod wheel;

pub use availability::{AlwaysOn, Availability, Flapping, FlappingConfig, TraceChurn};
pub use engine::{Class, Counters, Cx, Note, Protocol, Sim};
pub use latency::{ConstantLatency, LatencyModel, TransitStubLatency, UniformLatency};
pub use net::{Event, NetStats, Network};
pub use outcome::LookupOutcome;
pub use outstanding::{Expiry, Outstanding, Request};
pub use pool::PayloadPool;
pub use time::{SimDuration, SimTime};
