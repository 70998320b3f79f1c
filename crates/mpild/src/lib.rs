//! # mpild
//!
//! The MPIL **service**: what a deployment actually runs, as opposed to
//! the simulators that reproduce the paper's figures. Two binaries over
//! one library:
//!
//! * **`mpild`** — a long-running daemon hosting a [`LiveCluster`]
//!   (its nodes dealt over one shard thread per core, channel or
//!   loopback-UDP data plane)
//!   behind a datagram control plane ([`proto`]): `announce`, `lookup`,
//!   and an admin plane (`join`/`perturb`/`heal`/`stats`/`drain`).
//!   Requests are pipelined through a per-request timeout/retry tracker
//!   (a lookup slower than lookups are measured to be is hedged through
//!   another entry node, an announce retried from its own);
//!   the daemon is event-driven (one inbox, blocking receives, no poll
//!   interval) and paces what it submits to the cluster (admission
//!   control: a window of the flows in the cluster, each attempt's held
//!   until it is answered or has been in for a first attempt's
//!   patience, a budget of estimated work per second, a bounded
//!   backlog, and `UNAVAILABLE` beyond it);
//!   shutdown drains in-flight work before the shard threads exit.
//! * **`mpil-load`** — a load generator driving the daemon with the
//!   paper's insert-then-lookup workload at a configurable offered rate
//!   (open loop with a bounded in-flight window, or closed loop),
//!   measuring per-request latency percentiles and optionally injecting
//!   flapping churn through the admin plane mid-run.
//!
//! Both speak the same versioned control frames, so `mpil-load` works
//! identically against an embedded daemon thread (the CI smoke), a
//! separate `mpild` process on loopback UDP, or anything else that
//! implements the protocol.
//!
//! Determinism contract: `mpild` is service code, so it *may* read the
//! wall clock — but only through the sanctioned
//! [`mpil_workload::WallClock`] touchpoint, and all pacing decisions are
//! made by the clock-free [`mpil_workload::Pacer`] fed with elapsed
//! durations, as all of the daemon's are by the clock-free
//! [`daemon::Core`] under the one loop that reads the clock for it.
//! Randomness is always seeded (`SmallRng`), never entropy.
//!
//! [`LiveCluster`]: mpil_net::LiveCluster

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // P001

mod args;
pub mod daemon;
pub mod front;
mod load;
pub mod proto;
