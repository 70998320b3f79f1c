//! The [`DiscoveryEngine`] trait: one lifecycle for every substrate.

use mpil_id::Id;
use mpil_overlay::NodeIdx;
use mpil_sim::{Availability, LookupOutcome, NetStats, Protocol, Sim, SimDuration, SimTime};

pub use mpil_sim::Counters;

/// An opaque handle to a lookup in flight, engine-independent.
///
/// Engines hand these out from [`DiscoveryEngine::issue_lookup`] and
/// resolve them in [`DiscoveryEngine::lookup_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LookupHandle(pub u64);

/// The lifecycle shared by every discovery engine.
///
/// The paper's experiments drive every system the same way; this trait
/// is that drive order as an object-safe API, so a [`crate::Scenario`]
/// can hand back "some engine". It is implemented exactly once, for
/// [`Sim<P>`] of any [`Protocol`]: the lifecycle itself lives in
/// `mpil_sim`, and a new substrate gets this trait by implementing
/// `Protocol`. The drive order:
///
/// 1. **build** — construct the engine converged
///    ([`crate::Scenario::build`] does this per substrate);
/// 2. **insert** objects on the quiet network and settle with
///    [`DiscoveryEngine::run_to_quiescence`];
/// 3. optionally **start maintenance** and swap in a perturbed
///    availability model;
/// 4. **churn_tick / advance** the clock one flapping period at a time,
///    issuing a **lookup** per period;
/// 5. read outcomes and **stats** ([`Counters`] + [`NetStats`]).
///
/// Engines without a notion of explicit joins (MPIL over a frozen
/// graph, Kademlia's converged tables) answer [`join`] with `false`.
///
/// [`join`]: DiscoveryEngine::join
pub trait DiscoveryEngine {
    /// Short human-readable engine name ("MPIL", "Chord", ...).
    fn name(&self) -> &'static str;

    /// Number of nodes.
    fn len(&self) -> usize;

    /// Returns `true` if the engine has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Starts an insertion of `object` from `origin`; propagation
    /// happens as the caller runs the clock.
    fn insert(&mut self, origin: NodeIdx, object: Id);

    /// Issues a lookup of `object` from `origin`, succeeding only if a
    /// positive reply arrives by `deadline`.
    fn issue_lookup(&mut self, origin: NodeIdx, object: Id, deadline: SimTime) -> LookupHandle;

    /// Resolves a lookup handle. A lookup still pending at its deadline
    /// reports [`LookupOutcome::Failed`].
    fn lookup_outcome(&self, lookup: LookupHandle) -> LookupOutcome;

    /// Lets `joiner` (re-)join the overlay through `bootstrap`.
    ///
    /// Returns `false` when the engine has no join protocol (the frozen
    /// MPIL graphs, Kademlia's converged tables).
    fn join(&mut self, joiner: NodeIdx, bootstrap: NodeIdx) -> bool;

    /// Turns on periodic overlay maintenance. A no-op for engines that
    /// are maintenance-free by design (MPIL).
    fn start_maintenance(&mut self);

    /// Replaces the availability model (static stage → perturbed stage).
    fn set_availability(&mut self, availability: Box<dyn Availability>);

    /// Sets the independent per-message link-loss probability.
    fn set_loss_probability(&mut self, p: f64);

    /// Nodes currently storing a replica/pointer for `object`.
    fn replica_holders(&self, object: Id) -> Vec<NodeIdx>;

    /// Number of replica holders for `object`, without materialising
    /// the holder list.
    fn replica_count(&self, object: Id) -> usize;

    /// Runs the event loop until `deadline` (inclusive); the clock ends
    /// at `deadline` even if the queue drains early.
    fn run_until(&mut self, deadline: SimTime);

    /// Runs until no events remain (only sensible without periodic
    /// maintenance timers).
    fn run_to_quiescence(&mut self);

    /// Advances the clock by `by` from now.
    fn advance(&mut self, by: SimDuration) {
        let deadline = self.now() + by;
        self.run_until(deadline);
    }

    /// Advances through one full churn (flapping) period, letting the
    /// availability model flip nodes and the engine react.
    fn churn_tick(&mut self, period: SimDuration) {
        self.advance(period);
    }

    /// Protocol counters attributed to operations.
    fn counters(&self) -> Counters;

    /// Kernel counters (raw sends, deliveries, offline/loss drops).
    fn net_stats(&self) -> NetStats;
}

impl<P: Protocol> DiscoveryEngine for Sim<P> {
    fn name(&self) -> &'static str {
        Sim::name(self)
    }

    fn len(&self) -> usize {
        Sim::len(self)
    }

    fn now(&self) -> SimTime {
        Sim::now(self)
    }

    fn insert(&mut self, origin: NodeIdx, object: Id) {
        Sim::insert(self, origin, object);
    }

    fn issue_lookup(&mut self, origin: NodeIdx, object: Id, deadline: SimTime) -> LookupHandle {
        LookupHandle(Sim::issue_lookup(self, origin, object, deadline))
    }

    fn lookup_outcome(&self, lookup: LookupHandle) -> LookupOutcome {
        Sim::lookup_outcome(self, lookup.0)
    }

    fn join(&mut self, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        Sim::join(self, joiner, bootstrap)
    }

    fn start_maintenance(&mut self) {
        Sim::start_maintenance(self);
    }

    fn set_availability(&mut self, availability: Box<dyn Availability>) {
        Sim::set_availability(self, availability);
    }

    fn set_loss_probability(&mut self, p: f64) {
        Sim::set_loss_probability(self, p);
    }

    fn replica_holders(&self, object: Id) -> Vec<NodeIdx> {
        Sim::replica_holders(self, object)
    }

    fn replica_count(&self, object: Id) -> usize {
        Sim::replica_count(self, object)
    }

    fn run_until(&mut self, deadline: SimTime) {
        Sim::run_until(self, deadline);
    }

    fn run_to_quiescence(&mut self) {
        Sim::run_to_quiescence(self);
    }

    fn counters(&self) -> Counters {
        Sim::counters(self)
    }

    fn net_stats(&self) -> NetStats {
        Sim::net_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_handles_are_plain_values() {
        assert_eq!(LookupHandle(7), LookupHandle(7));
        assert_ne!(LookupHandle(7), LookupHandle(8));
    }
}
