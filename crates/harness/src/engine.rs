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

    /// Every send so far by class and every note by kind (failure
    /// declarations, hop-limit drops, misdeliveries, duplicates), on
    /// any engine; `total_messages` is the kernel's send count.
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
    use crate::EngineSpec;
    use mpil_gossip::{build_converged_membership, Epidemic, EpidemicConfig};
    use mpil_sim::{AlwaysOn, ConstantLatency, Flapping, FlappingConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_handles_are_plain_values() {
        assert_eq!(LookupHandle(7), LookupHandle(7));
        assert_ne!(LookupHandle(7), LookupHandle(8));
    }

    // The `gossip` system — HyParView searched by random walks or by
    // expanding rings — at the two spec points every driver runs it at.
    // `mpil_gossip`'s own tests cover the Plumtree and FOAF lookups on
    // the same engine. The engine stays a concrete `Sim<Epidemic>` so a
    // test can also read its views.

    const GOSSIP: [EngineSpec; 2] = [EngineSpec::GOSSIP_WALK, EngineSpec::GOSSIP_RING];

    /// Builds a `gossip` spec point converged, as `Scenario::build` does.
    fn gossip(spec: EngineSpec, nodes: usize, seed: u64) -> Sim<Epidemic> {
        let EngineSpec::Epidemic {
            active,
            passive,
            strategy,
        } = spec
        else {
            panic!("{spec} is not an epidemic point");
        };
        let config = EpidemicConfig::default()
            .with_views(active, passive)
            .with_strategy(strategy);
        let mut rng = SmallRng::seed_from_u64(seed);
        let members = build_converged_membership(nodes, active, passive, &mut rng);
        Sim::new(
            members,
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(20))),
            seed,
        )
    }

    /// Inserts `count` random objects from node 0 and lets the insert
    /// walks settle.
    fn insert_objects(sim: &mut Sim<Epidemic>, count: usize, seed: u64) -> Vec<Id> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects: Vec<Id> = (0..count).map(|_| Id::random(&mut rng)).collect();
        for &object in &objects {
            sim.insert(NodeIdx::new(0), object);
        }
        sim.run_to_quiescence();
        objects
    }

    /// Looks every object up from `origin` on the quiet network; returns
    /// how many succeeded.
    fn quiet_lookups(sim: &mut Sim<Epidemic>, origin: NodeIdx, objects: &[Id]) -> usize {
        let deadline = sim.now() + SimDuration::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&object| sim.issue_lookup(origin, object, deadline))
            .collect();
        sim.run_to_quiescence();
        handles
            .iter()
            .filter(|&&h| sim.lookup_outcome(h).is_success())
            .count()
    }

    #[test]
    fn insert_deposits_remote_replicas() {
        let mut sim = gossip(EngineSpec::GOSSIP_WALK, 100, 1);
        for object in insert_objects(&mut sim, 5, 9) {
            let holders = sim.replica_holders(object);
            assert!(
                holders.len() >= 3,
                "three insert walks deposit at least one replica each, got {}",
                holders.len()
            );
            assert!(
                !holders.contains(&NodeIdx::new(0)),
                "origin stores remotely"
            );
        }
        assert!(sim.counters().insert_messages > 0);
        assert_eq!(sim.counters().lookup_messages, 0);
    }

    #[test]
    fn quiet_network_walk_lookups_succeed() {
        let mut sim = gossip(EngineSpec::GOSSIP_WALK, 100, 2);
        let objects = insert_objects(&mut sim, 20, 10);
        let ok = quiet_lookups(&mut sim, NodeIdx::new(50), &objects);
        assert!(ok >= 18, "only {ok}/20 walk lookups succeeded");
        assert!(sim.counters().lookup_messages > 0);
        assert!(sim.counters().reply_messages > 0);
    }

    #[test]
    fn quiet_network_ring_lookups_succeed() {
        let mut sim = gossip(EngineSpec::GOSSIP_RING, 100, 3);
        let objects = insert_objects(&mut sim, 10, 11);
        let ok = quiet_lookups(&mut sim, NodeIdx::new(50), &objects);
        assert_eq!(ok, 10, "ring lookups failed on a quiet network");
    }

    #[test]
    fn ring_rounds_stop_spending_after_a_hit() {
        let mut sim = gossip(EngineSpec::GOSSIP_RING, 60, 4);
        let object = Id::from_low_u64(0xfeed);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        let ok = quiet_lookups(&mut sim, NodeIdx::new(30), &[object]);
        assert_eq!(ok, 1);
        // A full TTL-8 flood over 60 nodes of active degree 8 would send
        // far more than this; the early rounds finding the object must
        // keep the spend bounded.
        assert!(
            sim.counters().lookup_messages < 60 * 8 * 4,
            "ring kept flooding after the reply: {} msgs",
            sim.counters().lookup_messages
        );
    }

    #[test]
    fn absent_object_fails_without_wedging() {
        for spec in GOSSIP {
            let mut sim = gossip(spec, 50, 5);
            let h = sim.issue_lookup(
                NodeIdx::new(1),
                Id::from_low_u64(0xdead),
                sim.now() + SimDuration::from_secs(60),
            );
            sim.run_to_quiescence();
            assert!(!sim.lookup_outcome(h).is_success(), "{spec}");
        }
    }

    #[test]
    fn maintenance_shuffles_run_and_views_stay_legal() {
        for spec in GOSSIP {
            let mut sim = gossip(spec, 60, 7);
            sim.start_maintenance();
            sim.run_until(SimTime::from_secs(120));
            assert!(sim.counters().maintenance_messages > 0, "{spec}");
            // Static network: nobody should have been declared dead.
            assert_eq!(sim.counters().failure_declarations, 0, "{spec}");
            sim.assert_invariants();
        }
    }

    #[test]
    fn suspicion_evicts_churned_peers() {
        let mut sim = gossip(EngineSpec::GOSSIP_WALK, 40, 8);
        sim.start_maintenance();
        // Everyone but node 0 goes offline essentially forever.
        let mut rng = SmallRng::seed_from_u64(99);
        let cfg = FlappingConfig {
            idle: SimDuration::from_micros(1),
            offline: SimDuration::from_secs(1_000_000),
            probability: 1.0,
            start: SimTime::ZERO,
        };
        let mut flap = Flapping::new(cfg, 40, 77, &mut rng);
        flap.exempt(NodeIdx::new(0));
        sim.set_availability(Box::new(flap));
        sim.run_until(SimTime::from_secs(300));
        assert!(
            sim.counters().failure_declarations > 0,
            "dead peers must age out of views"
        );
        sim.membership(NodeIdx::new(0)).assert_invariants();
    }

    #[test]
    fn join_rebuilds_a_view_through_the_bootstrap() {
        let mut sim = gossip(EngineSpec::GOSSIP_WALK, 30, 12);
        let (joiner, bootstrap) = (NodeIdx::new(5), NodeIdx::new(0));
        assert!(sim.join(joiner, bootstrap));
        assert_eq!(sim.membership(joiner).active.peers(), vec![bootstrap]);
        assert!(sim.membership(joiner).passive.is_empty());
        sim.run_to_quiescence();
        // The join walks seated the joiner beyond its bootstrap link.
        let m = sim.membership(joiner);
        assert!(m.active.len() + m.passive.len() > 1);
        m.assert_invariants();
        // Self-join is a no-op.
        let before = sim.membership(joiner).active.peers();
        sim.join(joiner, joiner);
        assert_eq!(sim.membership(joiner).active.peers(), before);
    }

    #[test]
    fn fixed_seed_runs_reproduce_exactly() {
        let run = |spec: EngineSpec, seed: u64| {
            let mut sim = gossip(spec, 70, seed);
            let objects = insert_objects(&mut sim, 8, seed ^ 1);
            sim.start_maintenance();
            let mut flap_rng = SmallRng::seed_from_u64(seed ^ 2);
            let mut flap = Flapping::new(
                FlappingConfig::idle_offline_secs(30, 30, 0.6).starting_at(sim.now()),
                70,
                seed ^ 3,
                &mut flap_rng,
            );
            flap.exempt(NodeIdx::new(0));
            sim.set_availability(Box::new(flap));
            let mut handles = Vec::new();
            for &object in &objects {
                sim.run_until(sim.now() + SimDuration::from_secs(60));
                let deadline = sim.now() + SimDuration::from_secs(60);
                handles.push(sim.issue_lookup(NodeIdx::new(0), object, deadline));
            }
            sim.run_until(sim.now() + SimDuration::from_secs(90));
            let outcomes: Vec<LookupOutcome> =
                handles.iter().map(|&h| sim.lookup_outcome(h)).collect();
            (outcomes, sim.counters(), sim.net_stats())
        };
        for spec in GOSSIP {
            assert_eq!(run(spec, 21), run(spec, 21), "{spec}");
        }
    }
}
