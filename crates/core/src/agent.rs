//! Event-driven MPIL over the [`mpil_sim`] kernel.
//!
//! This is the engine behind the paper's Section 6.2 experiments: MPIL
//! routing over an arbitrary (possibly Pastry-derived) neighbor graph,
//! with real message latencies and perturbed (flapping) nodes. Messages
//! sent to offline nodes are lost — MPIL never retransmits; its
//! robustness comes entirely from redundant flows and replicas.
//!
//! [`Mpil`] is the protocol — one [`Agent`] per node (replica store and
//! duplicate memory around the shared routing step), the neighbour
//! lists as the one [`Adjacency`] array the overlay was built in, and
//! heartbeat registries when heartbeats run; [`DynamicNetwork`] is that
//! protocol inside the one simulation shell, [`mpil_sim::Sim`].

use mpil_id::Id;
use mpil_overlay::{Adjacency, NodeIdx};
use mpil_sim::{Class, Event, Note, Protocol, Sim, SimDuration, SimTime};

use crate::config::MpilConfig;
use crate::deletion::ReplicaRegistry;
use crate::message::{Message, MessageId, MessageKind};
use crate::node::Agent;
use crate::step::Verdict;

/// Configuration of a [`DynamicNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynamicConfig {
    /// The MPIL algorithm parameters.
    pub mpil: MpilConfig,
    /// Heartbeat period for the deletion protocol; `None` disables
    /// heartbeats (the perturbation experiments run without them) and
    /// the owners' registries with them.
    pub heartbeat_period: Option<SimDuration>,
}

/// Outcome of a lookup issued through [`Sim::issue_lookup`].
///
/// The shared engine-agnostic enum ([`mpil_sim::LookupOutcome`]) under
/// its historical MPIL name.
pub type LookupStatus = mpil_sim::LookupOutcome;

/// What MPIL agents send each other (public only as [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Wire {
    Forward(Message),
    Reply { msg_id: MessageId, hops: u32 },
    Heartbeat { object: Id, holder: NodeIdx },
    Delete { object: Id },
}

/// What an MPIL agent's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    Heartbeat { object: Id },
}

type Cx<'a> = mpil_sim::Cx<'a, Mpil>;

/// MPIL agents on every node of a (frozen) neighbor graph: the
/// protocol a [`DynamicNetwork`] runs.
///
/// Each part of a node's state takes memory in proportion to what it
/// holds. The neighbour lists are one [`Adjacency`] (CSR) array, taken
/// by move from the generator that filled it
/// ([`Topology::into_parts`](mpil_overlay::Topology::into_parts)) or
/// from the lists of a frozen DHT: the whole graph is two allocations,
/// never copied. Agents start empty and allocate on their first replica
/// or message. The owners' heartbeat registries exist only when
/// heartbeats run ([`DynamicConfig::heartbeat_period`] is `Some`);
/// without them `registries` is empty and [`Mpil::delete`] removes the
/// owner's own copy alone.
pub struct Mpil {
    ids: Vec<Id>,
    neighbors: Adjacency,
    config: DynamicConfig,
    agents: Vec<Agent>,
    /// One sequence for inserts and lookups: a lookup's ledger id is
    /// its message id.
    next_msg_id: u64,
    /// One per node with heartbeats on, none with them off.
    registries: Vec<ReplicaRegistry>,
}

/// MPIL agents on every node of a (frozen) neighbor graph, driven by the
/// discrete-event kernel.
///
/// The neighbor graph is arbitrary: hand [`Sim::new`] explicit
/// `(ids, neighbor lists)` — e.g. the union of a Pastry node's leaf set
/// and routing table (`Adjacency::from(lists)`), which is how the paper
/// runs "MPIL over the overlay of MSPastry ... without any of the
/// overlay maintenance techniques" — or those of a
/// [`Topology`](mpil_overlay::Topology)
/// ([`into_parts`](mpil_overlay::Topology::into_parts)).
pub type DynamicNetwork = Sim<Mpil>;

impl Mpil {
    /// Owner-driven deletion (Section 4.4): `owner` sends explicit delete
    /// messages to every replica holder it knows of from heartbeats —
    /// falling back to its own directly-stored copy. With heartbeats
    /// off it knows of none and sends nothing. Reach it through
    /// [`Sim::with`].
    pub fn delete(&mut self, cx: &mut Cx<'_>, owner: NodeIdx, object: Id) {
        if let Some(registry) = self.registries.get_mut(owner.index()) {
            for holder in registry.forget(object) {
                cx.send(owner, holder, Class::Maintenance, Wire::Delete { object });
            }
        }
        self.agents[owner.index()].delete(object);
    }

    fn fresh_message(&mut self, kind: MessageKind, object: Id, origin: NodeIdx) -> Message {
        let msg_id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        Message::initial(
            msg_id,
            kind,
            object,
            origin,
            self.config.mpil.max_flows,
            self.config.mpil.num_replicas,
        )
    }

    fn handle_heartbeat_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, object: Id) {
        let Some(period) = self.config.heartbeat_period else {
            return;
        };
        let Some(owner) = self.agents[node.index()].replica(object) else {
            return; // replica deleted; stop the heartbeat chain
        };
        // A perturbed node cannot send; it resumes on its next timer.
        if cx.is_online(node) {
            cx.send(
                node,
                owner,
                Class::Maintenance,
                Wire::Heartbeat {
                    object,
                    holder: node,
                },
            );
        }
        cx.schedule(node, period, Timer::Heartbeat { object });
    }

    /// One message copy at `node`: where this world sends what
    /// [`Agent::receive`] decided.
    fn handle_forward(&mut self, cx: &mut Cx<'_>, node: NodeIdx, msg: Message) {
        let Message {
            msg_id,
            kind,
            object,
            origin,
            hops,
            ..
        } = msg;
        let neighbors = self.neighbors.neighbors(node);
        let receipt = self.agents[node.index()].receive(
            &self.config.mpil,
            node,
            neighbors,
            &self.ids,
            msg,
            cx.rng(),
        );
        if receipt.duplicate {
            cx.note(Note::DuplicateSeen);
        }
        match receipt.verdict {
            None => cx.note(Note::DuplicateSuppressed),
            // A lookup stops at any replica holder, which replies
            // directly.
            Some(Verdict::Replied) => {
                cx.send(node, origin, Class::Reply, Wire::Reply { msg_id, hops });
            }
            Some(Verdict::Routed { copies, .. }) => {
                if let (true, Some(period)) = (receipt.newly_stored, self.config.heartbeat_period) {
                    cx.schedule(node, period, Timer::Heartbeat { object });
                }
                let class = match kind {
                    MessageKind::Insert => Class::Insert,
                    MessageKind::Lookup => Class::Lookup,
                };
                for (target, copy) in copies {
                    cx.send(node, target, class, Wire::Forward(copy));
                }
            }
        }
    }
}

impl Protocol for Mpil {
    type Msg = Wire;
    type Timer = Timer;
    /// `(ids, neighbor lists)`: the global ID table and each node's
    /// frozen neighbor list, taken by move.
    type Parts = (Vec<Id>, Adjacency);
    type Config = DynamicConfig;

    /// # Panics
    ///
    /// Panics if `ids` and `neighbors` disagree in length, any neighbor
    /// index is out of range, or the MPIL configuration is invalid.
    fn build((ids, neighbors): Self::Parts, config: DynamicConfig) -> Self {
        config.mpil.validate().expect("invalid MPIL configuration");
        assert_eq!(ids.len(), neighbors.len(), "ids/neighbors length mismatch");
        let n = ids.len();
        for &nbr in neighbors.iter().flatten() {
            assert!(nbr.index() < n, "neighbor {nbr} out of range");
        }
        let registries = if config.heartbeat_period.is_some() {
            vec![ReplicaRegistry::new(); n]
        } else {
            Vec::new()
        };
        Mpil {
            agents: vec![Agent::default(); n],
            registries,
            ids,
            neighbors,
            config,
            next_msg_id: 0,
        }
    }

    fn name(&self) -> &'static str {
        "MPIL"
    }

    fn nodes(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn on_event(&mut self, cx: &mut Cx<'_>, event: Event<Wire, Timer>) {
        match event {
            Event::Message { to, msg, .. } => match msg {
                Wire::Forward(m) => self.handle_forward(cx, to, m),
                Wire::Reply { msg_id, hops } => cx.complete_lookup(msg_id.0, hops),
                Wire::Heartbeat { object, holder } => {
                    self.registries[to.index()].heartbeat(object, holder);
                }
                Wire::Delete { object } => self.agents[to.index()].delete(object),
            },
            Event::Timer { node, timer } => match timer {
                Timer::Heartbeat { object } => self.handle_heartbeat_timer(cx, node, object),
            },
        }
    }

    /// Starts an insertion of `object` (owned by `origin`).
    fn insert(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id) {
        let msg = self.fresh_message(MessageKind::Insert, object, origin);
        self.handle_forward(cx, origin, msg);
    }

    fn lookup(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id, deadline: SimTime) -> u64 {
        let msg = self.fresh_message(MessageKind::Lookup, object, origin);
        let lookup = msg.msg_id.0;
        cx.open_lookup(lookup, deadline);
        self.handle_forward(cx, origin, msg);
        lookup
    }

    fn holds(&self, node: NodeIdx, object: Id) -> bool {
        self.agents[node.index()].replica(object).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil_overlay::generators;
    use mpil_sim::{AlwaysOn, ConstantLatency, Flapping, FlappingConfig, LatencyModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn latency_10ms() -> Box<dyn LatencyModel> {
        Box::new(ConstantLatency(SimDuration::from_millis(10)))
    }

    fn build_static(n: usize, d: usize, seed: u64) -> DynamicNetwork {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = generators::random_regular(n, d, &mut rng).unwrap();
        DynamicNetwork::new(
            topo.into_parts(),
            DynamicConfig::default(),
            Box::new(AlwaysOn),
            latency_10ms(),
            seed,
        )
    }

    #[test]
    fn insert_then_lookup_succeeds_on_a_static_overlay() {
        let mut net = build_static(100, 8, 1);
        let origin = NodeIdx::new(0);
        let object = Id::from_low_u64(0xabcd);
        net.insert(origin, object);
        net.run_to_quiescence();
        assert!(!net.replica_holders(object).is_empty());

        let deadline = net.now() + SimDuration::from_secs(60);
        let lk = net.issue_lookup(NodeIdx::new(50), object, deadline);
        net.run_to_quiescence();
        match net.lookup_outcome(lk) {
            LookupStatus::Succeeded { hops, latency } => {
                assert!(hops >= 1);
                assert!(!latency.is_zero());
            }
            other => panic!("lookup should succeed, got {other:?}"),
        }
    }

    #[test]
    fn lookup_for_absent_object_fails() {
        let mut net = build_static(50, 6, 2);
        let deadline = net.now() + SimDuration::from_secs(10);
        let lk = net.issue_lookup(NodeIdx::new(3), Id::from_low_u64(1), deadline);
        net.run_until(deadline);
        assert_eq!(net.lookup_outcome(lk), LookupStatus::Failed);
    }

    #[test]
    fn replies_after_deadline_do_not_count() {
        // Latency 10ms per hop, deadline shorter than one hop.
        let mut net = build_static(50, 6, 3);
        let object = Id::from_low_u64(2);
        net.insert(NodeIdx::new(0), object);
        net.run_to_quiescence();
        let deadline = net.now() + SimDuration::from_millis(1);
        let lk = net.issue_lookup(NodeIdx::new(25), object, deadline);
        net.run_to_quiescence();
        assert_eq!(net.lookup_outcome(lk), LookupStatus::Failed);
    }

    #[test]
    fn flapping_probability_one_long_offline_blocks_most_lookups() {
        // Seed chosen so the drawn flapping phases leave enough holders
        // dark at lookup time for failures to occur; MPIL's redundancy
        // is strong enough that many seeds ride out p=1 untouched.
        let mut rng = SmallRng::seed_from_u64(0);
        let topo = generators::random_regular(100, 8, &mut rng).unwrap();
        let mut net = DynamicNetwork::new(
            topo.into_parts(),
            DynamicConfig::default(),
            Box::new(AlwaysOn),
            latency_10ms(),
            4,
        );
        let origin = NodeIdx::new(0);
        let objects: Vec<Id> = (0..20).map(|k| Id::from_low_u64(k + 10)).collect();
        for &o in &objects {
            net.insert(origin, o);
        }
        net.run_to_quiescence();

        // Now perturb everything except the origin: long offline periods,
        // probability 1 — nearly every node offline half the time.
        let flap_cfg = FlappingConfig::idle_offline_secs(300, 300, 1.0).starting_at(net.now());
        let mut flapping = Flapping::new(flap_cfg, 100, 99, &mut rng);
        flapping.exempt(origin);
        net.set_availability(Box::new(flapping));

        let mut ok = 0;
        let mut failed = 0;
        for (i, &o) in objects.iter().enumerate() {
            let t = net.now() + SimDuration::from_secs(600);
            net.run_until(t);
            let deadline = net.now() + SimDuration::from_secs(60);
            let lk = net.issue_lookup(origin, o, deadline);
            net.run_until(deadline);
            match net.lookup_outcome(lk) {
                LookupStatus::Succeeded { .. } => ok += 1,
                LookupStatus::Failed => failed += 1,
                LookupStatus::Pending => panic!("deadline passed {i}"),
            }
        }
        // Perturbation hurts but multi-path redundancy keeps some
        // lookups alive; both outcomes must occur at p=1.0 with 50%
        // average downtime.
        assert!(failed > 0, "p=1 300:300 should fail some lookups");
        assert!(ok + failed == 20);
    }

    #[test]
    fn duplicate_suppression_counters_track() {
        let mut net = build_static(80, 10, 5);
        let object = Id::from_low_u64(77);
        net.insert(NodeIdx::new(0), object);
        net.run_to_quiescence();
        let s = net.counters();
        assert_eq!(s.duplicates_seen, s.duplicates_suppressed, "DS on");
    }

    #[test]
    fn without_ds_duplicates_are_reprocessed() {
        let mut rng = SmallRng::seed_from_u64(6);
        let topo = generators::random_regular(80, 10, &mut rng).unwrap();
        let config = DynamicConfig {
            mpil: MpilConfig::default().with_duplicate_suppression(false),
            heartbeat_period: None,
        };
        let mut net = DynamicNetwork::new(
            topo.into_parts(),
            config,
            Box::new(AlwaysOn),
            latency_10ms(),
            6,
        );
        let object = Id::from_low_u64(88);
        net.insert(NodeIdx::new(0), object);
        net.run_to_quiescence();
        let s = net.counters();
        assert_eq!(s.duplicates_suppressed, 0);
    }

    #[test]
    fn heartbeats_register_holders_and_delete_works() {
        let mut rng = SmallRng::seed_from_u64(7);
        let topo = generators::random_regular(60, 8, &mut rng).unwrap();
        let config = DynamicConfig {
            mpil: MpilConfig::default(),
            heartbeat_period: Some(SimDuration::from_secs(5)),
        };
        let mut net = DynamicNetwork::new(
            topo.into_parts(),
            config,
            Box::new(AlwaysOn),
            latency_10ms(),
            7,
        );
        let owner = NodeIdx::new(0);
        let object = Id::from_low_u64(99);
        net.insert(owner, object);
        net.run_until(net.now() + SimDuration::from_secs(12));
        let holders = net.replica_holders(object);
        assert!(!holders.is_empty());
        // Every holder stored within the first second and has beaten at
        // 5 s and at 10 s since: the owner's only maintenance traffic.
        let beats = net.counters().maintenance_messages;
        assert_eq!(beats, 2 * holders.len() as u64);

        // One delete per holder the heartbeats named: all of them.
        net.with(|mpil, cx| mpil.delete(cx, owner, object));
        let deletes = net.counters().maintenance_messages - beats;
        assert_eq!(deletes, holders.len() as u64);
        net.run_until(net.now() + SimDuration::from_secs(12));
        // All heartbeat-known holders deleted their replicas. (Holders the
        // owner never heard from — none here, two heartbeat rounds ran —
        // would survive.)
        assert!(
            net.replica_holders(object).is_empty(),
            "replicas remain: {:?}",
            net.replica_holders(object)
        );
    }

    #[test]
    fn without_heartbeats_delete_removes_the_owners_copy_and_sends_nothing() {
        // build_static runs without heartbeats.
        let mut net = build_static(60, 8, 9);
        let owner = NodeIdx::new(0);
        // The first object the owner keeps a replica of itself.
        let object = (1..)
            .map(Id::from_low_u64)
            .find(|&object| {
                net.insert(owner, object);
                net.run_to_quiescence();
                net.replica_holders(object).contains(&owner)
            })
            .expect("the owner is a local maximum for some object");
        let holders = net.replica_holders(object);
        let before = net.counters();
        net.with(|mpil, cx| {
            assert!(
                mpil.registries.is_empty(),
                "no registries without heartbeats"
            );
            mpil.delete(cx, owner, object);
        });
        net.run_to_quiescence();
        assert_eq!(
            net.counters(),
            before,
            "a delete without heartbeats sends nothing"
        );
        let survivors: Vec<NodeIdx> = holders.into_iter().filter(|&n| n != owner).collect();
        assert_eq!(net.replica_holders(object), survivors);
    }

    #[test]
    fn stats_attribute_messages_to_operations() {
        let mut net = build_static(60, 8, 8);
        let object = Id::from_low_u64(5);
        net.insert(NodeIdx::new(0), object);
        net.run_to_quiescence();
        let after_insert = net.counters();
        assert!(after_insert.insert_messages > 0);
        assert_eq!(after_insert.lookup_messages, 0);

        let deadline = net.now() + SimDuration::from_secs(60);
        net.issue_lookup(NodeIdx::new(30), object, deadline);
        net.run_to_quiescence();
        let after_lookup = net.counters();
        assert!(after_lookup.lookup_messages > 0);
        assert_eq!(after_lookup.insert_messages, after_insert.insert_messages);
        assert!(after_lookup.reply_messages >= 1);
    }
}
