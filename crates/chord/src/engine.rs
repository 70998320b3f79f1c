//! The event-driven Chord simulation.
//!
//! Implements the full protocol of Stoica et al. (SIGCOMM 2001) on the
//! [`mpil_sim`] kernel: greedy finger routing with successor-interval
//! delivery, the stabilize / fix-fingers / check-predecessor maintenance
//! trio, per-hop acks with retransmission, probe-based failure
//! declaration, successor-list failover, a join protocol, and optional
//! DHash-style successor replication.
//!
//! What it shares with the Pastry baseline (`mpil_pastry::PastrySim`):
//! the retry machine — routed hops and probes wait in
//! [`mpil_sim::Outstanding`] tables, resent `PROBE_RETRIES` times one
//! `PROBE_TIMEOUT` apart before the peer is declared failed and an
//! exhausted hop is re-routed — the per-node duplicate filter on routed
//! messages, and the class each send is counted in. So
//! the two can be compared message-for-message under the paper's
//! perturbation model.

use fxhash::FxHashSet;
use mpil_id::{Id, IdSet};
use mpil_overlay::NodeIdx;
use mpil_sim::{Class, Event, Expiry, Note, Outstanding, Protocol, Sim, SimDuration, SimTime};
use rand::Rng;

use crate::config::ChordConfig;
use crate::state::ChordState;

// The maintenance cadence mirrors the paper's MSPastry configuration
// (Section 6.2), so the two baselines spend comparable effort on upkeep.

/// Period of the stabilize protocol (successor-pointer repair), like
/// MSPastry's leaf-set probing.
pub(crate) const STABILIZE_PERIOD: SimDuration = SimDuration::from_secs(30);

/// Period of finger repair, one finger per firing, like MSPastry's
/// routing-table probing.
pub(crate) const FIX_FINGERS_PERIOD: SimDuration = SimDuration::from_secs(90);

/// Period of predecessor liveness checking.
pub(crate) const CHECK_PREDECESSOR_PERIOD: SimDuration = SimDuration::from_secs(30);

/// Probe/ack timeout.
pub(crate) const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Retries before a peer is declared failed.
pub(crate) const PROBE_RETRIES: u32 = 2;

/// Hop limit on routed messages (loop guard; lookups on a converged ring
/// take `O(log N)` hops).
const MAX_HOPS: u32 = 64;

/// Application payload of a routed message.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Store the object pointer at the key's root.
    Insert { object: Id },
    /// Find the object pointer; reply to `origin`.
    Lookup {
        object: Id,
        lookup_id: u64,
        origin: NodeIdx,
    },
    /// Resolve the root of a finger start; reply to `origin`.
    FingerFix { index: u16, origin: NodeIdx },
    /// Find `joiner`'s successor; the root welcomes the joiner.
    JoinFind { joiner: NodeIdx },
}

impl Payload {
    /// The class its routed hops are counted in.
    fn class(self) -> Class {
        match self {
            Payload::Insert { .. } => Class::Insert,
            Payload::Lookup { .. } => Class::Lookup,
            Payload::FingerFix { .. } | Payload::JoinFind { .. } => Class::Maintenance,
        }
    }
}

/// What Chord nodes send each other (public only as [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// A routed message (one per-hop transmission).
    Route {
        key: Id,
        payload: Payload,
        hops: u32,
        uid: u64,
    },
    /// Per-hop acknowledgment of a `Route` transmission.
    RouteAck { uid: u64 },
    /// Liveness probe (check-predecessor and join announcements).
    Probe { token: u64 },
    /// Probe response.
    ProbeReply { token: u64 },
    /// Stabilize request: asks the successor for its predecessor and
    /// successor list.
    StabRequest { token: u64 },
    /// Stabilize reply.
    StabReply {
        token: u64,
        predecessor: Option<NodeIdx>,
        successors: Vec<NodeIdx>,
    },
    /// Chord's `notify`: the sender believes it is the receiver's
    /// predecessor.
    Notify,
    /// Successor replication of an object pointer (DHash-style).
    Replicate { object: Id },
    /// Answer to a routed `FingerFix`.
    FingerReply { index: u16, node: NodeIdx },
    /// The join root's successor-list transfer; ends the join.
    JoinWelcome { successors: Vec<NodeIdx> },
    /// Lookup result sent directly to the origin.
    LookupReply {
        lookup_id: u64,
        found: bool,
        hops: u32,
    },
}

/// What a Chord node's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// Periodic successor-pointer repair.
    Stabilize,
    /// Periodic finger refresh (one random finger per firing).
    FixFingers,
    /// Periodic predecessor liveness check.
    CheckPredecessor,
    /// A probe went unanswered.
    ProbeTimeout { token: u64 },
    /// A stabilize request went unanswered.
    StabTimeout { token: u64 },
    /// A routed transmission went unacknowledged.
    RouteRetry { uid: u64 },
}

/// What a routed hop carries: `(key, payload, hops)`.
type Hop = (Id, Payload, u32);

/// Outcome of one lookup (the shared engine-agnostic enum).
pub use mpil_sim::LookupOutcome;

type Cx<'a> = mpil_sim::Cx<'a, Chord>;

/// The Chord protocol: every node's routing state and pointer store,
/// and the handlers that drive them. Runs inside a [`ChordSim`].
pub struct Chord {
    config: ChordConfig,
    ids: Vec<Id>,
    states: Vec<ChordState>,
    stores: Vec<IdSet>,
    routes: Outstanding<Hop>,
    probes: Outstanding<()>,
    stabs: Outstanding<()>,
    probing_pairs: FxHashSet<(NodeIdx, NodeIdx)>,
    seen_uids: Vec<FxHashSet<u64>>,
    next_lookup: u64,
}

/// The Chord overlay simulation.
///
/// Drive it like the paper's experiments: build a converged ring
/// ([`crate::bootstrap::build_converged_states`]) and hand
/// `(ids, states)` to [`Sim::new`], insert on the static overlay, swap
/// in a flapping availability model, start maintenance, then issue
/// lookups and run the clock.
pub type ChordSim = Sim<Chord>;

impl Chord {
    /// Each node's frozen neighbor list (successors ∪ fingers ∪
    /// predecessor) — the overlay MPIL routes on in the
    /// overlay-independence experiments.
    pub fn neighbor_lists(&self) -> Vec<Vec<NodeIdx>> {
        self.states.iter().map(|s| s.neighbor_list()).collect()
    }

    /// The global ID table.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Read access to a node's routing state (tests, diagnostics).
    pub fn state(&self, node: NodeIdx) -> &ChordState {
        &self.states[node.index()]
    }

    // --- routing ----------------------------------------------------------

    /// One routing decision at `at`: deliver locally if `at` is the root
    /// (or has no better hop), otherwise forward with per-hop reliability.
    fn route_step(&mut self, cx: &mut Cx<'_>, at: NodeIdx, key: Id, payload: Payload, hops: u32) {
        // A lookup can be satisfied by any replica holder on the path.
        if let Payload::Lookup {
            object,
            lookup_id,
            origin,
        } = payload
        {
            if self.stores[at.index()].contains(&object) {
                self.reply_lookup(cx, at, origin, lookup_id, true, hops);
                return;
            }
        }
        if self.states[at.index()].owns(key, &self.ids) {
            self.deliver(cx, at, payload, hops);
            return;
        }
        if hops >= MAX_HOPS {
            cx.note(Note::HopLimitDrop);
            return;
        }
        let Some(next) = self.states[at.index()].next_hop(key, &self.ids) else {
            // No known peers at all: act as root.
            self.deliver(cx, at, payload, hops);
            return;
        };
        self.transmit(cx, at, next, (key, payload, hops + 1));
    }

    /// Sends one hop with per-hop reliability: acked, resent on timeout.
    fn transmit(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, hop: Hop) {
        let uid = self.routes.open(from, to, hop);
        self.send_route(cx, uid, from, to, hop);
    }

    /// Sends one attempt of a routed hop and arms its retry timer.
    fn send_route(&mut self, cx: &mut Cx<'_>, uid: u64, from: NodeIdx, to: NodeIdx, hop: Hop) {
        let (key, payload, hops) = hop;
        let route = Msg::Route {
            key,
            payload,
            hops,
            uid,
        };
        cx.send(from, to, payload.class(), route);
        cx.schedule(from, PROBE_TIMEOUT, Timer::RouteRetry { uid });
    }

    /// The message has reached its root.
    fn deliver(&mut self, cx: &mut Cx<'_>, at: NodeIdx, payload: Payload, hops: u32) {
        match payload {
            Payload::Insert { object } => {
                self.stores[at.index()].insert(object);
                if self.config.replication > 1 {
                    let copies: Vec<NodeIdx> = self.states[at.index()]
                        .successors()
                        .iter()
                        .copied()
                        .take(self.config.replication - 1)
                        .collect();
                    for s in copies {
                        cx.send(at, s, Class::Insert, Msg::Replicate { object });
                    }
                }
            }
            Payload::Lookup {
                object,
                lookup_id,
                origin,
            } => {
                let found = self.stores[at.index()].contains(&object);
                if !found {
                    cx.note(Note::Misdelivery);
                }
                self.reply_lookup(cx, at, origin, lookup_id, found, hops);
            }
            Payload::FingerFix { index, origin } => {
                if origin == at {
                    self.states[at.index()].set_finger(usize::from(index), at);
                } else {
                    let reply = Msg::FingerReply { index, node: at };
                    cx.send(at, origin, Class::Maintenance, reply);
                }
            }
            Payload::JoinFind { joiner } => {
                if joiner == at {
                    return; // degenerate: the joiner routed to itself
                }
                let mut successors = vec![at];
                successors.extend(self.states[at.index()].successors().iter().copied());
                cx.send(
                    at,
                    joiner,
                    Class::Maintenance,
                    Msg::JoinWelcome { successors },
                );
            }
        }
    }

    fn reply_lookup(
        &mut self,
        cx: &mut Cx<'_>,
        at: NodeIdx,
        origin: NodeIdx,
        lookup_id: u64,
        found: bool,
        hops: u32,
    ) {
        if at == origin {
            Self::settle_lookup(cx, lookup_id, found, hops);
        } else {
            cx.send(
                at,
                origin,
                Class::Reply,
                Msg::LookupReply {
                    lookup_id,
                    found,
                    hops,
                },
            );
        }
    }

    /// A lookup's answer reached its origin.
    fn settle_lookup(cx: &mut Cx<'_>, lookup_id: u64, found: bool, hops: u32) {
        if found {
            cx.complete_lookup(lookup_id, hops);
        } else {
            cx.fail_lookup(lookup_id);
        }
    }

    // --- failure handling ---------------------------------------------------

    fn start_probe(&mut self, cx: &mut Cx<'_>, prober: NodeIdx, target: NodeIdx) {
        if prober == target || !self.probing_pairs.insert((prober, target)) {
            return;
        }
        let token = self.probes.open(prober, target, ());
        let probe = Msg::Probe { token };
        self.ask(cx, prober, target, probe, Timer::ProbeTimeout { token });
    }

    /// Sends one attempt of a probe or stabilize request and arms its
    /// timeout (on a resend, the timer that just fired).
    fn ask(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, msg: Msg, timeout: Timer) {
        cx.send(from, to, Class::Maintenance, msg);
        cx.schedule(from, PROBE_TIMEOUT, timeout);
    }

    fn declare_failed(&mut self, cx: &mut Cx<'_>, at: NodeIdx, dead: NodeIdx) {
        if self.states[at.index()].remove_node(dead) {
            cx.note(Note::FailureDeclared);
        }
    }

    fn on_message(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, msg: Msg) {
        // Any message from a peer is evidence it is alive: re-admit it to
        // the successor list if it improves it (passive re-integration).
        if from != to {
            self.states[to.index()].offer_successor(from, &self.ids);
        }
        match msg {
            Msg::Route {
                key,
                payload,
                hops,
                uid,
            } => {
                cx.send(to, from, Class::Ack, Msg::RouteAck { uid });
                if !self.seen_uids[to.index()].insert(uid) {
                    return;
                }
                self.route_step(cx, to, key, payload, hops);
            }
            Msg::RouteAck { uid } => {
                self.routes.settle(uid);
            }
            Msg::Probe { token } => {
                cx.send(to, from, Class::Maintenance, Msg::ProbeReply { token });
            }
            Msg::ProbeReply { token } => {
                if let Some(p) = self.probes.settle(token) {
                    self.probing_pairs.remove(&(p.from, p.to));
                }
            }
            Msg::StabRequest { token } => {
                let st = &self.states[to.index()];
                let reply = Msg::StabReply {
                    token,
                    predecessor: st.predecessor(),
                    successors: st.successors().to_vec(),
                };
                cx.send(to, from, Class::Maintenance, reply);
            }
            Msg::StabReply {
                token,
                predecessor,
                successors,
            } => {
                if let Some(p) = self.stabs.settle(token) {
                    self.finish_stabilize(cx, p.from, p.to, predecessor, &successors);
                }
            }
            Msg::Notify => {
                let fid = self.ids[from.index()];
                self.states[to.index()].offer_predecessor(from, fid, &self.ids);
            }
            Msg::Replicate { object } => {
                self.stores[to.index()].insert(object);
            }
            Msg::FingerReply { index, node } => {
                self.states[to.index()].set_finger(usize::from(index), node);
            }
            Msg::JoinWelcome { successors } => {
                if let Some((&head, rest)) = successors.split_first() {
                    self.states[to.index()].adopt_successor_list(head, rest, &self.ids);
                    cx.send(to, head, Class::Maintenance, Msg::Notify);
                }
            }
            Msg::LookupReply {
                lookup_id,
                found,
                hops,
            } => {
                Self::settle_lookup(cx, lookup_id, found, hops);
            }
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, timer: Timer) {
        match timer {
            Timer::Stabilize => {
                if cx.is_online(node) {
                    if let Some(succ) = self.states[node.index()].successor() {
                        let token = self.stabs.open(node, succ, ());
                        let request = Msg::StabRequest { token };
                        self.ask(cx, node, succ, request, Timer::StabTimeout { token });
                    }
                }
                cx.schedule(node, STABILIZE_PERIOD, Timer::Stabilize);
            }
            Timer::FixFingers => {
                if cx.is_online(node) {
                    let index = cx.rng().gen_range(0..mpil_id::ID_BITS) as u16;
                    let key = crate::ring::finger_start(self.ids[node.index()], usize::from(index));
                    self.route_step(
                        cx,
                        node,
                        key,
                        Payload::FingerFix {
                            index,
                            origin: node,
                        },
                        0,
                    );
                }
                cx.schedule(node, FIX_FINGERS_PERIOD, Timer::FixFingers);
            }
            Timer::CheckPredecessor => {
                if cx.is_online(node) {
                    if let Some(p) = self.states[node.index()].predecessor() {
                        self.start_probe(cx, node, p);
                    }
                }
                cx.schedule(node, CHECK_PREDECESSOR_PERIOD, Timer::CheckPredecessor);
            }
            Timer::ProbeTimeout { token } => match self.probes.expire(token, |n| cx.is_online(n)) {
                Expiry::Settled => {}
                Expiry::Resend(p) => self.ask(cx, p.from, p.to, Msg::Probe { token }, timer),
                Expiry::Dropped(p) => {
                    self.probing_pairs.remove(&(p.from, p.to));
                }
                Expiry::Exhausted(p) => {
                    self.probing_pairs.remove(&(p.from, p.to));
                    self.declare_failed(cx, p.from, p.to);
                }
            },
            Timer::StabTimeout { token } => match self.stabs.expire(token, |n| cx.is_online(n)) {
                Expiry::Settled | Expiry::Dropped(_) => {}
                Expiry::Resend(s) => self.ask(cx, s.from, s.to, Msg::StabRequest { token }, timer),
                // The successor is dead: drop it and fail over to the
                // next successor at the following stabilize round.
                Expiry::Exhausted(s) => self.declare_failed(cx, s.from, s.to),
            },
            Timer::RouteRetry { uid } => match self.routes.expire(uid, |n| cx.is_online(n)) {
                Expiry::Settled | Expiry::Dropped(_) => {}
                Expiry::Resend(r) => self.send_route(cx, uid, r.from, r.to, r.body),
                Expiry::Exhausted(r) => {
                    self.declare_failed(cx, r.from, r.to);
                    let (key, payload, hops) = r.body;
                    self.route_step(cx, r.from, key, payload, hops);
                }
            },
        }
    }

    /// Applies a stabilize reply at `node` (its successor was `target`).
    fn finish_stabilize(
        &mut self,
        cx: &mut Cx<'_>,
        node: NodeIdx,
        target: NodeIdx,
        succ_pred: Option<NodeIdx>,
        succ_list: &[NodeIdx],
    ) {
        let my_id = self.ids[node.index()];
        let target_id = self.ids[target.index()];
        let better = succ_pred
            .filter(|&p| p != node && crate::ring::in_open(my_id, self.ids[p.index()], target_id));
        match better {
            Some(p) => {
                // The successor's predecessor slots between us: adopt it
                // as our new first successor, keeping the old one next.
                let mut rest = vec![target];
                rest.extend_from_slice(succ_list);
                self.states[node.index()].adopt_successor_list(p, &rest, &self.ids);
            }
            None => {
                self.states[node.index()].adopt_successor_list(target, succ_list, &self.ids);
            }
        }
        if let Some(new_succ) = self.states[node.index()].successor() {
            cx.send(node, new_succ, Class::Maintenance, Msg::Notify);
        }
    }
}

impl Protocol for Chord {
    type Msg = Msg;
    type Timer = Timer;
    /// `(ids, states)`: the global ID table and each node's converged
    /// routing state.
    type Parts = (Vec<Id>, Vec<ChordState>);
    type Config = ChordConfig;

    /// # Panics
    ///
    /// Panics if `ids` and `states` disagree in length or the
    /// configuration is invalid.
    fn build((ids, states): Self::Parts, config: ChordConfig) -> Self {
        assert_eq!(ids.len(), states.len(), "ids/states length mismatch");
        config.assert_valid();
        let n = ids.len();
        Chord {
            config,
            states,
            stores: vec![IdSet::new(); n],
            routes: Outstanding::new(PROBE_RETRIES),
            probes: Outstanding::new(PROBE_RETRIES),
            stabs: Outstanding::new(PROBE_RETRIES),
            probing_pairs: FxHashSet::default(),
            seen_uids: vec![FxHashSet::default(); n],
            next_lookup: 0,
            ids,
        }
    }

    fn name(&self) -> &'static str {
        "Chord"
    }

    fn nodes(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn on_event(&mut self, cx: &mut Cx<'_>, event: Event<Msg, Timer>) {
        match event {
            Event::Message { from, to, msg } => self.on_message(cx, from, to, msg),
            Event::Timer { node, timer } => self.on_timer(cx, node, timer),
        }
    }

    /// Starts routing an insertion of `object` from `origin`.
    fn insert(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id) {
        let payload = Payload::Insert { object };
        self.route_step(cx, origin, object, payload, 0);
    }

    fn lookup(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id, deadline: SimTime) -> u64 {
        let lookup_id = self.next_lookup;
        self.next_lookup += 1;
        cx.open_lookup(lookup_id, deadline);
        let payload = Payload::Lookup {
            object,
            lookup_id,
            origin,
        };
        self.route_step(cx, origin, object, payload, 0);
        lookup_id
    }

    /// Starts the Chord join protocol: `joiner` (a node constructed with
    /// empty state) locates its successor through `bootstrap`; the root
    /// transfers its successor list, and stabilization integrates the
    /// joiner into predecessor pointers and fingers over time.
    ///
    /// # Panics
    ///
    /// Panics if `joiner == bootstrap`.
    fn join(&mut self, cx: &mut Cx<'_>, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        assert_ne!(joiner, bootstrap, "cannot bootstrap from self");
        let key = self.ids[joiner.index()];
        self.transmit(
            cx,
            joiner,
            bootstrap,
            (key, Payload::JoinFind { joiner }, 0),
        );
        true
    }

    /// Starts the periodic maintenance timers on every node, staggered
    /// uniformly over one period to avoid lockstep rounds.
    fn start_maintenance(&mut self, cx: &mut Cx<'_>) -> bool {
        for i in 0..self.ids.len() as u32 {
            let node = NodeIdx::new(i);
            cx.schedule_staggered(node, STABILIZE_PERIOD, Timer::Stabilize);
            cx.schedule_staggered(node, FIX_FINGERS_PERIOD, Timer::FixFingers);
            cx.schedule_staggered(node, CHECK_PREDECESSOR_PERIOD, Timer::CheckPredecessor);
        }
        true
    }

    fn holds(&self, node: NodeIdx, object: Id) -> bool {
        self.stores[node.index()].contains(&object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::build_converged_states;
    use mpil_overlay::random_ids;
    use mpil_sim::{AlwaysOn, ConstantLatency, Counters, SimDuration};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(n: usize, config: ChordConfig, seed: u64) -> ChordSim {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let states = build_converged_states(&ids);
        ChordSim::new(
            (ids, states),
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(10))),
            seed,
        )
    }

    #[test]
    fn insert_places_exactly_one_replica_without_replication() {
        let mut sim = build(50, ChordConfig::default(), 1);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..20 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(0), object);
            sim.run_to_quiescence();
            assert_eq!(sim.replica_holders(object).len(), 1);
        }
    }

    #[test]
    fn replica_lands_on_the_ring_successor() {
        let mut sim = build(64, ChordConfig::default(), 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sorted: Vec<Id> = sim.ids().to_vec();
        sorted.sort();
        for _ in 0..10 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(3), object);
            sim.run_to_quiescence();
            let holders = sim.replica_holders(object);
            assert_eq!(holders.len(), 1);
            let expect = *sorted
                .iter()
                .find(|&&id| id >= object)
                .unwrap_or(&sorted[0]);
            assert_eq!(sim.ids()[holders[0].index()], expect);
        }
    }

    #[test]
    fn replication_factor_spreads_to_successors() {
        let config = ChordConfig::default().with_replication(3);
        let mut sim = build(40, config, 3);
        let object = Id::from_low_u64(0xabcd);
        sim.insert(NodeIdx::new(1), object);
        sim.run_to_quiescence();
        assert_eq!(sim.replica_holders(object).len(), 3);
    }

    #[test]
    fn lookups_succeed_on_a_stable_ring() {
        let mut sim = build(100, ChordConfig::default(), 4);
        let mut rng = SmallRng::seed_from_u64(11);
        let objects: Vec<Id> = (0..30).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(5), o);
        }
        sim.run_to_quiescence();
        let deadline = SimTime::from_secs(1_000);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(42), o, deadline))
            .collect();
        sim.run_until(deadline);
        for h in handles {
            assert!(
                matches!(sim.lookup_outcome(h), LookupOutcome::Succeeded { .. }),
                "lookup {h} failed on a stable ring"
            );
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let mut sim = build(256, ChordConfig::default(), 5);
        let mut rng = SmallRng::seed_from_u64(21);
        let objects: Vec<Id> = (0..50).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let deadline = SimTime::from_secs(10_000);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(9), o, deadline))
            .collect();
        sim.run_until(deadline);
        let mut total = 0u32;
        for h in handles {
            match sim.lookup_outcome(h) {
                LookupOutcome::Succeeded { hops, .. } => {
                    assert!(hops <= 16, "hop count {hops} not O(log n) for n=256");
                    total += hops;
                }
                o => panic!("lookup failed: {o:?}"),
            }
        }
        // Average must be around (1/2) log2(256) = 4, generously bounded.
        assert!(total / 50 <= 8);
    }

    #[test]
    fn missing_object_reports_failure_not_hang() {
        let mut sim = build(30, ChordConfig::default(), 6);
        let deadline = SimTime::from_secs(100);
        let h = sim.issue_lookup(NodeIdx::new(2), Id::from_low_u64(42), deadline);
        sim.run_until(deadline);
        assert_eq!(sim.lookup_outcome(h), LookupOutcome::Failed);
        assert!(sim.counters().misdeliveries >= 1);
    }

    #[test]
    fn maintenance_preserves_a_stable_ring() {
        let mut sim = build(40, ChordConfig::default(), 7);
        let before = sim.neighbor_lists();
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(300));
        // Ten stabilize rounds on a fully-converged static ring must not
        // perturb the successor structure.
        for (i, st) in (0..40u32).map(|i| (i, sim.state(NodeIdx::new(i)))) {
            assert_eq!(
                st.successor(),
                before[i as usize].first().copied(),
                "successor changed on a static ring"
            );
        }
        assert!(sim.counters().failure_declarations == 0);
    }

    #[test]
    fn join_integrates_a_new_node() {
        let config = ChordConfig::default();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut ids = random_ids(33, &mut rng);
        let joiner_id = ids.pop().expect("33 ids");
        let mut states = build_converged_states(&ids);
        // The joiner starts empty.
        ids.push(joiner_id);
        states.push(ChordState::new(
            NodeIdx::new(32),
            joiner_id,
            crate::bootstrap::SUCCESSOR_LIST_LEN,
        ));
        let mut sim = ChordSim::new(
            (ids, states),
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(10))),
            12,
        );
        sim.join(NodeIdx::new(32), NodeIdx::new(0));
        sim.run_to_quiescence();
        // The joiner knows its true successor.
        let mut sorted: Vec<Id> = sim.ids()[..32].to_vec();
        sorted.sort();
        let expect = *sorted
            .iter()
            .find(|&&id| id >= joiner_id)
            .unwrap_or(&sorted[0]);
        let succ = sim.state(NodeIdx::new(32)).successor().expect("joined");
        assert_eq!(sim.ids()[succ.index()], expect);
        // After stabilization rounds the successor's predecessor is the joiner.
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.state(succ).predecessor(), Some(NodeIdx::new(32)));
        // No other pinned count drives a join (its route is an acked,
        // retried transmission like any other): hold its sends exactly.
        assert_eq!(
            sim.counters(),
            Counters {
                maintenance_messages: 732,
                ack_messages: 46,
                total_messages: 778,
                ..Counters::default()
            }
        );
    }

    #[test]
    fn stats_classify_traffic() {
        let mut sim = build(50, ChordConfig::default(), 8);
        let object = Id::from_low_u64(77);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        let c = sim.counters();
        assert!(c.insert_messages >= 1);
        assert_eq!(c.lookup_messages, 0);
        assert!(c.ack_messages >= c.insert_messages);
        let h = sim.issue_lookup(NodeIdx::new(1), object, SimTime::from_secs(500));
        sim.run_until(SimTime::from_secs(500));
        assert!(matches!(
            sim.lookup_outcome(h),
            LookupOutcome::Succeeded { .. }
        ));
        let c = sim.counters();
        assert!(c.lookup_messages >= 1);
        assert!(c.total_messages >= c.lookup_messages + c.insert_messages);
    }

    #[test]
    fn neighbor_lists_are_nonempty_and_self_free() {
        let sim = build(64, ChordConfig::default(), 9);
        for (i, nl) in sim.neighbor_lists().into_iter().enumerate() {
            assert!(!nl.is_empty());
            assert!(!nl.contains(&NodeIdx::new(i as u32)));
        }
    }

    #[test]
    fn deadline_expiry_fails_pending_lookups() {
        let mut sim = build(20, ChordConfig::default(), 10);
        let object = Id::from_low_u64(5);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        // Deadline in the past relative to message latency.
        let h = sim.issue_lookup(NodeIdx::new(3), object, sim.now());
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.lookup_outcome(h), LookupOutcome::Failed);
    }
}
