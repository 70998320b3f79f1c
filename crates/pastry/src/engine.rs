//! The event-driven Pastry simulation (MSPastry stand-in).
//!
//! Implements the dependability machinery the perturbation experiments
//! exercise: per-hop acks with retransmission, probe-based failure
//! declaration, leaf-set/routing-table repair, periodic probing, and
//! passive re-integration of recovered nodes. Routed hops and probes
//! wait for their answers in [`mpil_sim::Outstanding`] tables.

use fxhash::FxHashSet;
use mpil_id::{Id, IdSet, IdSpace};
use mpil_overlay::NodeIdx;
use mpil_sim::{Class, Event, Expiry, Note, Outstanding, Protocol, Sim, SimDuration, SimTime};

use crate::config::PastryConfig;
use crate::state::{NextHop, PastryState};

// The paper's MSPastry settings (Section 6.2; the list is on
// [`PastryConfig`]).

/// Digit width of the key space (`b = 4` → base-16).
pub(crate) const SPACE: IdSpace = IdSpace::base16();

/// Period of leaf-set liveness probing.
pub(crate) const LEAFSET_PROBE_PERIOD: SimDuration = SimDuration::from_secs(30);

/// Period of routing-table entry probing.
pub(crate) const RT_PROBE_PERIOD: SimDuration = SimDuration::from_secs(90);

/// Period of routing-table maintenance (row exchange).
pub(crate) const RT_MAINTENANCE_PERIOD: SimDuration = SimDuration::from_secs(12_000);

/// Probe/ack timeout.
pub(crate) const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Probe/message retries before declaring a node failed.
pub(crate) const PROBE_RETRIES: u32 = 2;

/// Maximum overlay hops before a routed message is dropped (loop guard;
/// generous compared to the ~3-hop paths of a 1000-node overlay).
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
}

impl Payload {
    /// The class its routed hops are counted in.
    fn class(self) -> Class {
        match self {
            Payload::Insert { .. } => Class::Insert,
            Payload::Lookup { .. } => Class::Lookup,
        }
    }
}

/// What Pastry nodes send each other (public only as
/// [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// A routed application message (one per-hop transmission).
    Route {
        key: Id,
        payload: Payload,
        hops: u32,
        uid: u64,
    },
    /// Per-hop acknowledgment of a `Route` transmission.
    RouteAck { uid: u64 },
    /// Liveness probe.
    Probe { token: u64 },
    /// Probe response.
    ProbeReply { token: u64 },
    /// Ask a peer for its leaf set (repair).
    LeafsetPull,
    /// Leaf set contents (node handles; IDs come from the global table).
    LeafsetPush { members: Vec<NodeIdx> },
    /// Ask a peer for routing table row `row` (maintenance).
    RowRequest { row: u16 },
    /// Row contents.
    RowReply { entries: Vec<NodeIdx> },
    /// Lookup result sent directly to the origin.
    LookupReply {
        lookup_id: u64,
        found: bool,
        hops: u32,
    },
    /// A joining node's request, routed toward its own ID (Pastry §3.1).
    JoinRequest { joiner: NodeIdx, hops: u32 },
    /// State shared with a joiner by a node on the join route.
    JoinState { members: Vec<NodeIdx> },
    /// The join root's final state transfer; ends the join.
    JoinDone { members: Vec<NodeIdx> },
}

/// What a Pastry node's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// Periodic leaf-set probing (every `LEAFSET_PROBE_PERIOD`).
    LeafsetProbe,
    /// Periodic routing-table probing (every `RT_PROBE_PERIOD`).
    RtProbe,
    /// Periodic routing-table maintenance (every `RT_MAINTENANCE_PERIOD`).
    RtMaintenance,
    /// A probe went unanswered.
    ProbeTimeout { token: u64 },
    /// A routed transmission went unacknowledged.
    RouteRetry { uid: u64 },
}

/// What a routed hop carries: `(key, payload, hops)`.
type Hop = (Id, Payload, u32);

/// Outcome of one lookup (the shared engine-agnostic enum).
pub use mpil_sim::LookupOutcome;

type Cx<'a> = mpil_sim::Cx<'a, Pastry>;

/// The Pastry protocol: every node's leaf set, routing table and
/// pointer store, and the handlers that drive them. Runs inside a
/// [`PastrySim`].
pub struct Pastry {
    config: PastryConfig,
    ids: Vec<Id>,
    states: Vec<PastryState>,
    stores: Vec<IdSet>,
    routes: Outstanding<Hop>,
    probes: Outstanding<()>,
    /// The (prober, target) pairs of the open `probes`, so a pair is
    /// probed once at a time.
    probing_pairs: FxHashSet<(NodeIdx, NodeIdx)>,
    /// Per-node set of Route uids already processed (dedup after
    /// retransmission races).
    seen_uids: Vec<FxHashSet<u64>>,
    next_lookup: u64,
}

/// The Pastry overlay simulation.
///
/// Drive it like the paper's experiments: build (converged bootstrap,
/// [`crate::bootstrap::build_converged_states`]) and hand
/// `(ids, states)` to [`Sim::new`], insert on the static overlay, swap
/// in a flapping availability model, start maintenance, then issue
/// lookups and run the clock.
pub type PastrySim = Sim<Pastry>;

impl Pastry {
    /// Each node's frozen neighbor list (leaf set ∪ routing table) — the
    /// overlay MPIL routes on in Section 6.2.
    pub fn neighbor_lists(&self) -> Vec<Vec<NodeIdx>> {
        self.states.iter().map(|s| s.neighbor_list()).collect()
    }

    /// The global ID table.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    fn on_message(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, msg: Msg) {
        // Any message from a peer is evidence it is alive: re-admit it
        // (passive re-integration of recovered nodes).
        if from != to {
            let fid = self.ids[from.index()];
            self.states[to.index()].consider(fid, from);
        }
        match msg {
            Msg::Route {
                key,
                payload,
                hops,
                uid,
            } => {
                // Ack every transmission, then dedup re-deliveries.
                cx.send(to, from, Class::Ack, Msg::RouteAck { uid });
                if !self.seen_uids[to.index()].insert(uid) {
                    return;
                }
                self.deliver_or_forward(cx, to, key, payload, hops);
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
            Msg::LeafsetPull => {
                let members: Vec<NodeIdx> = self.states[to.index()].leafset.members().collect();
                cx.send(to, from, Class::Maintenance, Msg::LeafsetPush { members });
            }
            Msg::LeafsetPush { members } => {
                for m in members {
                    if m != to {
                        let mid = self.ids[m.index()];
                        self.states[to.index()].consider(mid, m);
                    }
                }
            }
            Msg::RowRequest { row } => {
                let entries: Vec<NodeIdx> = self.states[to.index()]
                    .rt
                    .row_entries(usize::from(row))
                    .into_iter()
                    .map(|(_, n)| n)
                    .collect();
                cx.send(to, from, Class::Maintenance, Msg::RowReply { entries });
            }
            Msg::RowReply { entries } => {
                for m in entries {
                    if m != to {
                        let mid = self.ids[m.index()];
                        self.states[to.index()].consider(mid, m);
                    }
                }
            }
            Msg::JoinRequest { joiner, hops } => {
                self.handle_join_request(cx, to, joiner, hops);
            }
            Msg::JoinState { members } => {
                for m in members {
                    if m != to {
                        let mid = self.ids[m.index()];
                        self.states[to.index()].consider(mid, m);
                    }
                }
            }
            Msg::JoinDone { members } => {
                for m in members {
                    if m != to {
                        let mid = self.ids[m.index()];
                        self.states[to.index()].consider(mid, m);
                    }
                }
                // The join is complete: announce ourselves by probing
                // everyone we learned about. Receivers admit us through
                // the passive consider-on-receive path.
                let known = self.states[to.index()].neighbor_list();
                for peer in known {
                    self.start_probe(cx, to, peer);
                }
            }
            Msg::LookupReply {
                lookup_id,
                found,
                hops,
            } => {
                if found {
                    cx.complete_lookup(lookup_id, hops);
                } else {
                    cx.fail_lookup(lookup_id);
                }
            }
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, timer: Timer) {
        match timer {
            Timer::LeafsetProbe => {
                if cx.is_online(node) {
                    let members: Vec<NodeIdx> = {
                        let mut m: Vec<NodeIdx> =
                            self.states[node.index()].leafset.members().collect();
                        m.sort_unstable();
                        m.dedup();
                        m
                    };
                    for m in members {
                        self.start_probe(cx, node, m);
                    }
                    // A shrunken leaf set actively pulls from a survivor.
                    if self.states[node.index()].leafset.has_room() {
                        if let Some(contact) =
                            self.states[node.index()].leafset.repair_contact(|_| false)
                        {
                            cx.send(node, contact, Class::Maintenance, Msg::LeafsetPull);
                        }
                    }
                }
                cx.schedule(node, LEAFSET_PROBE_PERIOD, Timer::LeafsetProbe);
            }
            Timer::RtProbe => {
                if cx.is_online(node) {
                    let entries: Vec<NodeIdx> = {
                        let mut e: Vec<NodeIdx> = self.states[node.index()]
                            .rt
                            .entries()
                            .map(|(_, n)| n)
                            .collect();
                        e.sort_unstable();
                        e.dedup();
                        e
                    };
                    for m in entries {
                        self.start_probe(cx, node, m);
                    }
                }
                cx.schedule(node, RT_PROBE_PERIOD, Timer::RtProbe);
            }
            Timer::RtMaintenance => {
                if cx.is_online(node) {
                    // Ask one random peer per populated row for that row.
                    let requests: Vec<(NodeIdx, u16)> = {
                        let st = &self.states[node.index()];
                        (0..st.rt.num_rows())
                            .filter_map(|r| {
                                let entries = st.rt.row_entries(r);
                                if entries.is_empty() {
                                    None
                                } else {
                                    Some((entries[0].1, r as u16))
                                }
                            })
                            .collect()
                    };
                    for (peer, row) in requests {
                        cx.send(node, peer, Class::Maintenance, Msg::RowRequest { row });
                    }
                }
                cx.schedule(node, RT_MAINTENANCE_PERIOD, Timer::RtMaintenance);
            }
            Timer::ProbeTimeout { token } => match self.probes.expire(token, |n| cx.is_online(n)) {
                Expiry::Settled => {}
                Expiry::Resend(p) => self.send_probe(cx, token, p.from, p.to),
                // The prober itself went offline; abandon the probe.
                Expiry::Dropped(p) => {
                    self.probing_pairs.remove(&(p.from, p.to));
                }
                Expiry::Exhausted(p) => {
                    self.probing_pairs.remove(&(p.from, p.to));
                    self.declare_failed(cx, p.from, p.to);
                }
            },
            Timer::RouteRetry { uid } => match self.routes.expire(uid, |n| cx.is_online(n)) {
                // A dropped hop is lost with its perturbed holder.
                Expiry::Settled | Expiry::Dropped(_) => {}
                Expiry::Resend(r) => self.send_route(cx, uid, r.from, r.to, r.body),
                // Retries exhausted: declare the hop dead and re-route
                // around it from the holder.
                Expiry::Exhausted(r) => {
                    self.declare_failed(cx, r.from, r.to);
                    let (key, payload, hops) = r.body;
                    self.route_step(cx, r.from, key, payload, hops);
                }
            },
        }
    }

    fn handle_join_request(&mut self, cx: &mut Cx<'_>, node: NodeIdx, joiner: NodeIdx, hops: u32) {
        let joiner_id = self.ids[joiner.index()];
        // Share the row the joiner will index at our shared-prefix depth,
        // plus our leaf set (cheap and accelerates convergence).
        let row = SPACE.prefix_match(self.states[node.index()].id, joiner_id) as usize;
        let mut share: Vec<NodeIdx> = self.states[node.index()]
            .rt
            .row_entries(row.min(self.states[node.index()].rt.num_rows() - 1))
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        share.extend(self.states[node.index()].leafset.members());
        share.push(node);
        share.sort_unstable();
        share.dedup();
        share.retain(|&m| m != joiner);
        let next = self.states[node.index()].next_hop(SPACE, joiner_id, |n| n == joiner);
        match next {
            NextHop::Forward(nx) if hops < MAX_HOPS => {
                let state = Msg::JoinState { members: share };
                cx.send(node, joiner, Class::Maintenance, state);
                cx.send(
                    node,
                    nx,
                    Class::Maintenance,
                    Msg::JoinRequest {
                        joiner,
                        hops: hops + 1,
                    },
                );
            }
            _ => {
                // This node is the joiner's root: final state transfer.
                let done = Msg::JoinDone { members: share };
                cx.send(node, joiner, Class::Maintenance, done);
            }
        }
        // Every node that saw the request learns the joiner.
        self.states[node.index()].consider(joiner_id, joiner);
    }

    // --- routing ---------------------------------------------------------

    /// Delivers or forwards a routed message currently held by `node`.
    fn deliver_or_forward(
        &mut self,
        cx: &mut Cx<'_>,
        node: NodeIdx,
        key: Id,
        payload: Payload,
        hops: u32,
    ) {
        // Replication on Route: every node along an insertion's path
        // stores the pointer.
        if self.config.replication_on_route {
            if let Payload::Insert { object } = payload {
                self.stores[node.index()].insert(object);
            }
        }
        // A lookup can stop at any node holding the object (this is how
        // RR replicas pay off; without RR only the root holds it).
        if let Payload::Lookup {
            object,
            lookup_id,
            origin,
        } = payload
        {
            if self.stores[node.index()].contains(&object) {
                cx.send(
                    node,
                    origin,
                    Class::Reply,
                    Msg::LookupReply {
                        lookup_id,
                        found: true,
                        hops,
                    },
                );
                return;
            }
        }
        self.route_step(cx, node, key, payload, hops);
    }

    /// One routing decision + transmission from `node`.
    fn route_step(&mut self, cx: &mut Cx<'_>, node: NodeIdx, key: Id, payload: Payload, hops: u32) {
        if hops >= MAX_HOPS {
            cx.note(Note::HopLimitDrop);
            if let Payload::Lookup { lookup_id, .. } = payload {
                cx.fail_lookup(lookup_id);
            }
            return;
        }
        let decision = self.states[node.index()].next_hop(SPACE, key, |_| false);
        match decision {
            NextHop::Local => self.deliver_local(cx, node, key, payload, hops),
            NextHop::Forward(next) => {
                let hop = (key, payload, hops + 1);
                let uid = self.routes.open(node, next, hop);
                self.send_route(cx, uid, node, next, hop);
            }
        }
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

    /// Terminal delivery at the node that believes itself root.
    fn deliver_local(
        &mut self,
        cx: &mut Cx<'_>,
        node: NodeIdx,
        _key: Id,
        payload: Payload,
        hops: u32,
    ) {
        match payload {
            Payload::Insert { object } => {
                self.stores[node.index()].insert(object);
            }
            Payload::Lookup {
                object,
                lookup_id,
                origin,
            } => {
                let found = self.stores[node.index()].contains(&object);
                if !found {
                    cx.note(Note::Misdelivery);
                }
                cx.send(
                    node,
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
    }

    /// Starts (or skips, if already probing) a liveness probe.
    fn start_probe(&mut self, cx: &mut Cx<'_>, prober: NodeIdx, target: NodeIdx) {
        if !self.probing_pairs.insert((prober, target)) {
            return;
        }
        let token = self.probes.open(prober, target, ());
        self.send_probe(cx, token, prober, target);
    }

    /// Sends one attempt of probe `token` and arms its timeout.
    fn send_probe(&mut self, cx: &mut Cx<'_>, token: u64, prober: NodeIdx, target: NodeIdx) {
        cx.send(prober, target, Class::Maintenance, Msg::Probe { token });
        cx.schedule(prober, PROBE_TIMEOUT, Timer::ProbeTimeout { token });
    }

    /// `observer` declares `target` failed: drops it from its tables and
    /// pulls a replacement leaf set from a surviving member.
    fn declare_failed(&mut self, cx: &mut Cx<'_>, observer: NodeIdx, target: NodeIdx) {
        if self.states[observer.index()].remove(target) {
            cx.note(Note::FailureDeclared);
            if let Some(contact) = self.states[observer.index()]
                .leafset
                .repair_contact(|n| n == target)
            {
                cx.send(observer, contact, Class::Maintenance, Msg::LeafsetPull);
            }
        }
    }
}

impl Protocol for Pastry {
    type Msg = Msg;
    type Timer = Timer;
    /// `(ids, states)`: the global ID table and each node's converged
    /// leaf set and routing table.
    type Parts = (Vec<Id>, Vec<PastryState>);
    type Config = PastryConfig;

    /// # Panics
    ///
    /// Panics if `ids` and `states` disagree in length.
    fn build((ids, states): Self::Parts, config: PastryConfig) -> Self {
        assert_eq!(ids.len(), states.len(), "ids/states length mismatch");
        let n = ids.len();
        Pastry {
            config,
            states,
            stores: vec![IdSet::new(); n],
            routes: Outstanding::new(PROBE_RETRIES),
            probes: Outstanding::new(PROBE_RETRIES),
            probing_pairs: FxHashSet::default(),
            seen_uids: vec![FxHashSet::default(); n],
            next_lookup: 0,
            ids,
        }
    }

    fn name(&self) -> &'static str {
        "MSPastry"
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

    /// Starts the Pastry join protocol for `joiner` (a node constructed
    /// *unjoined*; see
    /// [`build_converged_states_partial`](crate::bootstrap::build_converged_states_partial)),
    /// bootstrapping through `bootstrap`. The join request routes toward
    /// the joiner's own ID; every node on the route shares the routing
    /// table row the joiner needs, the root transfers its leaf set, and
    /// the joiner then announces itself by probing everyone it learned
    /// about (receivers re-admit it through the usual passive
    /// `consider`). Joins are assumed to run under stable conditions
    /// (no per-hop retransmission), as in the paper's static stage 1.
    ///
    /// # Panics
    ///
    /// Panics if `joiner == bootstrap`.
    fn join(&mut self, cx: &mut Cx<'_>, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        assert_ne!(joiner, bootstrap, "cannot bootstrap from self");
        let request = Msg::JoinRequest { joiner, hops: 0 };
        cx.send(joiner, bootstrap, Class::Maintenance, request);
        true
    }

    /// Starts the periodic maintenance timers on every node, staggered
    /// uniformly over one period to avoid lockstep probing.
    fn start_maintenance(&mut self, cx: &mut Cx<'_>) -> bool {
        for i in 0..self.ids.len() as u32 {
            let node = NodeIdx::new(i);
            cx.schedule_staggered(node, LEAFSET_PROBE_PERIOD, Timer::LeafsetProbe);
            cx.schedule_staggered(node, RT_PROBE_PERIOD, Timer::RtProbe);
            cx.schedule_staggered(node, RT_MAINTENANCE_PERIOD, Timer::RtMaintenance);
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
    use mpil_sim::{AlwaysOn, ConstantLatency, Flapping, FlappingConfig, SimDuration};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64, config: PastryConfig) -> PastrySim {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let states = build_converged_states(&ids, &mut rng);
        PastrySim::new(
            (ids, states),
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(20))),
            seed,
        )
    }

    #[test]
    fn insert_reaches_the_numerically_closest_node() {
        let mut sim = build(100, 1, PastryConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let object = Id::random(&mut rng);
            let origin = NodeIdx::new(rng.gen_range(0..100));
            sim.insert(origin, object);
            sim.run_to_quiescence();
            let holders = sim.replica_holders(object);
            assert_eq!(holders.len(), 1, "exactly the root stores");
            let root = (0..100usize)
                .min_by_key(|&i| mpil_id::ring_distance(sim.ids()[i], object))
                .unwrap();
            assert_eq!(holders[0].index(), root, "wrong root");
        }
    }

    #[test]
    fn lookup_succeeds_on_static_overlay() {
        let mut sim = build(200, 2, PastryConfig::default());
        let mut rng = SmallRng::seed_from_u64(9);
        let mut objects = Vec::new();
        for _ in 0..30 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(rng.gen_range(0..200)), object);
            objects.push(object);
        }
        sim.run_to_quiescence();
        let mut ids = Vec::new();
        for &object in &objects {
            let origin = NodeIdx::new(rng.gen_range(0..200));
            let deadline = sim.now() + SimDuration::from_secs(60);
            ids.push(sim.issue_lookup(origin, object, deadline));
        }
        sim.run_to_quiescence();
        for id in ids {
            match sim.lookup_outcome(id) {
                LookupOutcome::Succeeded { hops, .. } => {
                    assert!(hops <= 6, "200-node overlay should route in ~3 hops");
                }
                other => panic!("static lookup failed: {other:?}"),
            }
        }
    }

    #[test]
    fn lookup_for_missing_object_fails_fast() {
        let mut sim = build(50, 3, PastryConfig::default());
        let deadline = sim.now() + SimDuration::from_secs(60);
        let lk = sim.issue_lookup(NodeIdx::new(0), Id::from_low_u64(42), deadline);
        sim.run_to_quiescence();
        assert_eq!(sim.lookup_outcome(lk), LookupOutcome::Failed);
        assert!(sim.counters().misdeliveries >= 1);
    }

    #[test]
    fn replication_on_route_stores_along_the_path() {
        let config = PastryConfig::default().with_replication_on_route(true);
        let mut sim = build(100, 4, config);
        let mut rng = SmallRng::seed_from_u64(11);
        // Some paths are a single hop (origin adjacent to the root), so
        // measure across a batch: RR must replicate on average.
        let mut total = 0usize;
        let objects: Vec<Id> = (0..20).map(|_| Id::random(&mut rng)).collect();
        for &object in &objects {
            sim.insert(NodeIdx::new(rng.gen_range(0..100)), object);
            sim.run_to_quiescence();
            total += sim.replica_count(object);
        }
        // 100-node paths are 1–2 hops, so expect ~1.5–2 replicas each
        // (the paper's 1000-node runs see 2–3).
        assert!(
            total * 2 >= 3 * objects.len(),
            "RR should leave ~path-length replicas; got {total} over {} inserts",
            objects.len()
        );
    }

    #[test]
    fn maintenance_generates_background_traffic() {
        let mut sim = build(30, 5, PastryConfig::default());
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(120));
        let c = sim.counters();
        assert!(c.maintenance_messages > 0);
        assert_eq!(c.lookup_messages, 0);
        assert_eq!(
            sim.counters().failure_declarations,
            0,
            "no failures when always-on"
        );
    }

    #[test]
    fn offline_root_causes_failures_and_declarations() {
        let mut sim = build(60, 6, PastryConfig::default());
        let mut rng = SmallRng::seed_from_u64(13);
        let mut objects = Vec::new();
        for _ in 0..15 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(rng.gen_range(0..60)), object);
            objects.push(object);
        }
        sim.run_to_quiescence();
        sim.start_maintenance();

        // Long offline periods at probability 1 starting now.
        let origin = NodeIdx::new(0);
        let cfg = FlappingConfig::idle_offline_secs(300, 300, 1.0).starting_at(sim.now());
        let mut flap = Flapping::new(cfg, 60, 17, &mut rng);
        flap.exempt(origin);
        sim.set_availability(Box::new(flap));

        let start = sim.now() + SimDuration::from_secs(600);
        sim.run_until(start);
        let mut failed = 0;
        let mut ok = 0;
        for &object in &objects {
            let deadline = sim.now() + SimDuration::from_secs(60);
            let lk = sim.issue_lookup(origin, object, deadline);
            sim.run_until(deadline);
            match sim.lookup_outcome(lk) {
                LookupOutcome::Succeeded { .. } => ok += 1,
                _ => failed += 1,
            }
        }
        assert!(
            failed > ok,
            "p=1.0 300:300 should fail most lookups (ok={ok}, failed={failed})"
        );
        assert!(sim.counters().failure_declarations > 0);
    }

    #[test]
    fn neighbor_lists_cover_leafset_and_rt() {
        let sim = build(150, 7, PastryConfig::default());
        let lists = sim.neighbor_lists();
        assert_eq!(lists.len(), 150);
        for l in &lists {
            assert!(l.len() >= 8, "at least the leaf set");
        }
    }

    #[test]
    fn run_to_quiescence_rejects_maintenance_mode() {
        let mut sim = build(10, 8, PastryConfig::default());
        sim.start_maintenance();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_to_quiescence();
        }));
        assert!(res.is_err());
    }

    #[test]
    fn recovered_nodes_reintegrate() {
        let mut sim = build(40, 9, PastryConfig::default());
        sim.start_maintenance();
        // Knock node 1 out from node 0's perspective.
        let victim = NodeIdx::new(1);
        sim.with(|pastry, cx| pastry.declare_failed(cx, NodeIdx::new(0), victim));
        assert!(sim.states[0].neighbor_list().iter().all(|&x| x != victim));
        // Any message from the victim re-admits it; probing will deliver
        // one within a couple of periods.
        sim.run_until(sim.now() + SimDuration::from_secs(120));
        // The victim probes node 0 if 0 is in its tables; consider() then
        // re-admits. (It is in its tables by symmetric bootstrap only if
        // ring-adjacent; accept either re-admission or absence but
        // require no crash and continued traffic.)
        assert!(sim.counters().maintenance_messages > 0);
    }
}
