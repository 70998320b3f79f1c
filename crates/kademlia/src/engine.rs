//! The event-driven Kademlia simulation.
//!
//! Implements the protocol of Maymounkov & Mazières (IPTPS 2002) on the
//! [`mpil_sim`] kernel: k-buckets with ping-before-evict admission,
//! iterative `FIND_NODE`/`FIND_VALUE` lookups with `α`-way parallelism
//! driven by the *originator* (unlike Pastry's and Chord's recursive
//! routing), `STORE` at the `k` closest nodes, and periodic bucket
//! refresh. RPC timeouts evict peers; there is no retransmission —
//! Kademlia's redundancy is query parallelism, which makes it an
//! interesting middle point between single-path DHTs and MPIL's
//! multi-flow routing.

use fxhash::FxHashMap;
use mpil_id::{xor_distance, Id, IdSet};
use mpil_overlay::NodeIdx;
use mpil_sim::{Class, Event, Note, Protocol, Sim, SimDuration, SimTime};
use rand::Rng;

use crate::config::KademliaConfig;
use crate::table::{random_target_in_bucket, Admission, RoutingTable};

/// RPC timeout, the probe timeout of the other baselines; an unanswered
/// query marks the peer failed for the operation and evicts it from the
/// routing table (Kademlia does not retransmit — its redundancy is
/// `α`-way parallelism).
pub(crate) const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Period of bucket refresh, Pastry's routing-table probe period; one
/// random bucket is refreshed per firing with an iterative query for a
/// random ID in its range.
pub(crate) const BUCKET_REFRESH_PERIOD: SimDuration = SimDuration::from_secs(90);

/// What Kademlia nodes send each other (public only as
/// [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// Iterative query: "send me your k closest to `target`". With
    /// `find_value` set, a holder of the `target` object says so.
    FindNode {
        op: u64,
        target: Id,
        find_value: bool,
    },
    /// Query response.
    FindReply {
        op: u64,
        closer: Vec<NodeIdx>,
        found: bool,
    },
    /// Store the object pointer.
    Store { object: Id },
    /// Liveness check of a bucket's least-recently-seen entry.
    Ping { token: u64 },
    /// Ping response.
    Pong { token: u64 },
}

/// What a Kademlia node's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// An iterative query to `peer` went unanswered.
    RpcTimeout { op: u64, peer: NodeIdx },
    /// An eviction ping went unanswered.
    EvictTimeout { token: u64 },
    /// Periodic bucket refresh.
    BucketRefresh,
}

/// What an iterative operation is for.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// Converge on the k closest, then `STORE` at them.
    Insert { object: Id },
    /// `FIND_VALUE`: stop at the first holder.
    Lookup { lookup_id: u64 },
    /// Bucket refresh: converge and update tables, nothing else.
    Refresh,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandState {
    Unqueried,
    InFlight,
    Responded,
    Failed,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: NodeIdx,
    state: CandState,
    /// RPC depth at which this candidate became known (origin's own
    /// table = 1); the `hops` of a successful lookup is the depth of
    /// the replying holder.
    depth: u32,
}

#[derive(Debug)]
struct Operation {
    kind: OpKind,
    origin: NodeIdx,
    target: Id,
    /// Sorted by XOR distance to `target`, closest first.
    candidates: Vec<Candidate>,
    in_flight: usize,
    done: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingEviction {
    owner: NodeIdx,
    dead: NodeIdx,
    dead_id: Id,
    replacement: NodeIdx,
}

/// Outcome of one lookup (the shared engine-agnostic enum).
pub use mpil_sim::LookupOutcome;

type Cx<'a> = mpil_sim::Cx<'a, Kademlia>;

/// The Kademlia protocol: every node's k-buckets and pointer store,
/// the originators' iterative operations, and the handlers that drive
/// them. Runs inside a [`KademliaSim`].
pub struct Kademlia {
    config: KademliaConfig,
    ids: Vec<Id>,
    tables: Vec<RoutingTable>,
    stores: Vec<IdSet>,
    ops: FxHashMap<u64, Operation>,
    evictions: FxHashMap<u64, PendingEviction>,
    next_op: u64,
    next_token: u64,
    next_lookup: u64,
    /// [`RoutingTable::closest_with`]'s scratch, one table's contacts keyed
    /// by distance, kept so a `FIND_NODE` allocates only its answer.
    keyed: Vec<(Id, u32, NodeIdx)>,
}

/// The Kademlia overlay simulation.
///
/// Drive it like the paper's experiments: build converged tables
/// ([`crate::table::build_converged_tables`]) and hand `(ids, tables)`
/// to [`Sim::new`], insert on the static network, swap in a flapping
/// availability model, start maintenance, then issue lookups and run
/// the clock.
pub type KademliaSim = Sim<Kademlia>;

impl Kademlia {
    /// Each node's frozen neighbor list (every bucket entry) — the
    /// overlay MPIL routes on in the overlay-independence experiments.
    pub fn neighbor_lists(&self) -> Vec<Vec<NodeIdx>> {
        self.tables.iter().map(|t| t.iter().collect()).collect()
    }

    /// The global ID table.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Read access to a node's routing table (tests, diagnostics).
    pub fn table(&self, node: NodeIdx) -> &RoutingTable {
        &self.tables[node.index()]
    }

    // --- iterative operation driver ------------------------------------------

    fn start_op(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, target: Id, kind: OpKind) {
        let op_id = self.next_op;
        self.next_op += 1;
        let seeds = self.tables[origin.index()].closest_with(
            target,
            self.config.k,
            &self.ids,
            &mut self.keyed,
        );
        let candidates = seeds
            .into_iter()
            .map(|node| Candidate {
                node,
                state: CandState::Unqueried,
                depth: 1,
            })
            .collect();
        self.ops.insert(
            op_id,
            Operation {
                kind,
                origin,
                target,
                candidates,
                in_flight: 0,
                done: false,
            },
        );
        self.pump(cx, op_id);
    }

    /// Sends queries until `α` are in flight or the k-closest window is
    /// exhausted; finishes the operation when nothing remains in flight.
    fn pump(&mut self, cx: &mut Cx<'_>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        if op.done {
            return;
        }
        let alpha = self.config.alpha;
        let k = self.config.k;
        let mut to_send: Vec<NodeIdx> = Vec::new();
        {
            // The search window: the k closest candidates that have not
            // failed. Only they are eligible for queries; anything
            // farther exists only as backup when window members fail.
            let mut window = 0usize;
            for c in op.candidates.iter_mut() {
                if c.state == CandState::Failed {
                    continue;
                }
                window += 1;
                if window > k {
                    break;
                }
                if c.state == CandState::Unqueried && op.in_flight + to_send.len() < alpha {
                    c.state = CandState::InFlight;
                    to_send.push(c.node);
                }
            }
        }
        op.in_flight += to_send.len();
        let origin = op.origin;
        let target = op.target;
        let kind = op.kind;
        let finished = to_send.is_empty() && op.in_flight == 0;
        let class = match kind {
            OpKind::Insert { .. } => Class::Insert,
            OpKind::Lookup { .. } => Class::Lookup,
            OpKind::Refresh => Class::Maintenance,
        };
        for peer in to_send {
            cx.send(
                origin,
                peer,
                class,
                Msg::FindNode {
                    op: op_id,
                    target,
                    find_value: matches!(kind, OpKind::Lookup { .. }),
                },
            );
            cx.schedule(origin, RPC_TIMEOUT, Timer::RpcTimeout { op: op_id, peer });
        }
        if finished {
            self.finish_op(cx, op_id);
        }
    }

    /// The iteration converged: act on the final candidate set.
    fn finish_op(&mut self, cx: &mut Cx<'_>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        op.done = true;
        let kind = op.kind;
        let origin = op.origin;
        let closest: Vec<NodeIdx> = op
            .candidates
            .iter()
            .filter(|c| c.state == CandState::Responded)
            .take(self.config.k)
            .map(|c| c.node)
            .collect();
        self.ops.remove(&op_id);
        match kind {
            OpKind::Insert { object } => {
                // Store at the k closest that answered; the origin itself
                // stores too if it is closer than the k-th (it has seen
                // the object by definition, but the paper's engines count
                // only remote replicas — mirror Chord/Pastry and store
                // remotely only).
                for peer in closest {
                    cx.send(origin, peer, Class::Insert, Msg::Store { object });
                }
            }
            OpKind::Lookup { lookup_id } => {
                // Converged without finding a holder.
                cx.note(Note::Misdelivery);
                cx.fail_lookup(lookup_id);
            }
            OpKind::Refresh => {}
        }
    }

    // --- table admission with ping-eviction -----------------------------------

    /// Records evidence that `peer` is alive at `node`, running the
    /// ping-before-evict admission when the bucket is full.
    fn admit(&mut self, cx: &mut Cx<'_>, node: NodeIdx, peer: NodeIdx) {
        if node == peer {
            return;
        }
        let peer_id = self.ids[peer.index()];
        match self.tables[node.index()].offer(peer, peer_id) {
            Admission::Admitted => {}
            Admission::PingEvictionCandidate(lru) => {
                let token = self.next_token;
                self.next_token += 1;
                self.evictions.insert(
                    token,
                    PendingEviction {
                        owner: node,
                        dead: lru,
                        dead_id: self.ids[lru.index()],
                        replacement: peer,
                    },
                );
                cx.send(node, lru, Class::Maintenance, Msg::Ping { token });
                cx.schedule(node, RPC_TIMEOUT, Timer::EvictTimeout { token });
            }
        }
    }

    fn on_message(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, msg: Msg) {
        // Every direct message is evidence the sender is alive.
        self.admit(cx, to, from);
        match msg {
            Msg::FindNode {
                op,
                target,
                find_value,
            } => {
                let found = find_value && self.stores[to.index()].contains(&target);
                let mut closer = self.tables[to.index()].closest_with(
                    target,
                    self.config.k,
                    &self.ids,
                    &mut self.keyed,
                );
                closer.retain(|&c| c != from);
                cx.send(to, from, Class::Reply, Msg::FindReply { op, closer, found });
            }
            Msg::FindReply { op, closer, found } => {
                self.on_find_reply(cx, op, from, closer, found);
            }
            Msg::Store { object } => {
                self.stores[to.index()].insert(object);
            }
            Msg::Ping { token } => {
                cx.send(to, from, Class::Maintenance, Msg::Pong { token });
            }
            Msg::Pong { token } => {
                // The LRU answered: it was re-admitted by the admit() at
                // the top of on_message; the newcomer is dropped.
                self.evictions.remove(&token);
            }
        }
    }

    fn on_find_reply(
        &mut self,
        cx: &mut Cx<'_>,
        op_id: u64,
        from: NodeIdx,
        closer: Vec<NodeIdx>,
        found: bool,
    ) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        let mut replier_depth = 0;
        if let Some(c) = op.candidates.iter_mut().find(|c| c.node == from) {
            if c.state == CandState::InFlight {
                op.in_flight = op.in_flight.saturating_sub(1);
            }
            if c.state != CandState::Responded {
                c.state = CandState::Responded;
            }
            replier_depth = c.depth;
        }
        if found {
            if let OpKind::Lookup { lookup_id } = op.kind {
                op.done = true;
                let hops = replier_depth.max(1);
                self.ops.remove(&op_id);
                cx.complete_lookup(lookup_id, hops);
                return;
            }
        }
        // Merge newly learned candidates, keeping distance order.
        let target = op.target;
        let origin = op.origin;
        for peer in closer {
            if peer == origin || op.candidates.iter().any(|c| c.node == peer) {
                continue;
            }
            let d = xor_distance(self.ids[peer.index()], target);
            let pos = op
                .candidates
                .partition_point(|c| xor_distance(self.ids[c.node.index()], target) <= d);
            op.candidates.insert(
                pos,
                Candidate {
                    node: peer,
                    state: CandState::Unqueried,
                    depth: replier_depth + 1,
                },
            );
        }
        self.pump(cx, op_id);
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, timer: Timer) {
        match timer {
            Timer::RpcTimeout { op, peer } => {
                let Some(operation) = self.ops.get_mut(&op) else {
                    return;
                };
                let Some(c) = operation
                    .candidates
                    .iter_mut()
                    .find(|c| c.node == peer && c.state == CandState::InFlight)
                else {
                    return;
                };
                c.state = CandState::Failed;
                operation.in_flight = operation.in_flight.saturating_sub(1);
                // Unanswered RPC: evict from the table outright.
                let peer_id = self.ids[peer.index()];
                if self.tables[node.index()].remove(peer, peer_id) {
                    cx.note(Note::FailureDeclared);
                }
                self.pump(cx, op);
            }
            Timer::EvictTimeout { token } => {
                if let Some(ev) = self.evictions.remove(&token) {
                    self.tables[ev.owner.index()].replace(ev.dead, ev.dead_id, ev.replacement);
                    cx.note(Note::FailureDeclared);
                }
            }
            Timer::BucketRefresh => {
                if cx.is_online(node) {
                    let occupied: Vec<usize> = (0..mpil_id::ID_BITS)
                        .filter(|&i| !self.tables[node.index()].bucket(i).is_empty())
                        .collect();
                    if !occupied.is_empty() {
                        let pick = occupied[cx.rng().gen_range(0..occupied.len())];
                        let mut draw = [0u8; 20];
                        cx.rng().fill(&mut draw);
                        let target =
                            random_target_in_bucket(self.tables[node.index()].id(), pick, &draw);
                        self.start_op(cx, node, target, OpKind::Refresh);
                    }
                }
                cx.schedule(node, BUCKET_REFRESH_PERIOD, Timer::BucketRefresh);
            }
        }
    }
}

impl Protocol for Kademlia {
    type Msg = Msg;
    type Timer = Timer;
    /// `(ids, tables)`: the global ID table and each node's converged
    /// routing table.
    type Parts = (Vec<Id>, Vec<RoutingTable>);
    type Config = KademliaConfig;

    /// # Panics
    ///
    /// Panics if `ids` and `tables` disagree in length or the
    /// configuration is invalid.
    fn build((ids, tables): Self::Parts, config: KademliaConfig) -> Self {
        assert_eq!(ids.len(), tables.len(), "ids/tables length mismatch");
        config.assert_valid();
        let n = ids.len();
        Kademlia {
            config,
            tables,
            stores: vec![IdSet::new(); n],
            ops: FxHashMap::default(),
            evictions: FxHashMap::default(),
            next_op: 0,
            next_token: 0,
            next_lookup: 0,
            keyed: Vec::new(),
            ids,
        }
    }

    fn name(&self) -> &'static str {
        "Kademlia"
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

    /// Starts an insertion of `object` from `origin` (iterative
    /// convergence, then `STORE` at the `k` closest).
    fn insert(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id) {
        self.start_op(cx, origin, object, OpKind::Insert { object });
    }

    fn lookup(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id, deadline: SimTime) -> u64 {
        let lookup_id = self.next_lookup;
        self.next_lookup += 1;
        cx.open_lookup(lookup_id, deadline);
        // A node looking up something it already stores succeeds locally.
        if self.stores[origin.index()].contains(&object) {
            cx.complete_lookup(lookup_id, 0);
            return lookup_id;
        }
        self.start_op(cx, origin, object, OpKind::Lookup { lookup_id });
        lookup_id
    }

    /// Starts the periodic bucket-refresh timers, staggered uniformly
    /// over one period.
    fn start_maintenance(&mut self, cx: &mut Cx<'_>) -> bool {
        for i in 0..self.ids.len() as u32 {
            cx.schedule_staggered(NodeIdx::new(i), BUCKET_REFRESH_PERIOD, Timer::BucketRefresh);
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
    use crate::table::build_converged_tables;
    use mpil_sim::{AlwaysOn, ConstantLatency, SimDuration};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_ids(n: usize, seed: u64) -> Vec<Id> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = fxhash::FxHashSet::default();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let id = Id::random(&mut rng);
            if seen.insert(id) {
                out.push(id);
            }
        }
        out
    }

    fn build(n: usize, config: KademliaConfig, seed: u64) -> KademliaSim {
        let ids = random_ids(n, seed);
        let tables = build_converged_tables(&ids, &config);
        KademliaSim::new(
            (ids, tables),
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(10))),
            seed,
        )
    }

    #[test]
    fn insert_stores_at_k_closest() {
        let config = KademliaConfig::default();
        let mut sim = build(80, config, 1);
        let mut rng = SmallRng::seed_from_u64(50);
        for _ in 0..10 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(0), object);
            sim.run_to_quiescence();
            let holders = sim.replica_holders(object);
            assert_eq!(holders.len(), config.k, "exactly k replicas");
            // Holders are the k globally closest (converged tables make
            // the iterative search exact).
            let mut by_dist: Vec<usize> = (0..80).collect();
            by_dist.sort_by_key(|&i| xor_distance(sim.ids()[i], object));
            let expected: fxhash::FxHashSet<usize> = by_dist[..config.k].iter().copied().collect();
            let got: fxhash::FxHashSet<usize> = holders.iter().map(|h| h.index()).collect();
            // The origin never stores remotely to itself; when the origin
            // is one of the k closest, one replica shifts outward.
            let overlap = expected.intersection(&got).count();
            assert!(
                overlap >= config.k - 1,
                "holders {got:?} vs expected {expected:?}"
            );
        }
    }

    #[test]
    fn lookups_succeed_on_a_stable_network() {
        let mut sim = build(100, KademliaConfig::default(), 2);
        let mut rng = SmallRng::seed_from_u64(51);
        let objects: Vec<Id> = (0..25).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(3), o);
        }
        sim.run_to_quiescence();
        let deadline = SimTime::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(77), o, deadline))
            .collect();
        sim.run_until(deadline);
        for h in handles {
            assert!(
                matches!(sim.lookup_outcome(h), LookupOutcome::Succeeded { .. }),
                "lookup {h} failed on a stable network"
            );
        }
    }

    #[test]
    fn lookup_depth_is_logarithmic() {
        let mut sim = build(256, KademliaConfig::default(), 3);
        let mut rng = SmallRng::seed_from_u64(52);
        let objects: Vec<Id> = (0..30).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let deadline = SimTime::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(128), o, deadline))
            .collect();
        sim.run_until(deadline);
        for h in handles {
            match sim.lookup_outcome(h) {
                LookupOutcome::Succeeded { hops, .. } => {
                    assert!(hops <= 8, "depth {hops} not O(log n) for n=256")
                }
                o => panic!("lookup failed: {o:?}"),
            }
        }
    }

    #[test]
    fn missing_object_converges_to_failure() {
        let mut sim = build(40, KademliaConfig::default(), 4);
        let h = sim.issue_lookup(
            NodeIdx::new(1),
            Id::from_low_u64(99),
            SimTime::from_secs(600),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.lookup_outcome(h), LookupOutcome::Failed);
        assert!(sim.counters().misdeliveries >= 1);
    }

    #[test]
    fn local_holder_succeeds_in_zero_hops() {
        let mut sim = build(30, KademliaConfig::default(), 5);
        let object = Id::from_low_u64(7);
        // Manually plant the object at the origin.
        sim.with(|kademlia, _| kademlia.stores[2].insert(object));
        let h = sim.issue_lookup(NodeIdx::new(2), object, SimTime::from_secs(10));
        assert!(matches!(
            sim.lookup_outcome(h),
            LookupOutcome::Succeeded { hops: 0, .. }
        ));
    }

    #[test]
    fn stats_classify_traffic() {
        let mut sim = build(60, KademliaConfig::default(), 6);
        let object = Id::from_low_u64(1234);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        let c = sim.counters();
        assert!(c.insert_messages >= 1);
        assert_eq!(c.lookup_messages, 0);
        assert!(c.reply_messages >= 1);
        let h = sim.issue_lookup(NodeIdx::new(9), object, SimTime::from_secs(600));
        sim.run_to_quiescence();
        assert!(matches!(
            sim.lookup_outcome(h),
            LookupOutcome::Succeeded { .. }
        ));
        assert!(sim.counters().lookup_messages >= 1);
    }

    #[test]
    fn refresh_maintenance_keeps_running() {
        let mut sim = build(50, KademliaConfig::default(), 7);
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(400));
        // Several refresh rounds must have produced maintenance traffic
        // without evicting anyone on a static network.
        assert!(sim.counters().maintenance_messages > 0);
        assert_eq!(sim.counters().failure_declarations, 0);
    }

    #[test]
    fn neighbor_lists_are_nonempty_and_self_free() {
        let sim = build(64, KademliaConfig::default(), 8);
        for (i, nl) in sim.neighbor_lists().into_iter().enumerate() {
            assert!(!nl.is_empty());
            assert!(!nl.contains(&NodeIdx::new(i as u32)));
        }
    }

    #[test]
    fn deadline_expiry_fails_pending_lookups() {
        let mut sim = build(20, KademliaConfig::default(), 9);
        let object = Id::from_low_u64(5);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        // Pick an origin that does not hold a replica (a local hit would
        // legitimately succeed with zero latency).
        let origin = (0..20u32)
            .map(NodeIdx::new)
            .find(|n| !sim.replica_holders(object).contains(n))
            .expect("k=8 of 20 nodes hold it; 12 do not");
        let h = sim.issue_lookup(origin, object, sim.now());
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.lookup_outcome(h), LookupOutcome::Failed);
    }

    #[test]
    fn random_target_lands_in_requested_bucket() {
        let mut rng = SmallRng::seed_from_u64(10);
        let own = Id::random(&mut rng);
        for bucket in [0usize, 13, 77, 159] {
            let mut draw = [0u8; 20];
            rng.fill(&mut draw);
            let t = random_target_in_bucket(own, bucket, &draw);
            assert_eq!(crate::table::bucket_index(own, t), Some(bucket));
        }
    }
}
