//! [`Sim`]: the one simulation shell every discovery substrate runs in.
//!
//! A substrate is a [`Protocol`] — per-node state plus handlers, with
//! no clock and no queue of its own. `Sim<P>` owns everything that is
//! the same for all of them: the [`Network`], the batch of the tick being
//! dispatched, the maintenance flag, the tally of sends by [`Class`]
//! and of observations by [`Note`] ([`Counters`]), and the lookup
//! ledger (issue time, deadline, outcome — "pending at the deadline
//! reads [`LookupOutcome::Failed`]"). The
//! lifecycle the paper's experiments drive — insert →
//! [`Sim::run_to_quiescence`] → [`Sim::start_maintenance`] →
//! [`Sim::set_availability`] → [`Sim::run_until`] /
//! [`Sim::issue_lookup`] → [`Sim::lookup_outcome`] — is implemented
//! here once, so every system a figure compares is driven by the same
//! loop by construction.
//!
//! Handlers reach the world through [`Cx`], a plain borrow of the
//! network, the ledger and the tally: there is one simulated world, so
//! there is no outbox trait to implement and nothing to configure.
//! Every send names its [`Class`] ([`Cx::send`]) and everything else a
//! handler observes names its [`Note`] ([`Cx::note`]); both are counted
//! there, once, so no protocol keeps counters of its own.

use fxhash::FxHashMap;
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::availability::Availability;
use crate::latency::LatencyModel;
use crate::net::{Event, NetStats, Network};
use crate::outcome::LookupOutcome;
use crate::time::{SimDuration, SimTime};

/// What one send is for, named by the handler that sends it
/// ([`Cx::send`]). The class is an argument of the send, not a function
/// of the message: a Kademlia `FIND_NODE` is an insert, a lookup or a
/// refresh depending on the operation that sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A lookup on its way to a holder (a routed hop, a walk step, an
    /// iterative query).
    Lookup,
    /// An insert, a replication push, a store.
    Insert,
    /// An answer to a lookup or a query.
    Reply,
    /// Keeping the overlay or the replicas alive: probes, stabilization,
    /// refreshes, joins, heartbeats, deletes.
    Maintenance,
    /// A per-hop acknowledgment of a routed transmission (Chord,
    /// MSPastry).
    Ack,
}

/// What a handler observed besides its sends, named where it happens
/// ([`Cx::note`]). These are the counts that tell a lookup lost to
/// stale routing state (a declared failure, a hop limit, a misdelivery)
/// from one lost to an unreachable holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// A node declared a peer failed and dropped it from its routing
    /// state (timed-out acks or probes, unanswered RPCs or exchanges).
    FailureDeclared,
    /// A routed message dropped by the hop limit.
    HopLimitDrop,
    /// A lookup that ended without a holder where the routing put it: a
    /// root that held no object, a search that converged on none.
    Misdelivery,
    /// A message seen again by a node (suppressed or not).
    DuplicateSeen,
    /// A message dropped by duplicate suppression.
    DuplicateSuppressed,
}

/// Every send of a [`Sim`], by [`Class`], and every [`Note`] its
/// handlers made. [`Cx::send`] counts each send once, in the class its
/// handler names, so the five classes sum to `total_messages`, the
/// kernel's send count ([`NetStats::sent`]); [`Cx::note`] counts each
/// note once, in the field of its kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Transmissions carrying lookups.
    pub lookup_messages: u64,
    /// Transmissions carrying inserts (and replication pushes).
    pub insert_messages: u64,
    /// Direct lookup replies.
    pub reply_messages: u64,
    /// Maintenance traffic: probes, stabilization, refreshes,
    /// heartbeats, deletes.
    pub maintenance_messages: u64,
    /// Per-hop acks of routed transmissions.
    pub ack_messages: u64,
    /// Everything sent.
    pub total_messages: u64,
    /// [`Note::FailureDeclared`]s.
    pub failure_declarations: u64,
    /// [`Note::HopLimitDrop`]s.
    pub hop_limit_drops: u64,
    /// [`Note::Misdelivery`]s.
    pub misdeliveries: u64,
    /// [`Note::DuplicateSeen`]s.
    pub duplicates_seen: u64,
    /// [`Note::DuplicateSuppressed`]s.
    pub duplicates_suppressed: u64,
}

impl Counters {
    /// Sum of the five per-class counters.
    pub fn class_sum(&self) -> u64 {
        self.lookup_messages
            + self.insert_messages
            + self.reply_messages
            + self.maintenance_messages
            + self.ack_messages
    }

    fn count(&mut self, class: Class) {
        *match class {
            Class::Lookup => &mut self.lookup_messages,
            Class::Insert => &mut self.insert_messages,
            Class::Reply => &mut self.reply_messages,
            Class::Maintenance => &mut self.maintenance_messages,
            Class::Ack => &mut self.ack_messages,
        } += 1;
    }

    fn note(&mut self, note: Note) {
        *match note {
            Note::FailureDeclared => &mut self.failure_declarations,
            Note::HopLimitDrop => &mut self.hop_limit_drops,
            Note::Misdelivery => &mut self.misdeliveries,
            Note::DuplicateSeen => &mut self.duplicates_seen,
            Note::DuplicateSuppressed => &mut self.duplicates_suppressed,
        } += 1;
    }
}

/// One open or settled lookup.
#[derive(Debug)]
struct LookupEntry {
    issued_at: SimTime,
    deadline: SimTime,
    outcome: LookupOutcome,
}

/// The lookup ledger: every lookup a simulation issued, by the id its
/// protocol gave it.
#[derive(Debug, Default)]
struct Ledger {
    entries: FxHashMap<u64, LookupEntry>,
}

impl Ledger {
    fn open(&mut self, id: u64, now: SimTime, deadline: SimTime) {
        self.entries.insert(
            id,
            LookupEntry {
                issued_at: now,
                deadline,
                outcome: LookupOutcome::Pending,
            },
        );
    }

    /// A positive reply reached the origin at `now`: the first one by
    /// the deadline settles the lookup as succeeded, one after it as
    /// failed; later ones change nothing.
    fn complete(&mut self, id: u64, hops: u32, now: SimTime) {
        if let Some(entry) = self.entries.get_mut(&id) {
            if entry.outcome == LookupOutcome::Pending {
                entry.outcome = if now <= entry.deadline {
                    LookupOutcome::Succeeded {
                        hops,
                        latency: now.duration_since(entry.issued_at),
                    }
                } else {
                    LookupOutcome::Failed
                };
            }
        }
    }

    fn fail(&mut self, id: u64) {
        if let Some(entry) = self.entries.get_mut(&id) {
            if entry.outcome == LookupOutcome::Pending {
                entry.outcome = LookupOutcome::Failed;
            }
        }
    }

    /// A lookup still pending at its deadline reads as failed (a reply
    /// arriving exactly at the deadline is processed before a query can
    /// observe `now == deadline`, so it wins); so does an unknown id.
    fn outcome(&self, id: u64, now: SimTime) -> LookupOutcome {
        match self.entries.get(&id) {
            None => LookupOutcome::Failed,
            Some(entry) => match entry.outcome {
                LookupOutcome::Pending if now >= entry.deadline => LookupOutcome::Failed,
                outcome => outcome,
            },
        }
    }
}

/// What a [`Protocol`] handler can do to the simulated world: send,
/// note what it observed, arm timers, draw randomness, read the clock
/// and the availability model, and settle lookups. A borrow of the
/// [`Sim`]'s network, ledger and tally, handed to every handler call.
pub struct Cx<'a, P: Protocol> {
    net: &'a mut Network<P::Msg, P::Timer>,
    lookups: &'a mut Ledger,
    counters: &'a mut Counters,
}

impl<P: Protocol> Cx<'_, P> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Sends `msg` from `from` to `to` (see [`Network::send`]) and
    /// counts it in `class` ([`Sim::counters`]).
    pub fn send(&mut self, from: NodeIdx, to: NodeIdx, class: Class, msg: P::Msg) {
        self.counters.count(class);
        self.net.send(from, to, msg);
    }

    /// Counts what the handler observed in the field of `note`'s kind
    /// ([`Sim::counters`]).
    pub fn note(&mut self, note: Note) {
        self.counters.note(note);
    }

    /// Schedules `timer` to fire at `node` after `delay`.
    pub fn schedule(&mut self, node: NodeIdx, delay: SimDuration, timer: P::Timer) {
        self.net.schedule(node, delay, timer);
    }

    /// Schedules the first fire of a periodic `timer` at `node`,
    /// uniformly inside one `period` from now, so that nodes started
    /// together do not run their rounds in lockstep.
    pub fn schedule_staggered(&mut self, node: NodeIdx, period: SimDuration, timer: P::Timer) {
        let delay = self.net.rng().gen_range(0..period.as_micros());
        self.net
            .schedule(node, SimDuration::from_micros(delay), timer);
    }

    /// The deterministic simulation RNG (the one [`Network::send`]
    /// draws latencies and losses from).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.net.rng()
    }

    /// Is `node` online right now?
    pub fn is_online(&self, node: NodeIdx) -> bool {
        self.net.is_online(node)
    }

    /// Is `node` online at `at`?
    pub fn is_online_at(&self, node: NodeIdx, at: SimTime) -> bool {
        self.net.is_online_at(node, at)
    }

    /// Opens lookup `id` in the ledger, issued now and due by
    /// `deadline`. The id sequence is the protocol's own.
    pub fn open_lookup(&mut self, id: u64, deadline: SimTime) {
        self.lookups.open(id, self.net.now(), deadline);
    }

    /// A positive reply for lookup `id`, found `hops` away, reached its
    /// origin now. Only the first terminal event of a lookup counts.
    pub fn complete_lookup(&mut self, id: u64, hops: u32) {
        self.lookups.complete(id, hops, self.net.now());
    }

    /// Lookup `id` ended without a holder (a negative reply, a hop
    /// limit, a converged search).
    pub fn fail_lookup(&mut self, id: u64) {
        self.lookups.fail(id);
    }

    /// Is lookup `id` still worth spending messages on — no terminal
    /// event yet and its deadline ahead?
    pub fn lookup_is_open(&self, id: u64) -> bool {
        self.lookups.outcome(id, self.net.now()) == LookupOutcome::Pending
    }
}

/// One discovery substrate as a state machine: the state of all its
/// nodes and the handlers that react to events, nothing else. The
/// clock, the queue, the run loop and the lookup ledger belong to the
/// [`Sim`] that hosts it.
///
/// Adding a substrate is implementing this trait; `Sim<P>` then speaks
/// the whole experiment lifecycle (and `mpil_harness::DiscoveryEngine`)
/// for it.
pub trait Protocol: Sized {
    /// What nodes send each other.
    type Msg;
    /// What a node's timer carries.
    type Timer;
    /// The converged per-node state a simulation starts from (ids,
    /// routing tables, views, ...), as its bootstrap builds it.
    type Parts;
    /// The protocol's knobs.
    type Config;

    /// Assembles the protocol from converged parts.
    ///
    /// # Panics
    ///
    /// Implementations panic on an invalid configuration or on parts
    /// that disagree with each other.
    fn build(parts: Self::Parts, config: Self::Config) -> Self;

    /// Short human-readable engine name ("MPIL", "Chord", ...).
    fn name(&self) -> &'static str;

    /// Number of nodes.
    fn nodes(&self) -> usize;

    /// Reacts to one delivered message or fired timer. Implementations
    /// mark it `#[inline]`: the run loop is instantiated in whichever
    /// crate first names `Sim<P>`, and the dispatch belongs inside it.
    fn on_event(&mut self, cx: &mut Cx<'_, Self>, event: Event<Self::Msg, Self::Timer>);

    /// Starts an insertion of `object` from `origin`.
    fn insert(&mut self, cx: &mut Cx<'_, Self>, origin: NodeIdx, object: Id);

    /// Starts a lookup of `object` from `origin`: opens it in the
    /// ledger ([`Cx::open_lookup`]) under an id of the protocol's own
    /// sequence and returns that id.
    fn lookup(
        &mut self,
        cx: &mut Cx<'_, Self>,
        origin: NodeIdx,
        object: Id,
        deadline: SimTime,
    ) -> u64;

    /// Lets `joiner` (re-)join through `bootstrap`; `false` (the
    /// default) when the protocol has no join.
    fn join(&mut self, _cx: &mut Cx<'_, Self>, _joiner: NodeIdx, _bootstrap: NodeIdx) -> bool {
        false
    }

    /// Arms the protocol's periodic timers and returns `true`. The
    /// default has none and returns `false`, which leaves the
    /// simulation able to quiesce.
    fn start_maintenance(&mut self, _cx: &mut Cx<'_, Self>) -> bool {
        false
    }

    /// The availability model was swapped while maintenance is running:
    /// re-arm whatever was scheduled against the old one.
    fn availability_changed(&mut self, _cx: &mut Cx<'_, Self>) {}

    /// Reorders one tick's batch before it is dispatched, for a
    /// protocol whose timer arming would otherwise permute same-tick
    /// events. The default keeps the kernel's order.
    fn order_tick(_batch: &mut [Event<Self::Msg, Self::Timer>]) {}

    /// Does `node` store a replica/pointer for `object`?
    fn holds(&self, node: NodeIdx, object: Id) -> bool;
}

/// A [`Protocol`] running on the deterministic kernel: the simulation
/// every experiment drives.
///
/// Derefs to the protocol for its own read accessors (`ids()`,
/// `neighbor_lists()`, `membership()`, ...). What the protocol counted
/// is [`Sim::counters`]: no protocol keeps a tally of its own.
pub struct Sim<P: Protocol> {
    protocol: P,
    net: Network<P::Msg, P::Timer>,
    lookups: Ledger,
    counters: Counters,
    /// The tick being dispatched, in the wheel's own buffer for it: never
    /// copied, swapped in by [`Network::next_batch_before`].
    batch: Vec<Event<P::Msg, P::Timer>>,
    maintenance_started: bool,
}

impl<P: Protocol> Sim<P> {
    /// Builds the simulation from converged protocol parts.
    ///
    /// # Panics
    ///
    /// Panics where [`Protocol::build`] does.
    pub fn new(
        parts: P::Parts,
        config: P::Config,
        availability: Box<dyn Availability>,
        latency: Box<dyn LatencyModel>,
        seed: u64,
    ) -> Self {
        let protocol = P::build(parts, config);
        let net = Network::new(protocol.nodes(), availability, latency, seed);
        Sim {
            protocol,
            net,
            lookups: Ledger::default(),
            counters: Counters::default(),
            batch: Vec::new(),
            maintenance_started: false,
        }
    }

    /// Runs `f` on the protocol with the world access a handler has.
    /// The lifecycle below is built on it; callers use it for a
    /// protocol operation the lifecycle does not name (MPIL's
    /// owner-driven delete, a test reaching into node state).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut P, &mut Cx<'_, P>) -> R) -> R {
        let mut cx = Cx {
            net: &mut self.net,
            lookups: &mut self.lookups,
            counters: &mut self.counters,
        };
        f(&mut self.protocol, &mut cx)
    }

    /// Short human-readable engine name.
    pub fn name(&self) -> &'static str {
        self.protocol.name()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.protocol.nodes()
    }

    /// Returns `true` if the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Starts an insertion of `object` from `origin`; propagation
    /// happens as the caller runs the clock.
    pub fn insert(&mut self, origin: NodeIdx, object: Id) {
        self.with(|protocol, cx| protocol.insert(cx, origin, object));
    }

    /// Issues a lookup of `object` from `origin`, succeeding only if a
    /// positive reply arrives by `deadline`.
    pub fn issue_lookup(&mut self, origin: NodeIdx, object: Id, deadline: SimTime) -> u64 {
        self.with(|protocol, cx| protocol.lookup(cx, origin, object, deadline))
    }

    /// Outcome of a lookup; `Pending` at or past its deadline reads as
    /// `Failed`.
    pub fn lookup_outcome(&self, lookup: u64) -> LookupOutcome {
        self.lookups.outcome(lookup, self.net.now())
    }

    /// Lets `joiner` (re-)join the overlay through `bootstrap`; `false`
    /// when the protocol has no join.
    pub fn join(&mut self, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        self.with(|protocol, cx| protocol.join(cx, joiner, bootstrap))
    }

    /// Turns on periodic overlay maintenance (a no-op for protocols
    /// that are maintenance-free by design).
    ///
    /// # Panics
    ///
    /// Panics if maintenance was already started.
    pub fn start_maintenance(&mut self) {
        assert!(!self.maintenance_started, "maintenance already started");
        self.maintenance_started = self.with(|protocol, cx| protocol.start_maintenance(cx));
    }

    /// Swaps the availability model (static stage → perturbed stage).
    /// Takes effect immediately.
    pub fn set_availability(&mut self, availability: Box<dyn Availability>) {
        self.net.set_availability(availability);
        if self.maintenance_started {
            self.with(|protocol, cx| protocol.availability_changed(cx));
        }
    }

    /// Sets the independent per-message link-loss probability (failure
    /// injection; see [`Network::set_loss_probability`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.net.set_loss_probability(p);
    }

    fn nodes(&self) -> impl Iterator<Item = NodeIdx> {
        (0..self.len() as u32).map(NodeIdx::new)
    }

    /// Nodes currently storing a replica/pointer for `object`.
    pub fn replica_holders(&self, object: Id) -> Vec<NodeIdx> {
        self.nodes()
            .filter(|&n| self.protocol.holds(n, object))
            .collect()
    }

    /// Number of replica holders for `object`, without materialising
    /// the holder list.
    pub fn replica_count(&self, object: Id) -> usize {
        self.nodes()
            .filter(|&n| self.protocol.holds(n, object))
            .count()
    }

    /// Runs the event loop until `deadline` (inclusive); the clock ends
    /// at `deadline` even if the queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        while self.net.next_batch_before(deadline, &mut batch) {
            P::order_tick(&mut batch);
            self.with(|protocol, cx| {
                for event in batch.drain(..) {
                    protocol.on_event(cx, event);
                }
            });
        }
        self.batch = batch;
    }

    /// Runs until no events remain.
    ///
    /// # Panics
    ///
    /// Panics once periodic maintenance timers are armed: they never
    /// quiesce.
    pub fn run_to_quiescence(&mut self) {
        assert!(
            !self.maintenance_started,
            "periodic maintenance never quiesces; use run_until"
        );
        self.run_until(SimTime::from_micros(u64::MAX));
    }

    /// Every send so far by class and every note by kind;
    /// `total_messages` is the kernel's send count.
    pub fn counters(&self) -> Counters {
        Counters {
            total_messages: self.net.stats().sent,
            ..self.counters
        }
    }

    /// Kernel counters (raw sends, deliveries, offline/loss drops).
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }
}

impl<P: Protocol> std::ops::Deref for Sim<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.protocol
    }
}

impl<P: Protocol> std::fmt::Debug for Sim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("protocol", &self.name())
            .field("nodes", &self.len())
            .field("now", &self.net.now())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero() {
        let c = Counters::default();
        assert_eq!(c.total_messages, 0);
        assert_eq!(c.lookup_messages, 0);
    }
}
