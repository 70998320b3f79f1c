//! The epidemic engine: HyParView membership under Plumtree
//! dissemination, and four lookup strategies over the one active graph.
//!
//! * **Membership (HyParView)** — each node keeps a small *symmetric
//!   active* view carrying all protocol traffic and a larger *passive*
//!   view refreshed by periodic shuffles. JOIN/FORWARD-JOIN walks seat
//!   new nodes; a failed active peer (repeated exchange timeouts) is
//!   *reactively* replaced by promoting a passive candidate through a
//!   NEIGHBOR handshake, so the overlay heals in about one gossip
//!   period instead of waiting for suspicion alone to drain bad links.
//! * **Dissemination (Plumtree)** — replication announcements ride a
//!   lazily-repaired spanning tree: eager push along tree links, IHAVE
//!   digests to the rest of the active view, GRAFT (with retransmit)
//!   when an announced object fails to arrive, PRUNE on duplicates.
//!   The first broadcast floods the active graph and prunes itself
//!   into a tree; later broadcasts pay one eager copy per node.
//! * **Lookup** — because announcements plant the pointer at nearly
//!   every node, a lookup is a shallow TTL-bounded query of the active
//!   view ([`LookupStrategy::Plumtree`], forwarded along tree links) or
//!   a FOAF-style bounded-fanout walk ([`LookupStrategy::Foaf`]),
//!   retried in rounds until the deadline.
//! * **Unstructured search** — [`LookupStrategy::KRandomWalk`] and
//!   [`LookupStrategy::ExpandingRing`] instead insert by a few random
//!   walks that store the pointer where they pass, and look up by
//!   `WALKERS` random walks or by floods of doubling TTL (Ferretti's
//!   family of searches over gossip views). Their dials are the
//!   constants below.
//!
//! All randomness flows through the kernel RNG and a shuffle's peers
//! ride inline in its message, so fixed seeds reproduce exactly and the
//! steady state does not allocate.

use fxhash::{FxHashMap, FxHashSet};
use mpil_id::{Id, IdMap, IdSet};
use mpil_overlay::NodeIdx;
use mpil_sim::{Class, Event, Note, Protocol, Sim, SimDuration, SimTime};
use rand::Rng;

use crate::config::{EpidemicConfig, LookupStrategy};
use crate::membership::Membership;
use crate::peers::InlinePeers;
use crate::ticker::{restore_tick_order, GossipTicker};
use crate::view::PartialView;

/// A shuffle's peer list, inline in its message: the initiator and at
/// most `SHUFFLE_ACTIVE + SHUFFLE_PASSIVE` of its peers, so the
/// steady-state message plane never allocates.
type Peers = InlinePeers<{ 1 + SHUFFLE_ACTIVE + SHUFFLE_PASSIVE }>;

/// Active-view entries a shuffle carries (all of them when the active
/// view bound is smaller).
pub(crate) const SHUFFLE_ACTIVE: usize = 3;

/// Passive-view entries a shuffle carries (all of them when the passive
/// view bound is smaller).
pub(crate) const SHUFFLE_PASSIVE: usize = 3;

/// How long a node waits for a shuffle or neighbor reply before counting
/// the exchange as failed.
const EXCHANGE_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Failed exchanges with the same active peer before it is evicted and
/// reactively replaced from the passive view.
const SUSPICION_LIMIT: u32 = 2;

/// Active random-walk length of FORWARD-JOIN propagation.
const ARWL: u32 = 5;

/// Remaining FORWARD-JOIN TTL at which the joiner is also captured into
/// passive views.
const PRWL: u32 = 2;

const _: () = assert!(PRWL <= ARWL);

/// How long a node waits for the eager copy of an announcement it heard
/// an IHAVE for before sending GRAFT (lazy tree repair).
const GRAFT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// GRAFT retransmission requests per missing announcement before the
/// node gives up on lazy repair (lookup retries still cover it).
const GRAFT_ATTEMPTS: u32 = 3;

/// Random walks a [`LookupStrategy::KRandomWalk`] lookup launches, once.
const WALKERS: usize = 8;

/// Hop budget of each lookup walker.
const WALK_TTL: u32 = 16;

/// TTL at which an [`LookupStrategy::ExpandingRing`] lookup stops
/// widening: its rounds flood at TTL 1, 2, 4, 8.
const RING_TTL_CAP: u32 = 8;

/// Random walks per insert under the walk and ring strategies, each
/// storing the pointer at every node it visits. A Plumtree broadcast
/// would put the pointer on nearly every node, and a search for a
/// pointer every neighbor holds answers at hop 1 and measures nothing.
const REPLICATION_WALKS: usize = 3;

/// Hop budget of each insert walk.
const REPLICATION_TTL: u32 = 5;

/// Forward depth of one [`LookupStrategy::Plumtree`] query round.
const QUERY_TTL: u32 = 2;

/// Hop budget of one [`LookupStrategy::Foaf`] walk.
const FOAF_TTL: u32 = 3;

/// Fan-out per hop of a FOAF walk.
const FOAF_FANOUT: usize = 3;

/// Pause between query retry rounds (covers one round trip).
const QUERY_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// What HyParView/Plumtree nodes send each other (public only as
/// [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// A (re-)joining node announcing itself to its bootstrap.
    Join,
    /// The join walk: decrement, capture, forward.
    ForwardJoin { joiner: NodeIdx, ttl: u32 },
    /// Request to open a symmetric active link. `high_priority` forces
    /// acceptance (the requester's active view is empty, or a join).
    Neighbor { token: u64, high_priority: bool },
    /// Accept/reject of a [`Msg::Neighbor`] request.
    NeighborReply { token: u64, accepted: bool },
    /// Polite close of an active link (overflow eviction).
    Disconnect,
    /// Shuffle request: the initiator's mixed active+passive sample,
    /// itself included fresh.
    Shuffle { token: u64, entries: Peers },
    /// Shuffle response: the responder's passive sample.
    ShuffleReply { token: u64, entries: Peers },
    /// Eager push of a replication announcement along tree links.
    Gossip { object: Id, hops: u32 },
    /// Lazy digest of an announcement, sent on non-tree active links.
    IHave { object: Id },
    /// Request to retransmit a missing announcement and promote the
    /// link to eager (tree repair).
    Graft { object: Id },
    /// Demote the sending link to lazy (duplicate received).
    Prune,
    /// An insert walk under the walk and ring strategies: store,
    /// decrement, forward anywhere but back or to the inserting node.
    StoreWalk {
        origin: NodeIdx,
        object: Id,
        ttl: u32,
    },
    /// One lookup step; where it goes next is the configured
    /// [`LookupStrategy`]'s choice.
    Query {
        lookup: u64,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
        round: u32,
    },
    /// Direct positive reply from a pointer holder to the origin.
    Reply { lookup: u64, hops: u32 },
}

/// What a HyParView/Plumtree node's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// Periodic per-node shuffle + reactive active-view fill, on the
    /// [`GossipTicker`].
    Gossip { epoch: u32 },
    /// The shuffle reply for `token` did not arrive in time.
    ShuffleTimeout { token: u64 },
    /// The neighbor reply for `token` did not arrive in time.
    NeighborTimeout { token: u64 },
    /// Deadline for the eager copy of an announced object; on expiry
    /// the node GRAFTs from the announcer.
    GraftRetry { object: Id },
    /// Time for `lookup`'s next round: a retry or a wider ring (k-walk
    /// lookups keep no rounds).
    QueryRound { lookup: u64 },
}

type Cx<'a> = mpil_sim::Cx<'a, Epidemic>;

/// An initiator's outstanding shuffle (one in flight per node: the
/// exchange timeout is shorter than the gossip period).
#[derive(Debug, Clone, Copy)]
struct PendingShuffle {
    token: u64,
    target: NodeIdx,
}

/// An outstanding NEIGHBOR promotion request.
#[derive(Debug, Clone, Copy)]
struct PendingNeighbor {
    token: u64,
    candidate: NodeIdx,
}

#[derive(Debug)]
struct QueryState {
    origin: NodeIdx,
    object: Id,
    round: u32,
    /// TTL of the current round's first hops (doubles per ring round).
    ttl: u32,
    /// Nodes that already forwarded the current round (per-round
    /// duplicate suppression).
    forwarded: FxHashSet<NodeIdx>,
}

/// The HyParView + Plumtree protocol: every node's membership, tree
/// links and pointer store, and the handlers that drive them. Runs
/// inside an [`EpidemicSim`].
pub struct Epidemic {
    config: EpidemicConfig,
    members: Vec<Membership>,
    /// Per node: the subset of the active view it eager-pushes to (the
    /// spanning-tree links). Lazy links are `active \ eager`.
    eager: Vec<PartialView>,
    stores: Vec<IdSet>,
    /// Per node: announced-but-missing objects -> (announcer, graft
    /// attempts so far).
    missing: Vec<IdMap<(NodeIdx, u32)>>,
    /// Reusable draw buffers (steady-state paths must not allocate).
    sample_scratch: Vec<NodeIdx>,
    sample_scratch2: Vec<NodeIdx>,
    /// Consecutive failed exchanges per (node, active peer).
    suspicion: Vec<FxHashMap<NodeIdx, u32>>,
    /// One bit per node: is `suspicion[node]` non-empty? The wipe on
    /// every shuffle delivery then skips the map for the common
    /// "nothing to wipe" case.
    suspicion_nonempty: Vec<u64>,
    pending_shuffles: Vec<Option<PendingShuffle>>,
    pending_neighbors: Vec<Option<PendingNeighbor>>,
    queries: FxHashMap<u64, QueryState>,
    next_token: u64,
    next_lookup: u64,
    ticker: GossipTicker,
}

/// The HyParView + Plumtree simulation.
///
/// Drive it like every other engine: build converged membership
/// ([`crate::build_converged_membership`]) and hand it to [`Sim::new`],
/// insert on the quiet network, start maintenance, swap in a perturbed
/// availability model, then issue lookups and run the clock.
pub type EpidemicSim = Sim<Epidemic>;

impl Epidemic {
    /// The configuration the engine runs with.
    pub fn config(&self) -> &EpidemicConfig {
        &self.config
    }

    /// Read access to a node's membership state (tests, diagnostics).
    pub fn membership(&self, node: NodeIdx) -> &Membership {
        &self.members[node.index()]
    }

    /// Checks every node's [`Membership::assert_invariants`] and that its
    /// tree links are a legal subset of its active view (property tests).
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn assert_invariants(&self) {
        for (m, eager) in self.members.iter().zip(&self.eager) {
            m.assert_invariants();
            eager.assert_invariants();
            for peer in eager.iter() {
                assert!(
                    m.active.contains(peer),
                    "{} eager-pushes to {peer} outside its active view",
                    m.owner()
                );
            }
        }
    }

    // --- membership -----------------------------------------------------------

    /// Opens the `node -> peer` half of an active link: removes `peer`
    /// from the passive view, makes room (random eviction + DISCONNECT
    /// when `force`), and starts the link eager. Returns whether the
    /// active view changed.
    fn add_active(&mut self, cx: &mut Cx<'_>, node: NodeIdx, peer: NodeIdx, force: bool) -> bool {
        let u = node.index();
        if peer == node || self.members[u].active.contains(peer) {
            return false;
        }
        self.members[u].passive.remove(peer);
        if self.members[u].active.len() >= self.config.active_size {
            if !force {
                return false;
            }
            if let Some(victim) = self.members[u].active.sample_one(cx.rng()) {
                self.drop_active(node, victim);
                cx.send(node, victim, Class::Maintenance, Msg::Disconnect);
                self.integrate_into_passive(cx, node, victim);
            }
        }
        self.members[u].active.insert(peer);
        self.eager[u].insert(peer);
        self.suspicion[u].remove(&peer);
        self.sync_suspicion_bit(node);
        true
    }

    /// Closes the `node -> peer` half of an active link. Returns
    /// whether the peer was present.
    fn drop_active(&mut self, node: NodeIdx, peer: NodeIdx) -> bool {
        let u = node.index();
        let was = self.members[u].active.remove(peer);
        if was {
            self.eager[u].remove(peer);
        }
        self.suspicion[u].remove(&peer);
        self.sync_suspicion_bit(node);
        was
    }

    /// Admits `peer` to `node`'s passive view (random eviction on
    /// overflow, never displacing toward the active view).
    fn integrate_into_passive(&mut self, cx: &mut Cx<'_>, node: NodeIdx, peer: NodeIdx) {
        let u = node.index();
        if peer == node
            || self.members[u].active.contains(peer)
            || self.members[u].passive.contains(peer)
        {
            return;
        }
        if self.members[u].passive.len() >= self.config.passive_size {
            if let Some(victim) = self.members[u].passive.sample_one(cx.rng()) {
                self.members[u].passive.remove(victim);
            }
        }
        self.members[u].passive.insert(peer);
    }

    /// Starts a NEIGHBOR promotion of a random passive candidate if the
    /// active view is underfull and no promotion is in flight.
    fn try_neighbor(&mut self, cx: &mut Cx<'_>, node: NodeIdx) {
        let u = node.index();
        if self.pending_neighbors[u].is_some()
            || self.members[u].active.len() >= self.config.active_size
        {
            return;
        }
        let Some(candidate) = self.members[u].passive.sample_one(cx.rng()) else {
            return; // empty passive view; shuffles will refill it
        };
        let token = self.next_token;
        self.next_token += 1;
        self.pending_neighbors[u] = Some(PendingNeighbor { token, candidate });
        let high_priority = self.members[u].active.is_empty();
        cx.send(
            node,
            candidate,
            Class::Maintenance,
            Msg::Neighbor {
                token,
                high_priority,
            },
        );
        cx.schedule(node, EXCHANGE_TIMEOUT, Timer::NeighborTimeout { token });
    }

    fn initiate_shuffle(&mut self, cx: &mut Cx<'_>, node: NodeIdx, target: NodeIdx) {
        let u = node.index();
        self.members[u].active.sample_into(
            SHUFFLE_ACTIVE.min(self.config.active_size),
            Some(target),
            cx.rng(),
            &mut self.sample_scratch,
        );
        self.members[u].passive.sample_into(
            SHUFFLE_PASSIVE.min(self.config.passive_size),
            Some(target),
            cx.rng(),
            &mut self.sample_scratch2,
        );
        let mut entries = Peers::new();
        entries.push(node);
        for &peer in self.sample_scratch.iter().chain(&self.sample_scratch2) {
            entries.push(peer);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.pending_shuffles[u] = Some(PendingShuffle { token, target });
        cx.send(
            node,
            target,
            Class::Maintenance,
            Msg::Shuffle { token, entries },
        );
        cx.schedule(node, EXCHANGE_TIMEOUT, Timer::ShuffleTimeout { token });
    }

    fn on_gossip_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, epoch: u32) {
        if !self.ticker.is_current(epoch) {
            return; // superseded chain (availability swap)
        }
        if cx.is_online(node) {
            // Reactive repair first: an underfull active view promotes
            // a passive candidate without waiting for a shuffle.
            self.try_neighbor(cx, node);
            if let Some(target) = self.members[node.index()].active.sample_one(cx.rng()) {
                self.initiate_shuffle(cx, node, target);
            }
        }
        self.ticker.arm_next(cx, node);
    }

    fn on_join(&mut self, cx: &mut Cx<'_>, joiner: NodeIdx, to: NodeIdx) {
        self.add_active(cx, to, joiner, true);
        let mut walk_targets = std::mem::take(&mut self.sample_scratch);
        walk_targets.clear();
        walk_targets.extend(
            self.members[to.index()]
                .active
                .iter()
                .filter(|&p| p != joiner),
        );
        for &peer in &walk_targets {
            cx.send(
                to,
                peer,
                Class::Maintenance,
                Msg::ForwardJoin { joiner, ttl: ARWL },
            );
        }
        self.sample_scratch = walk_targets;
    }

    fn on_forward_join(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        joiner: NodeIdx,
        ttl: u32,
    ) {
        if joiner == to {
            return;
        }
        let u = to.index();
        if ttl == 0 || self.members[u].active.len() < self.config.active_size {
            // Seat the joiner here through the normal NEIGHBOR
            // handshake so both sides add the link.
            if self.pending_neighbors[u].is_none() && !self.members[u].active.contains(joiner) {
                let token = self.next_token;
                self.next_token += 1;
                self.pending_neighbors[u] = Some(PendingNeighbor {
                    token,
                    candidate: joiner,
                });
                cx.send(
                    to,
                    joiner,
                    Class::Maintenance,
                    Msg::Neighbor {
                        token,
                        high_priority: true,
                    },
                );
                cx.schedule(to, EXCHANGE_TIMEOUT, Timer::NeighborTimeout { token });
            } else {
                self.integrate_into_passive(cx, to, joiner);
            }
            return;
        }
        if ttl == PRWL {
            self.integrate_into_passive(cx, to, joiner);
        }
        self.members[u]
            .active
            .sample_into(1, Some(from), cx.rng(), &mut self.sample_scratch);
        match self.sample_scratch.first() {
            Some(&next) if next != joiner => {
                cx.send(
                    to,
                    next,
                    Class::Maintenance,
                    Msg::ForwardJoin {
                        joiner,
                        ttl: ttl - 1,
                    },
                );
            }
            _ => {
                // Nowhere to walk: capture the joiner locally instead.
                self.integrate_into_passive(cx, to, joiner);
            }
        }
    }

    fn on_neighbor(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        high_priority: bool,
    ) {
        let full = self.members[to.index()].active.len() >= self.config.active_size;
        let accepted = high_priority || !full;
        if accepted {
            self.add_active(cx, to, from, true);
        }
        cx.send(
            to,
            from,
            Class::Maintenance,
            Msg::NeighborReply { token, accepted },
        );
    }

    fn on_neighbor_reply(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        accepted: bool,
    ) {
        let u = to.index();
        let slot = &mut self.pending_neighbors[u];
        if slot.is_none_or(|p| p.token != token) {
            return; // late reply after the timeout already fired
        }
        *slot = None;
        if accepted {
            self.add_active(cx, to, from, false);
        }
        // A rejection leaves the candidate in the passive view (it is
        // alive, just full); the next gossip tick tries another.
    }

    fn on_neighbor_timeout(&mut self, node: NodeIdx, token: u64) {
        let u = node.index();
        let slot = &mut self.pending_neighbors[u];
        let Some(pending) = *slot else {
            return;
        };
        if pending.token != token {
            return;
        }
        *slot = None;
        // The candidate did not answer: drop the stale passive entry so
        // the next promotion draws someone else.
        self.members[u].passive.remove(pending.candidate);
    }

    fn on_disconnect(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx) {
        if self.drop_active(to, from) {
            self.integrate_into_passive(cx, to, from);
        }
    }

    fn on_shuffle(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        entries: Peers,
    ) {
        self.members[to.index()].passive.sample_into(
            entries.as_slice().len(),
            Some(from),
            cx.rng(),
            &mut self.sample_scratch,
        );
        let mut reply = Peers::new();
        for &peer in &self.sample_scratch {
            reply.push(peer);
        }
        cx.send(
            to,
            from,
            Class::Maintenance,
            Msg::ShuffleReply {
                token,
                entries: reply,
            },
        );
        for &peer in entries.as_slice() {
            self.integrate_into_passive(cx, to, peer);
        }
        self.clear_suspicion_of(to, from);
    }

    fn on_shuffle_reply(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        entries: Peers,
    ) {
        let slot = &mut self.pending_shuffles[to.index()];
        if slot.is_none_or(|p| p.token != token) {
            return; // late reply after the timeout already fired
        }
        *slot = None;
        for &peer in entries.as_slice() {
            self.integrate_into_passive(cx, to, peer);
        }
        self.clear_suspicion_of(to, from);
    }

    fn on_shuffle_timeout(&mut self, cx: &mut Cx<'_>, initiator: NodeIdx, token: u64) {
        let u = initiator.index();
        let slot = &mut self.pending_shuffles[u];
        if slot.is_none_or(|p| p.token != token) {
            return; // the reply arrived in time
        }
        let pending = slot.take().expect("token matched above");
        let target = pending.target;
        if !self.members[u].active.contains(target) {
            self.suspicion[u].remove(&target);
            self.sync_suspicion_bit(initiator);
            return;
        }
        let strikes = self.suspicion[u].entry(target).or_insert(0);
        *strikes += 1;
        if *strikes >= SUSPICION_LIMIT {
            // `target` is in the active view (checked above): evicting
            // it is a declared failure, not a polite close.
            self.drop_active(initiator, target);
            cx.note(Note::FailureDeclared);
            // Reactive replacement: promote a passive candidate now
            // instead of waiting for the next gossip tick.
            self.try_neighbor(cx, initiator);
        } else {
            self.sync_suspicion_bit(initiator);
        }
    }

    /// Hearing from a peer is direct evidence it is alive; wipe its
    /// strikes (bitmap-guarded, this runs on every delivery).
    fn clear_suspicion_of(&mut self, node: NodeIdx, peer: NodeIdx) {
        if self.has_suspicion(node) {
            self.suspicion[node.index()].remove(&peer);
            self.sync_suspicion_bit(node);
        }
    }

    fn has_suspicion(&self, node: NodeIdx) -> bool {
        let u = node.index();
        self.suspicion_nonempty[u / 64] >> (u % 64) & 1 != 0
    }

    fn sync_suspicion_bit(&mut self, node: NodeIdx) {
        let u = node.index();
        let bit = 1u64 << (u % 64);
        if self.suspicion[u].is_empty() {
            self.suspicion_nonempty[u / 64] &= !bit;
        } else {
            self.suspicion_nonempty[u / 64] |= bit;
        }
    }

    // --- dissemination --------------------------------------------------------

    /// Pushes an announcement out of `node`: eager copies along tree
    /// links, IHAVE digests on the remaining active links, `exclude`
    /// (the delivering peer) skipped on both.
    fn push_announcement(
        &mut self,
        cx: &mut Cx<'_>,
        node: NodeIdx,
        exclude: Option<NodeIdx>,
        object: Id,
        hops: u32,
    ) {
        let u = node.index();
        let mut targets = std::mem::take(&mut self.sample_scratch);
        targets.clear();
        targets.extend(self.eager[u].iter());
        for &peer in &targets {
            if Some(peer) == exclude {
                continue;
            }
            cx.send(node, peer, Class::Insert, Msg::Gossip { object, hops });
        }
        targets.clear();
        targets.extend(
            self.members[u]
                .active
                .iter()
                .filter(|&p| !self.eager[u].contains(p)),
        );
        for &peer in &targets {
            if Some(peer) == exclude {
                continue;
            }
            cx.send(node, peer, Class::Insert, Msg::IHave { object });
        }
        self.sample_scratch = targets;
    }

    /// Moves the `node -> peer` link to eager (tree link), if active.
    fn promote_eager(&mut self, node: NodeIdx, peer: NodeIdx) {
        let u = node.index();
        if self.members[u].active.contains(peer) && !self.eager[u].contains(peer) {
            self.eager[u].insert(peer);
        }
    }

    /// Moves the `node -> peer` link to lazy (IHAVE-only).
    fn demote_eager(&mut self, node: NodeIdx, peer: NodeIdx) {
        self.eager[node.index()].remove(peer);
    }

    fn on_gossip_msg(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        object: Id,
        hops: u32,
    ) {
        let u = to.index();
        if self.stores[u].insert(object) {
            // First delivery: the sender is our tree parent.
            self.missing[u].remove(&object);
            self.promote_eager(to, from);
            self.push_announcement(cx, to, Some(from), object, hops + 1);
        } else {
            // Duplicate: this link is redundant for the tree.
            self.demote_eager(to, from);
            cx.send(to, from, Class::Maintenance, Msg::Prune);
        }
    }

    fn on_ihave(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, object: Id) {
        let u = to.index();
        if self.stores[u].contains(&object) || self.missing[u].contains_key(&object) {
            return;
        }
        self.missing[u].insert(object, (from, 0));
        cx.schedule(to, GRAFT_TIMEOUT, Timer::GraftRetry { object });
    }

    fn on_graft_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, object: Id) {
        let u = node.index();
        let Some(&(announcer, attempts)) = self.missing[u].get(&object) else {
            return; // the eager copy arrived in time
        };
        if self.stores[u].contains(&object) {
            self.missing[u].remove(&object);
            return;
        }
        self.promote_eager(node, announcer);
        cx.send(node, announcer, Class::Maintenance, Msg::Graft { object });
        if attempts + 1 >= GRAFT_ATTEMPTS {
            self.missing[u].remove(&object);
        } else {
            self.missing[u].insert(object, (announcer, attempts + 1));
            cx.schedule(node, GRAFT_TIMEOUT, Timer::GraftRetry { object });
        }
    }

    fn on_graft(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, object: Id) {
        self.promote_eager(to, from);
        if self.stores[to.index()].contains(&object) {
            cx.send(to, from, Class::Insert, Msg::Gossip { object, hops: 1 });
        }
    }

    fn on_prune(&mut self, from: NodeIdx, to: NodeIdx) {
        self.demote_eager(to, from);
    }

    // --- replication walks ----------------------------------------------------

    /// One step of an insert walk: store the pointer, then forward to a
    /// random active peer other than the one the walk came from and the
    /// walk's origin (which never stores: replicas are remote). A node
    /// with no such peer ends the walk early.
    fn on_store_walk(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
    ) {
        let u = to.index();
        self.stores[u].insert(object);
        if ttl <= 1 {
            return;
        }
        let mut onward = std::mem::take(&mut self.sample_scratch);
        onward.clear();
        onward.extend(
            self.members[u]
                .active
                .iter()
                .filter(|&p| p != from && p != origin),
        );
        if !onward.is_empty() {
            let next = onward[cx.rng().gen_range(0..onward.len())];
            cx.send(
                to,
                next,
                Class::Insert,
                Msg::StoreWalk {
                    origin,
                    object,
                    ttl: ttl - 1,
                },
            );
        }
        self.sample_scratch = onward;
    }

    // --- lookup ---------------------------------------------------------------

    /// Sends one query wave for `lookup` out of `origin`: Plumtree and
    /// ring rounds query the whole active view, FOAF rounds and the
    /// walkers a random draw from it.
    fn launch_wave(
        &mut self,
        cx: &mut Cx<'_>,
        lookup: u64,
        origin: NodeIdx,
        object: Id,
        round: u32,
        ttl: u32,
    ) {
        let active = &self.members[origin.index()].active;
        let mut targets = std::mem::take(&mut self.sample_scratch);
        match self.config.strategy {
            LookupStrategy::Plumtree | LookupStrategy::ExpandingRing => {
                targets.clear();
                targets.extend(active.iter());
            }
            LookupStrategy::Foaf => active.sample_into(FOAF_FANOUT, None, cx.rng(), &mut targets),
            LookupStrategy::KRandomWalk => {
                active.sample_into(WALKERS, None, cx.rng(), &mut targets)
            }
        }
        for &peer in &targets {
            cx.send(
                origin,
                peer,
                Class::Lookup,
                Msg::Query {
                    lookup,
                    origin,
                    object,
                    ttl,
                    hops: 1,
                    round,
                },
            );
        }
        self.sample_scratch = targets;
    }

    fn on_query_round(&mut self, cx: &mut Cx<'_>, lookup: u64) {
        let Some(q) = self.queries.get_mut(&lookup) else {
            return;
        };
        let ring = self.config.strategy == LookupStrategy::ExpandingRing;
        // A ring stops widening at its cap.
        if (ring && q.ttl >= RING_TTL_CAP) || !cx.lookup_is_open(lookup) {
            self.queries.remove(&lookup);
            return;
        }
        if ring {
            q.ttl = (q.ttl * 2).min(RING_TTL_CAP);
        }
        q.round += 1;
        q.forwarded.clear();
        let (origin, object, round, ttl) = (q.origin, q.object, q.round, q.ttl);
        self.launch_wave(cx, lookup, origin, object, round, ttl);
        cx.schedule(origin, QUERY_ROUND_GAP, Timer::QueryRound { lookup });
    }

    /// One query hop: a holder answers the origin directly, anyone else
    /// forwards while TTL remains. A walker steps to one random peer
    /// other than the one it came from and keeps no state; the other
    /// strategies forward once per node per round, Plumtree along tree
    /// links (the active view if every link was pruned lazy), FOAF to a
    /// random few, the ring to the whole active view.
    #[expect(clippy::too_many_arguments, reason = "a handler: the message's fields")]
    fn on_query(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        lookup: u64,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
        round: u32,
    ) {
        if self.stores[to.index()].contains(&object) {
            cx.send(to, origin, Class::Reply, Msg::Reply { lookup, hops });
            return;
        }
        if ttl <= 1 {
            return;
        }
        let strategy = self.config.strategy;
        if strategy != LookupStrategy::KRandomWalk
            && !self
                .queries
                .get_mut(&lookup)
                .is_some_and(|q| q.round == round && q.forwarded.insert(to))
        {
            return; // torn down, a stale round, or already forwarded here
        }
        let u = to.index();
        let active = &self.members[u].active;
        let mut targets = std::mem::take(&mut self.sample_scratch);
        match strategy {
            LookupStrategy::KRandomWalk => {
                active.sample_into(1, Some(from), cx.rng(), &mut targets)
            }
            LookupStrategy::Foaf => {
                active.sample_into(FOAF_FANOUT, Some(from), cx.rng(), &mut targets);
                targets.retain(|&p| p != origin);
            }
            LookupStrategy::Plumtree | LookupStrategy::ExpandingRing => {
                let tree = &self.eager[u];
                let links = if strategy == LookupStrategy::Plumtree && !tree.is_empty() {
                    tree
                } else {
                    active
                };
                targets.clear();
                targets.extend(links.iter().filter(|&p| p != from && p != origin));
            }
        }
        for &peer in &targets {
            cx.send(
                to,
                peer,
                Class::Lookup,
                Msg::Query {
                    lookup,
                    origin,
                    object,
                    ttl: ttl - 1,
                    hops: hops + 1,
                    round,
                },
            );
        }
        self.sample_scratch = targets;
    }

    fn complete_lookup(&mut self, cx: &mut Cx<'_>, lookup: u64, hops: u32) {
        cx.complete_lookup(lookup, hops);
        self.queries.remove(&lookup);
    }
}

impl Protocol for Epidemic {
    type Msg = Msg;
    type Timer = Timer;
    /// Each node's converged active and passive views.
    type Parts = Vec<Membership>;
    type Config = EpidemicConfig;

    /// # Panics
    ///
    /// Panics if the configuration is invalid or a view violates its
    /// invariants, names an out-of-range peer, or the wrong owner.
    fn build(members: Vec<Membership>, config: EpidemicConfig) -> Self {
        config.assert_valid();
        let n = members.len();
        let mut eager = Vec::with_capacity(n);
        for (i, m) in members.iter().enumerate() {
            m.assert_invariants();
            assert_eq!(m.owner(), NodeIdx::new(i as u32), "membership {i} owner");
            for peer in m.active.iter().chain(m.passive.iter()) {
                assert!(peer.index() < n, "membership {i} names out-of-range peer");
            }
            // Every active link starts eager; the first broadcast
            // prunes the graph into a tree.
            let mut ev = PartialView::new(m.owner(), config.active_size.max(1));
            for peer in m.active.iter() {
                ev.insert(peer);
            }
            eager.push(ev);
        }
        Epidemic {
            config,
            eager,
            stores: vec![IdSet::new(); n],
            missing: vec![IdMap::new(); n],
            sample_scratch: Vec::new(),
            sample_scratch2: Vec::new(),
            suspicion: vec![FxHashMap::default(); n],
            suspicion_nonempty: vec![0; n.div_ceil(64)],
            pending_shuffles: vec![None; n],
            pending_neighbors: vec![None; n],
            queries: FxHashMap::default(),
            next_token: 0,
            next_lookup: 0,
            ticker: GossipTicker::new(n, config.gossip_period),
            members,
        }
    }

    fn name(&self) -> &'static str {
        match self.config.strategy {
            LookupStrategy::Plumtree => "Plumtree",
            LookupStrategy::Foaf => "FOAF",
            LookupStrategy::KRandomWalk | LookupStrategy::ExpandingRing => "Gossip",
        }
    }

    fn nodes(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn on_event(&mut self, cx: &mut Cx<'_>, ev: Event<Msg, Timer>) {
        match ev {
            Event::Message { from, to, msg } => match msg {
                Msg::Join => self.on_join(cx, from, to),
                Msg::ForwardJoin { joiner, ttl } => self.on_forward_join(cx, from, to, joiner, ttl),
                Msg::Neighbor {
                    token,
                    high_priority,
                } => self.on_neighbor(cx, from, to, token, high_priority),
                Msg::NeighborReply { token, accepted } => {
                    self.on_neighbor_reply(cx, from, to, token, accepted)
                }
                Msg::Disconnect => self.on_disconnect(cx, from, to),
                Msg::Shuffle { token, entries } => self.on_shuffle(cx, from, to, token, entries),
                Msg::ShuffleReply { token, entries } => {
                    self.on_shuffle_reply(cx, from, to, token, entries)
                }
                Msg::Gossip { object, hops } => self.on_gossip_msg(cx, from, to, object, hops),
                Msg::IHave { object } => self.on_ihave(cx, from, to, object),
                Msg::Graft { object } => self.on_graft(cx, from, to, object),
                Msg::Prune => self.on_prune(from, to),
                Msg::StoreWalk {
                    origin,
                    object,
                    ttl,
                } => self.on_store_walk(cx, from, to, origin, object, ttl),
                Msg::Query {
                    lookup,
                    origin,
                    object,
                    ttl,
                    hops,
                    round,
                } => self.on_query(cx, from, to, lookup, origin, object, ttl, hops, round),
                Msg::Reply { lookup, hops } => self.complete_lookup(cx, lookup, hops),
            },
            Event::Timer { node, timer } => match timer {
                Timer::Gossip { epoch } => self.on_gossip_timer(cx, node, epoch),
                Timer::ShuffleTimeout { token } => self.on_shuffle_timeout(cx, node, token),
                Timer::NeighborTimeout { token } => self.on_neighbor_timeout(node, token),
                Timer::GraftRetry { object } => self.on_graft_timer(cx, node, object),
                Timer::QueryRound { lookup } => self.on_query_round(cx, lookup),
            },
        }
    }

    /// Starts an insertion of `object` from `origin`: the announcement
    /// is broadcast down the Plumtree and every node that delivers it
    /// stores the pointer, or, under the walk and ring strategies,
    /// `REPLICATION_WALKS` walks store it where they pass. The origin
    /// itself stores nothing (the paper's engines count remote replicas
    /// only).
    fn insert(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id) {
        match self.config.strategy {
            LookupStrategy::Plumtree | LookupStrategy::Foaf => {
                self.push_announcement(cx, origin, None, object, 1)
            }
            LookupStrategy::KRandomWalk | LookupStrategy::ExpandingRing => {
                let mut first_hops = std::mem::take(&mut self.sample_scratch);
                self.members[origin.index()].active.sample_into(
                    REPLICATION_WALKS,
                    None,
                    cx.rng(),
                    &mut first_hops,
                );
                for &next in &first_hops {
                    let ttl = REPLICATION_TTL;
                    cx.send(
                        origin,
                        next,
                        Class::Insert,
                        Msg::StoreWalk {
                            origin,
                            object,
                            ttl,
                        },
                    );
                }
                self.sample_scratch = first_hops;
            }
        }
    }

    /// Issues a lookup of `object` from `origin` with the given
    /// deadline, using the configured [`LookupStrategy`].
    fn lookup(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id, deadline: SimTime) -> u64 {
        let lookup = self.next_lookup;
        self.next_lookup += 1;
        cx.open_lookup(lookup, deadline);
        if self.stores[origin.index()].contains(&object) {
            self.complete_lookup(cx, lookup, 0);
            return lookup;
        }
        let ttl = match self.config.strategy {
            LookupStrategy::Plumtree => QUERY_TTL,
            LookupStrategy::Foaf => FOAF_TTL,
            LookupStrategy::KRandomWalk => WALK_TTL,
            LookupStrategy::ExpandingRing => 1,
        };
        if self.config.strategy == LookupStrategy::KRandomWalk {
            // Walkers keep no state: launched once, each steps on alone.
            self.launch_wave(cx, lookup, origin, object, 0, ttl);
            return lookup;
        }
        self.queries.insert(
            lookup,
            QueryState {
                origin,
                object,
                round: 0,
                ttl,
                forwarded: FxHashSet::default(),
            },
        );
        self.launch_wave(cx, lookup, origin, object, 0, ttl);
        cx.schedule(origin, QUERY_ROUND_GAP, Timer::QueryRound { lookup });
        lookup
    }

    /// (Re-)joins `joiner` through `bootstrap`: both views collapse,
    /// the bootstrap link opens optimistically, and a JOIN message
    /// triggers FORWARD-JOIN walks that seat the joiner in active and
    /// passive views across the overlay.
    fn join(&mut self, cx: &mut Cx<'_>, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        if joiner == bootstrap {
            return true;
        }
        let u = joiner.index();
        self.members[u].active.clear();
        self.members[u].passive.clear();
        self.eager[u].clear();
        self.missing[u].clear();
        self.suspicion[u].clear();
        self.sync_suspicion_bit(joiner);
        self.pending_neighbors[u] = None;
        if let Some(stale) = self.pending_shuffles[u].take() {
            let _ = stale; // its reply/timeout will fail the token match
        }
        self.add_active(cx, joiner, bootstrap, true);
        cx.send(joiner, bootstrap, Class::Maintenance, Msg::Join);
        true
    }

    /// Starts the periodic shuffle/repair timers, staggered uniformly
    /// over one gossip period.
    fn start_maintenance(&mut self, cx: &mut Cx<'_>) -> bool {
        self.ticker.start(cx);
        true
    }

    fn availability_changed(&mut self, cx: &mut Cx<'_>) {
        self.ticker.rearm(cx);
    }

    fn order_tick(batch: &mut [Event<Msg, Timer>]) {
        restore_tick_order(batch);
    }

    fn holds(&self, node: NodeIdx, object: Id) -> bool {
        self.stores[node.index()].contains(&object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::build_converged_membership;
    use mpil_sim::{
        AlwaysOn, ConstantLatency, Counters, Flapping, FlappingConfig, LookupOutcome, SimDuration,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(n: usize, config: EpidemicConfig, seed: u64) -> EpidemicSim {
        let mut rng = SmallRng::seed_from_u64(seed);
        let members =
            build_converged_membership(n, config.active_size, config.passive_size, &mut rng);
        EpidemicSim::new(
            members,
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(20))),
            seed,
        )
    }

    #[test]
    fn announcements_reach_nearly_everyone() {
        let mut sim = build(100, EpidemicConfig::default(), 1);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..5 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(0), object);
            sim.run_to_quiescence();
            let holders = sim.replica_holders(object);
            assert!(
                holders.len() >= 99,
                "broadcast reached only {} of 99 remote nodes",
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
    fn repeated_broadcasts_prune_the_eager_graph_to_a_tree() {
        let n = 100;
        let mut sim = build(n, EpidemicConfig::default(), 2);
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..2 {
            sim.insert(NodeIdx::new(0), Id::random(&mut rng));
            sim.run_to_quiescence();
        }
        // A connected broadcast from one root prunes eager links down
        // to a spanning tree: directed eager degree sums to 2(n-1).
        let eager_links: usize = sim.eager.iter().map(PartialView::len).sum();
        assert_eq!(eager_links, 2 * (n - 1), "eager graph is not a tree");
        // The tree then carries one eager copy per remote node.
        let before = sim.counters().insert_messages;
        sim.insert(NodeIdx::new(0), Id::random(&mut rng));
        sim.run_to_quiescence();
        let active_links: usize = sim.members.iter().map(|m| m.active.len()).sum();
        let spent = (sim.counters().insert_messages - before) as usize;
        // n-1 eager pushes plus one IHAVE per lazy link.
        assert_eq!(spent, (n - 1) + (active_links - eager_links));
    }

    #[test]
    fn plumtree_lookups_succeed_in_a_handful_of_messages() {
        let mut sim = build(100, EpidemicConfig::default(), 3);
        let mut rng = SmallRng::seed_from_u64(11);
        let objects: Vec<Id> = (0..20).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let lookup_base = sim.counters().lookup_messages;
        let deadline = sim.now() + SimDuration::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(0), o, deadline))
            .collect();
        sim.run_to_quiescence();
        for h in handles {
            assert!(sim.lookup_outcome(h).is_success(), "lookup {h} failed");
        }
        let spent = sim.counters().lookup_messages - lookup_base;
        // One wave of at most active_size queries per lookup; every
        // neighbor holds the pointer, so nothing forwards.
        assert!(
            spent <= 20 * sim.config().active_size as u64,
            "plumtree lookups flooded: {spent} msgs for 20 lookups"
        );
        assert!(sim.counters().reply_messages > 0);
    }

    #[test]
    fn foaf_lookups_succeed_on_a_quiet_network() {
        let config = EpidemicConfig::default().with_strategy(LookupStrategy::Foaf);
        let mut sim = build(100, config, 4);
        let mut rng = SmallRng::seed_from_u64(12);
        let objects: Vec<Id> = (0..20).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let deadline = sim.now() + SimDuration::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(0), o, deadline))
            .collect();
        sim.run_to_quiescence();
        let ok = handles
            .iter()
            .filter(|&&h| sim.lookup_outcome(h).is_success())
            .count();
        assert!(ok >= 19, "only {ok}/20 foaf lookups succeeded");
    }

    #[test]
    fn absent_object_fails_without_wedging() {
        for strategy in [LookupStrategy::Plumtree, LookupStrategy::Foaf] {
            let mut sim = build(50, EpidemicConfig::default().with_strategy(strategy), 5);
            let h = sim.issue_lookup(
                NodeIdx::new(1),
                Id::from_low_u64(0xdead),
                sim.now() + SimDuration::from_secs(60),
            );
            sim.run_to_quiescence();
            assert!(!sim.lookup_outcome(h).is_success(), "{strategy:?}");
        }
    }

    #[test]
    fn local_holder_succeeds_in_zero_hops() {
        let mut sim = build(30, EpidemicConfig::default(), 6);
        let object = Id::from_low_u64(7);
        sim.with(|epidemic, _| epidemic.stores[2].insert(object));
        let h = sim.issue_lookup(
            NodeIdx::new(2),
            object,
            sim.now() + SimDuration::from_secs(10),
        );
        assert!(matches!(
            sim.lookup_outcome(h),
            LookupOutcome::Succeeded { hops: 0, .. }
        ));
    }

    #[test]
    fn loss_triggers_graft_repair() {
        let mut sim = build(100, EpidemicConfig::default(), 7);
        sim.set_loss_probability(0.25);
        let mut rng = SmallRng::seed_from_u64(13);
        let objects: Vec<Id> = (0..5).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
            sim.run_to_quiescence();
        }
        for &o in &objects {
            assert!(
                sim.replica_count(o) >= 85,
                "lazy repair left only {} replicas under 25% loss",
                sim.replica_count(o)
            );
        }
    }

    #[test]
    fn maintenance_shuffles_run_and_views_stay_legal() {
        let mut sim = build(60, EpidemicConfig::default(), 8);
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(120));
        assert!(sim.counters().maintenance_messages > 0);
        assert_eq!(sim.counters().failure_declarations, 0);
        sim.assert_invariants();
    }

    #[test]
    fn suspicion_evicts_and_reactively_replaces() {
        let mut sim = build(40, EpidemicConfig::default(), 9);
        sim.start_maintenance();
        // Half the overlay goes offline essentially forever.
        let mut rng = SmallRng::seed_from_u64(99);
        let cfg = FlappingConfig {
            idle: SimDuration::from_micros(1),
            offline: SimDuration::from_secs(1_000_000),
            probability: 0.5,
            start: SimTime::ZERO,
        };
        let mut flap = Flapping::new(cfg, 40, 77, &mut rng);
        flap.exempt(NodeIdx::new(0));
        sim.set_availability(Box::new(flap));
        sim.run_until(SimTime::from_secs(300));
        assert!(
            sim.counters().failure_declarations > 0,
            "dead peers must age out of active views"
        );
        // Reactive replacement kept the exempt node's active view
        // populated even though some of its original peers died.
        assert!(
            !sim.membership(NodeIdx::new(0)).active.is_empty(),
            "reactive replacement left node 0 isolated"
        );
        sim.assert_invariants();
    }

    #[test]
    fn suspicion_resets_when_a_peer_leaves_the_view() {
        // SUSPICION_LIMIT counts *consecutive* misses while the peer
        // stays in the active view: a strike must not survive the peer
        // leaving it (else a re-admitted peer dies after one miss).
        let mut sim = build(30, EpidemicConfig::default(), 15);
        let u = NodeIdx::new(0);
        let peer = sim.members[0].active.peers()[0];
        let absent = (1..30u32)
            .map(NodeIdx::new)
            .find(|&p| !sim.members[0].active.contains(p))
            .expect("an active view of 5 leaves someone out");
        // A strike against an active peer is dropped with the link...
        sim.with(|epidemic, _| {
            epidemic.suspicion[0].insert(peer, 1);
            epidemic.sync_suspicion_bit(u);
            epidemic.drop_active(u, peer);
        });
        assert!(sim.suspicion[0].is_empty(), "strike survived the link");
        assert!(!sim.has_suspicion(u));
        // ...and a shuffle timeout for a departed target strikes nobody.
        sim.with(|epidemic, cx| {
            epidemic.pending_shuffles[0] = Some(PendingShuffle {
                token: 999,
                target: absent,
            });
            epidemic.on_shuffle_timeout(cx, u, 999);
        });
        assert!(sim.suspicion[0].is_empty(), "departed peer was struck");
        assert_eq!(sim.counters().failure_declarations, 0);
    }

    #[test]
    fn message_plane_footprint_is_pinned() {
        // The wheel copies queued events on every cascade: a variant that
        // outgrows the inline shuffle payload would grow them all. A
        // `PartialView` is a row of the views table every shuffle reads.
        assert_eq!(std::mem::size_of::<Msg>(), 48);
        assert_eq!(std::mem::size_of::<Timer>(), 24);
        assert_eq!(std::mem::size_of::<PartialView>(), 56);
    }

    #[test]
    fn join_rebuilds_symmetric_links_through_the_bootstrap() {
        let mut sim = build(30, EpidemicConfig::default(), 10);
        sim.join(NodeIdx::new(5), NodeIdx::new(0));
        assert_eq!(
            sim.membership(NodeIdx::new(5)).active.peers(),
            vec![NodeIdx::new(0)]
        );
        sim.run_to_quiescence();
        let m = sim.membership(NodeIdx::new(5));
        assert!(m.active.contains(NodeIdx::new(0)), "bootstrap link kept");
        assert!(
            sim.membership(NodeIdx::new(0))
                .active
                .contains(NodeIdx::new(5)),
            "bootstrap side of the link is missing"
        );
        assert!(
            m.active.len() > 1 || !m.passive.is_empty(),
            "forward-join walks seated the joiner nowhere"
        );
        m.assert_invariants();
        // No other pinned count drives a join (ARWL and PRWL are read
        // on its walks alone): hold its sends and its seats exactly.
        let sorted = |view: &PartialView| {
            let mut peers = view.peers();
            peers.sort_unstable();
            peers
        };
        assert_eq!(
            sim.counters(),
            Counters {
                maintenance_messages: 28,
                total_messages: 28,
                ..Counters::default()
            }
        );
        assert_eq!(
            (sorted(&m.active), sorted(&m.passive)),
            ([0, 2, 3, 10].map(NodeIdx::new).to_vec(), vec![])
        );
        // Self-join is a no-op.
        sim.join(NodeIdx::new(5), NodeIdx::new(5));
    }

    #[test]
    fn fixed_seed_runs_reproduce_exactly() {
        let run = |seed: u64, strategy: LookupStrategy| {
            let mut sim = build(70, EpidemicConfig::default().with_strategy(strategy), seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 1);
            let objects: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
            for &o in &objects {
                sim.insert(NodeIdx::new(0), o);
            }
            sim.run_to_quiescence();
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
            let mut outcomes = Vec::new();
            for &o in &objects {
                sim.run_until(sim.now() + SimDuration::from_secs(60));
                let h =
                    sim.issue_lookup(NodeIdx::new(0), o, sim.now() + SimDuration::from_secs(60));
                outcomes.push(h);
            }
            sim.run_until(sim.now() + SimDuration::from_secs(90));
            let results: Vec<LookupOutcome> =
                outcomes.iter().map(|&h| sim.lookup_outcome(h)).collect();
            (results, sim.counters(), sim.net_stats())
        };
        for strategy in [LookupStrategy::Plumtree, LookupStrategy::Foaf] {
            assert_eq!(run(21, strategy), run(21, strategy), "{strategy:?}");
        }
    }

    #[test]
    fn lookups_hold_under_heavy_flapping() {
        let mut sim = build(100, EpidemicConfig::default(), 12);
        let mut rng = SmallRng::seed_from_u64(15);
        let objects: Vec<Id> = (0..10).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        sim.start_maintenance();
        let mut flap_rng = SmallRng::seed_from_u64(16);
        let mut flap = Flapping::new(
            FlappingConfig::idle_offline_secs(30, 30, 0.9).starting_at(sim.now()),
            100,
            17,
            &mut flap_rng,
        );
        flap.exempt(NodeIdx::new(0));
        sim.set_availability(Box::new(flap));
        let mut handles = Vec::new();
        for &o in &objects {
            sim.run_until(sim.now() + SimDuration::from_secs(60));
            handles.push(sim.issue_lookup(
                NodeIdx::new(0),
                o,
                sim.now() + SimDuration::from_secs(60),
            ));
        }
        sim.run_until(sim.now() + SimDuration::from_secs(90));
        let ok = handles
            .iter()
            .filter(|&&h| sim.lookup_outcome(h).is_success())
            .count();
        assert!(
            ok >= 9,
            "only {ok}/10 plumtree lookups survived p=0.9 flapping"
        );
    }
}
