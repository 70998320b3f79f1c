//! The event-driven gossip simulation.
//!
//! An unstructured/epidemic substrate on the [`mpil_sim`] kernel, the
//! fifth engine behind the harness's `DiscoveryEngine` lifecycle:
//!
//! * **Membership** — bounded partial views ([`crate::PartialView`])
//!   maintained by periodic Cyclon-style push-pull shuffles (swap
//!   semantics, age-based selection) with SWIM-style suspicion: a peer
//!   that misses [`GossipConfig::suspicion_limit`] consecutive shuffle
//!   replies is evicted, so churned nodes age out of every view.
//! * **Replication** — inserts launch a few random walks that deposit
//!   the object pointer at every node they visit.
//! * **Lookup** — either `k` independent TTL-bounded random walks
//!   (Lv et al., Ferretti) or expanding-ring flooding with doubling
//!   scope, both replying directly to the origin on a hit.
//!
//! Like MPIL, the engine is ID-agnostic: no distance metric, no key
//! space — only exact pointer matches at visited nodes. All randomness
//! flows through the kernel RNG, so fixed seeds reproduce exactly.

use fxhash::{FxHashMap, FxHashSet};
use mpil_id::{Id, IdSet};
use mpil_overlay::NodeIdx;
use mpil_sim::{Counters, Event, NetStats, PayloadBuf, Protocol, Sim, SimTime};

use crate::config::{GossipConfig, LookupStrategy};
use crate::ticker::{restore_tick_order, GossipTicker};
use crate::view::PartialView;

/// A shuffle's peer list, inline up to [`mpil_sim::PAYLOAD_INLINE`]
/// entries and spilled to the kernel's [`mpil_sim::PayloadPool`] past
/// that. Default configurations exchange at most `shuffle_len + 1 = 5`
/// peers, so the steady-state message plane never allocates — and the
/// inline capacity keeps `Msg` on the 48-byte footprint of its walk
/// variants, so queued events grew by nothing. Walk and replication
/// payloads are fixed-size scalars and need no buffer at all.
type Peers = PayloadBuf<NodeIdx, { mpil_sim::PAYLOAD_INLINE }>;

/// What Cyclon nodes send each other (public only as
/// [`Protocol::Msg`]).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// Push half of a shuffle: the initiator's sample, itself included
    /// fresh.
    ShufflePush { token: u64, entries: Peers },
    /// Pull half: the responder's sample.
    ShufflePull { token: u64, entries: Peers },
    /// A replication walk: store, decrement, forward.
    StoreWalk { object: Id, ttl: u32 },
    /// One random-walk lookup step.
    WalkQuery {
        lookup: u64,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
    },
    /// One expanding-ring flood step.
    FloodQuery {
        lookup: u64,
        round: u32,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
    },
    /// Direct positive reply from a replica holder to the origin.
    Reply { lookup: u64, hops: u32 },
}

/// What a Cyclon node's timer carries (public only as
/// [`Protocol::Timer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Timer {
    /// Periodic per-node shuffle. Fires only on grid points the arming
    /// scan considered live; `epoch` ties the fire to the availability
    /// model it was armed under (see [`GossipTicker`]).
    Gossip {
        /// The ticker's epoch at arm time.
        epoch: u32,
    },
    /// The pull half of shuffle `token` did not arrive in time.
    ShuffleTimeout { token: u64 },
    /// Time to widen the expanding ring for `lookup`.
    RingRound { lookup: u64 },
}

type Cx<'a> = mpil_sim::Cx<'a, Gossip>;

fn gossip_timer(epoch: u32) -> Timer {
    Timer::Gossip { epoch }
}

/// An initiator's outstanding shuffle. Stored in a per-node slab
/// (`pending_shuffles[initiator]`): the shuffle timeout is shorter than
/// the gossip period, so a node has at most one shuffle in flight and
/// the slab replaces a token-keyed hash map on the hottest delivery
/// path. The token survives as a staleness check — a late pull or an
/// already-answered timeout simply fails the token match.
#[derive(Debug, Clone)]
struct PendingShuffle {
    token: u64,
    target: NodeIdx,
    sent: Peers,
}

#[derive(Debug)]
struct RingState {
    origin: NodeIdx,
    object: Id,
    round: u32,
    ttl: u32,
    /// Nodes that already forwarded the current round (per-round
    /// duplicate suppression).
    forwarded: FxHashSet<NodeIdx>,
}

/// Counters split by traffic class (comparable to the DHT baselines and
/// MPIL through the harness's unified `Counters`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Walk/flood query transmissions sent by lookups.
    pub lookup_messages: u64,
    /// Replication-walk transmissions sent by inserts.
    pub insert_messages: u64,
    /// Direct replica-holder replies.
    pub reply_messages: u64,
    /// Shuffle pushes and pulls (the membership layer's entire cost).
    pub maintenance_messages: u64,
    /// Peers evicted from a view after repeated shuffle timeouts.
    pub failure_declarations: u64,
}

impl GossipStats {
    /// Everything the overlay sent (each class counts exactly one
    /// kernel send, so this equals the kernel's send counter).
    pub fn total_messages(&self) -> u64 {
        self.lookup_messages
            + self.insert_messages
            + self.reply_messages
            + self.maintenance_messages
    }
}

/// The Cyclon-style gossip protocol: every node's partial view and
/// pointer store, and the handlers that drive them. Runs inside a
/// [`GossipSim`].
pub struct Gossip {
    config: GossipConfig,
    views: Vec<PartialView>,
    stores: Vec<IdSet>,
    /// Reusable draw buffer for [`PartialView::sample_into`]: walks and
    /// shuffles fire millions of times per run and must not allocate.
    sample_scratch: Vec<NodeIdx>,
    /// Consecutive failed shuffles per (node, peer).
    suspicion: Vec<FxHashMap<NodeIdx, u32>>,
    /// One bit per node: is `suspicion[node]` non-empty? Suspicion maps
    /// are empty for all but recently-missed peers, yet the alive-again
    /// wipe runs on every shuffle delivery — the bitmap (a few KiB even
    /// at 100k nodes, so cache-resident) answers the common "nothing to
    /// wipe" case without touching the map spine.
    suspicion_nonempty: Vec<u64>,
    /// Outstanding shuffle per initiator (see [`PendingShuffle`]).
    pending_shuffles: Vec<Option<PendingShuffle>>,
    rings: FxHashMap<u64, RingState>,
    next_token: u64,
    next_lookup: u64,
    ticker: GossipTicker,
    stats: GossipStats,
}

/// The epidemic/unstructured overlay simulation.
///
/// Drive it like every other engine: build converged views
/// ([`crate::build_converged_views`]) and hand them to [`Sim::new`],
/// insert on the quiet network, start maintenance, swap in a perturbed
/// availability model, then issue lookups and run the clock.
pub type GossipSim = Sim<Gossip>;

impl Gossip {
    /// Protocol counters.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Read access to a node's partial view (tests, diagnostics).
    pub fn view(&self, node: NodeIdx) -> &PartialView {
        &self.views[node.index()]
    }

    /// Each node's current view frozen as a neighbor list — the overlay
    /// MPIL routes on in the overlay-independence experiments.
    pub fn neighbor_lists(&self) -> Vec<Vec<NodeIdx>> {
        self.views.iter().map(|v| v.peers()).collect()
    }

    // --- membership -----------------------------------------------------------

    fn initiate_shuffle(&mut self, cx: &mut Cx<'_>, node: NodeIdx, target: NodeIdx) {
        self.views[node.index()].sample_into(
            self.config.shuffle_len.saturating_sub(1),
            Some(target),
            cx.rng(),
            &mut self.sample_scratch,
        );
        let mut entries = Peers::new();
        entries.push(node, cx.payload_pool());
        entries.extend_from_slice(&self.sample_scratch, cx.payload_pool());
        let token = self.next_token;
        self.next_token += 1;
        // The bookkeeping copy stays inline (or draws its spill from the
        // pool), so the old `entries.clone()` heap hit is gone.
        let sent = entries.clone_in(cx.payload_pool());
        let fresh = PendingShuffle {
            token,
            target,
            sent,
        };
        if let Some(old) = self.pending_shuffles[node.index()].replace(fresh) {
            // Only a re-join inside the timeout window gets here: the
            // superseded shuffle's pull (if any) is now stale.
            old.sent.recycle(cx.payload_pool());
        }
        self.stats.maintenance_messages += 1;
        cx.send(node, target, Msg::ShufflePush { token, entries });
        cx.schedule(
            node,
            self.config.shuffle_timeout,
            Timer::ShuffleTimeout { token },
        );
    }

    fn on_gossip_timer(&mut self, cx: &mut Cx<'_>, node: NodeIdx, epoch: u32) {
        // A fire from a chain armed before an availability swap: the
        // swap re-armed every node under the new model, so this chain
        // is superseded and must do nothing (not even re-arm).
        if !self.ticker.is_current(epoch) {
            return;
        }
        // Offline nodes skip the round but keep the timer armed, like
        // the DHT baselines' maintenance. The arming scan pre-skips
        // offline grid points, so an offline fire only happens when the
        // scan hit [`MAX_GOSSIP_SKIP`] — and behaves identically.
        if cx.is_online(node) {
            self.views[node.index()].age_all();
            if let Some(target) = self.views[node.index()].oldest() {
                self.initiate_shuffle(cx, node, target);
            }
        }
        self.ticker.arm_next(cx, node, gossip_timer);
    }

    fn on_shuffle_push(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        entries: Peers,
    ) {
        self.views[to.index()].sample_into(
            self.config.shuffle_len,
            Some(from),
            cx.rng(),
            &mut self.sample_scratch,
        );
        self.stats.maintenance_messages += 1;
        // The pull reply copies the scratch draw straight into an inline
        // buffer — this was the `sample_scratch.clone()` heap hit.
        let mut reply = Peers::new();
        reply.extend_from_slice(&self.sample_scratch, cx.payload_pool());
        cx.send(
            to,
            from,
            Msg::ShufflePull {
                token,
                entries: reply,
            },
        );
        self.views[to.index()].merge(entries.as_slice(), &self.sample_scratch);
        entries.recycle(cx.payload_pool());
        // Hearing a push is direct evidence the initiator is alive. The
        // empty-map guard matters: suspicion maps are empty for all but
        // recently-failed peers, and this runs on every delivery.
        if self.has_suspicion(to) {
            self.suspicion[to.index()].remove(&from);
            self.prune_suspicion(to);
            self.sync_suspicion_bit(to);
        }
    }

    fn on_shuffle_pull(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        token: u64,
        entries: Peers,
    ) {
        let slot = &mut self.pending_shuffles[to.index()];
        if slot.as_ref().is_none_or(|p| p.token != token) {
            entries.recycle(cx.payload_pool());
            return; // late pull after the timeout already fired
        }
        let pending = slot.take().expect("token matched above");
        debug_assert_eq!(pending.target, from);
        self.views[to.index()].merge(entries.as_slice(), pending.sent.as_slice());
        entries.recycle(cx.payload_pool());
        pending.sent.recycle(cx.payload_pool());
        if self.has_suspicion(to) {
            self.suspicion[to.index()].remove(&from);
            self.prune_suspicion(to);
            self.sync_suspicion_bit(to);
        }
    }

    /// Reads the cached "does `node` hold any strikes?" bit.
    fn has_suspicion(&self, node: NodeIdx) -> bool {
        let u = node.index();
        self.suspicion_nonempty[u / 64] >> (u % 64) & 1 != 0
    }

    /// Re-syncs the cached bit after any mutation of `suspicion[node]`.
    fn sync_suspicion_bit(&mut self, node: NodeIdx) {
        let u = node.index();
        let bit = 1u64 << (u % 64);
        if self.suspicion[u].is_empty() {
            self.suspicion_nonempty[u / 64] &= !bit;
        } else {
            self.suspicion_nonempty[u / 64] |= bit;
        }
    }

    /// Drops strikes against peers no longer in `node`'s view. A merge
    /// can swap a suspected peer out; if it is later re-admitted it
    /// must start with a clean slate — `suspicion_limit` counts
    /// *consecutive* misses while the peer stays in the view, and
    /// strikes for departed peers must not accumulate as garbage.
    fn prune_suspicion(&mut self, node: NodeIdx) {
        let view = &self.views[node.index()];
        #[expect(
            clippy::disallowed_methods,
            reason = "D003: per-entry membership predicate; visit order cannot change the surviving set"
        )]
        self.suspicion[node.index()].retain(|&peer, _| view.contains(peer));
    }

    fn on_shuffle_timeout(&mut self, cx: &mut Cx<'_>, initiator: NodeIdx, token: u64) {
        let slot = &mut self.pending_shuffles[initiator.index()];
        if slot.as_ref().is_none_or(|p| p.token != token) {
            return; // the pull arrived in time (or the shuffle was superseded)
        }
        let PendingShuffle { target, sent, .. } = slot.take().expect("token matched above");
        sent.recycle(cx.payload_pool());
        let u = initiator.index();
        if !self.views[u].contains(target) {
            // The peer was merged out while the shuffle was in flight;
            // its slate is clean if it ever comes back.
            self.suspicion[u].remove(&target);
            self.sync_suspicion_bit(initiator);
            return;
        }
        let strikes = self.suspicion[u].entry(target).or_insert(0);
        *strikes += 1;
        if *strikes >= self.config.suspicion_limit {
            self.suspicion[u].remove(&target);
            if self.views[u].remove(target) {
                self.stats.failure_declarations += 1;
            }
        }
        self.sync_suspicion_bit(initiator);
    }

    // --- replication and lookup ----------------------------------------------

    fn on_store_walk(&mut self, cx: &mut Cx<'_>, from: NodeIdx, to: NodeIdx, object: Id, ttl: u32) {
        self.stores[to.index()].insert(object);
        if ttl <= 1 {
            return;
        }
        self.views[to.index()].sample_into(1, Some(from), cx.rng(), &mut self.sample_scratch);
        if let Some(&next) = self.sample_scratch.first() {
            self.stats.insert_messages += 1;
            cx.send(
                to,
                next,
                Msg::StoreWalk {
                    object,
                    ttl: ttl - 1,
                },
            );
        }
    }

    #[expect(clippy::too_many_arguments, reason = "a handler: the message's fields")]
    fn on_walk_query(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        lookup: u64,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
    ) {
        if self.stores[to.index()].contains(&object) {
            self.stats.reply_messages += 1;
            cx.send(to, origin, Msg::Reply { lookup, hops });
            return; // the walk stops at a holder
        }
        if ttl <= 1 {
            return;
        }
        self.views[to.index()].sample_into(1, Some(from), cx.rng(), &mut self.sample_scratch);
        if let Some(&next) = self.sample_scratch.first() {
            self.stats.lookup_messages += 1;
            cx.send(
                to,
                next,
                Msg::WalkQuery {
                    lookup,
                    origin,
                    object,
                    ttl: ttl - 1,
                    hops: hops + 1,
                },
            );
        }
    }

    /// Launches one flood round for `lookup` at its current TTL.
    fn flood_round(&mut self, cx: &mut Cx<'_>, lookup: u64) {
        let Some(ring) = self.rings.get_mut(&lookup) else {
            return;
        };
        ring.forwarded.clear();
        let origin = ring.origin;
        let object = ring.object;
        let round = ring.round;
        let ttl = ring.ttl;
        for e in self.views[origin.index()].iter() {
            self.stats.lookup_messages += 1;
            cx.send(
                origin,
                e.peer,
                Msg::FloodQuery {
                    lookup,
                    round,
                    origin,
                    object,
                    ttl,
                    hops: 1,
                },
            );
        }
    }

    #[expect(clippy::too_many_arguments, reason = "a handler: the message's fields")]
    fn on_flood_query(
        &mut self,
        cx: &mut Cx<'_>,
        from: NodeIdx,
        to: NodeIdx,
        lookup: u64,
        round: u32,
        origin: NodeIdx,
        object: Id,
        ttl: u32,
        hops: u32,
    ) {
        if self.stores[to.index()].contains(&object) {
            self.stats.reply_messages += 1;
            cx.send(to, origin, Msg::Reply { lookup, hops });
            return;
        }
        if ttl <= 1 {
            return;
        }
        let Some(ring) = self.rings.get_mut(&lookup) else {
            return; // the ring was torn down (reply arrived or gave up)
        };
        if ring.round != round || !ring.forwarded.insert(to) {
            return; // stale round, or this node already forwarded it
        }
        for e in self.views[to.index()].iter() {
            let next = e.peer;
            if next == from {
                continue;
            }
            self.stats.lookup_messages += 1;
            cx.send(
                to,
                next,
                Msg::FloodQuery {
                    lookup,
                    round,
                    origin,
                    object,
                    ttl: ttl - 1,
                    hops: hops + 1,
                },
            );
        }
    }

    fn on_ring_round(&mut self, cx: &mut Cx<'_>, lookup: u64) {
        let Some(ring) = self.rings.get_mut(&lookup) else {
            return;
        };
        let max_ttl = self.config.ttl;
        if !cx.lookup_is_open(lookup) || ring.ttl >= max_ttl {
            self.rings.remove(&lookup);
            return;
        }
        ring.ttl = (ring.ttl * 2).min(max_ttl);
        ring.round += 1;
        let origin = ring.origin;
        self.flood_round(cx, lookup);
        cx.schedule(
            origin,
            self.config.ring_round_gap,
            Timer::RingRound { lookup },
        );
    }

    fn complete_lookup(&mut self, cx: &mut Cx<'_>, lookup: u64, hops: u32) {
        cx.complete_lookup(lookup, hops);
        self.rings.remove(&lookup);
    }
}

impl Protocol for Gossip {
    type Msg = Msg;
    type Timer = Timer;
    /// Each node's converged partial view.
    type Parts = Vec<PartialView>;
    type Config = GossipConfig;

    /// # Panics
    ///
    /// Panics if the configuration is invalid or a view names its owner
    /// or an out-of-range peer.
    fn build(views: Vec<PartialView>, config: GossipConfig) -> Self {
        config.assert_valid();
        let n = views.len();
        for (i, v) in views.iter().enumerate() {
            v.assert_invariants();
            assert_eq!(v.owner(), NodeIdx::new(i as u32), "view {i} owner");
            for e in v.iter() {
                assert!(e.peer.index() < n, "view {i} names out-of-range peer");
            }
        }
        Gossip {
            config,
            stores: vec![IdSet::new(); n],
            suspicion: vec![FxHashMap::default(); n],
            suspicion_nonempty: vec![0; n.div_ceil(64)],
            pending_shuffles: vec![None; n],
            sample_scratch: Vec::new(),
            rings: FxHashMap::default(),
            next_token: 0,
            next_lookup: 0,
            ticker: GossipTicker::new(n, config.gossip_period),
            stats: GossipStats::default(),
            views,
        }
    }

    fn name(&self) -> &'static str {
        "Gossip"
    }

    fn nodes(&self) -> usize {
        self.views.len()
    }

    #[inline]
    fn on_event(&mut self, cx: &mut Cx<'_>, ev: Event<Msg, Timer>) {
        match ev {
            Event::Message { from, to, msg } => match msg {
                Msg::ShufflePush { token, entries } => {
                    self.on_shuffle_push(cx, from, to, token, entries)
                }
                Msg::ShufflePull { token, entries } => {
                    self.on_shuffle_pull(cx, from, to, token, entries)
                }
                Msg::StoreWalk { object, ttl } => self.on_store_walk(cx, from, to, object, ttl),
                Msg::WalkQuery {
                    lookup,
                    origin,
                    object,
                    ttl,
                    hops,
                } => self.on_walk_query(cx, from, to, lookup, origin, object, ttl, hops),
                Msg::FloodQuery {
                    lookup,
                    round,
                    origin,
                    object,
                    ttl,
                    hops,
                } => self.on_flood_query(cx, from, to, lookup, round, origin, object, ttl, hops),
                Msg::Reply { lookup, hops } => self.complete_lookup(cx, lookup, hops),
            },
            Event::Timer { node, timer } => match timer {
                Timer::Gossip { epoch } => self.on_gossip_timer(cx, node, epoch),
                Timer::ShuffleTimeout { token } => self.on_shuffle_timeout(cx, node, token),
                Timer::RingRound { lookup } => self.on_ring_round(cx, lookup),
            },
        }
    }

    /// Starts an insertion of `object` from `origin`: replication walks
    /// deposit the pointer at every node they visit. The origin itself
    /// stores nothing (the paper's engines count remote replicas only).
    fn insert(&mut self, cx: &mut Cx<'_>, origin: NodeIdx, object: Id) {
        let walkers = self.config.replication_walkers;
        let ttl = self.config.replication_ttl;
        let mut first_hops = std::mem::take(&mut self.sample_scratch);
        self.views[origin.index()].sample_into(walkers, None, cx.rng(), &mut first_hops);
        for &next in &first_hops {
            self.stats.insert_messages += 1;
            cx.send(origin, next, Msg::StoreWalk { object, ttl });
        }
        self.sample_scratch = first_hops;
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
        match self.config.strategy {
            LookupStrategy::KRandomWalk => {
                let mut first_hops = std::mem::take(&mut self.sample_scratch);
                self.views[origin.index()].sample_into(
                    self.config.walkers,
                    None,
                    cx.rng(),
                    &mut first_hops,
                );
                for &next in &first_hops {
                    self.stats.lookup_messages += 1;
                    cx.send(
                        origin,
                        next,
                        Msg::WalkQuery {
                            lookup,
                            origin,
                            object,
                            ttl: self.config.ttl,
                            hops: 1,
                        },
                    );
                }
                self.sample_scratch = first_hops;
            }
            LookupStrategy::ExpandingRing => {
                self.rings.insert(
                    lookup,
                    RingState {
                        origin,
                        object,
                        round: 0,
                        ttl: 1,
                        forwarded: FxHashSet::default(),
                    },
                );
                self.flood_round(cx, lookup);
                cx.schedule(
                    origin,
                    self.config.ring_round_gap,
                    Timer::RingRound { lookup },
                );
            }
            LookupStrategy::Plumtree | LookupStrategy::Foaf => {
                // GossipConfig::assert_valid (checked in new) rejects
                // the tree strategies for the Cyclon engine.
                unreachable!("tree strategies run on EpidemicSim")
            }
        }
        lookup
    }

    /// (Re-)joins `joiner` through `bootstrap`: the view collapses to
    /// the bootstrap peer and an immediate shuffle pulls in a fresh
    /// sample; subsequent gossip rounds re-diversify it.
    fn join(&mut self, cx: &mut Cx<'_>, joiner: NodeIdx, bootstrap: NodeIdx) -> bool {
        if joiner == bootstrap {
            return true;
        }
        self.views[joiner.index()].clear();
        self.views[joiner.index()].insert_fresh(bootstrap);
        self.suspicion[joiner.index()].clear();
        self.sync_suspicion_bit(joiner);
        self.initiate_shuffle(cx, joiner, bootstrap);
        true
    }

    /// Starts the periodic shuffle timers, staggered uniformly over one
    /// gossip period.
    fn start_maintenance(&mut self, cx: &mut Cx<'_>) -> bool {
        self.ticker.start(cx, gossip_timer);
        true
    }

    fn availability_changed(&mut self, cx: &mut Cx<'_>) {
        self.ticker.rearm(cx, gossip_timer);
    }

    fn order_tick(batch: &mut [Event<Msg, Timer>]) {
        restore_tick_order(batch, |timer| matches!(timer, Timer::Gossip { .. }));
    }

    fn holds(&self, node: NodeIdx, object: Id) -> bool {
        self.stores[node.index()].contains(&object)
    }

    fn counters(&self, _net: &NetStats) -> Counters {
        let s = self.stats;
        Counters {
            lookup_messages: s.lookup_messages,
            insert_messages: s.insert_messages,
            reply_messages: s.reply_messages,
            maintenance_messages: s.maintenance_messages,
            total_messages: s.total_messages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::build_converged_views;
    use mpil_sim::{
        AlwaysOn, ConstantLatency, Flapping, FlappingConfig, LookupOutcome, SimDuration,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn build(n: usize, config: GossipConfig, seed: u64) -> GossipSim {
        let mut rng = SmallRng::seed_from_u64(seed);
        let views = build_converged_views(n, config.view_size, &mut rng);
        GossipSim::new(
            views,
            config,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(20))),
            seed,
        )
    }

    #[test]
    fn insert_deposits_remote_replicas() {
        let mut sim = build(100, GossipConfig::default(), 1);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..5 {
            let object = Id::random(&mut rng);
            sim.insert(NodeIdx::new(0), object);
            sim.run_to_quiescence();
            let holders = sim.replica_holders(object);
            assert!(
                holders.len() >= sim.config().replication_walkers,
                "walks deposit at least one replica each, got {}",
                holders.len()
            );
            assert!(
                !holders.contains(&NodeIdx::new(0)),
                "origin stores remotely"
            );
        }
        assert!(sim.stats().insert_messages > 0);
        assert_eq!(sim.stats().lookup_messages, 0);
    }

    #[test]
    fn quiet_network_walk_lookups_succeed() {
        let mut sim = build(100, GossipConfig::default(), 2);
        let mut rng = SmallRng::seed_from_u64(10);
        let objects: Vec<Id> = (0..20).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let deadline = sim.now() + SimDuration::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(50), o, deadline))
            .collect();
        sim.run_to_quiescence();
        let ok = handles
            .iter()
            .filter(|&&h| sim.lookup_outcome(h).is_success())
            .count();
        assert!(ok >= 18, "only {ok}/20 walk lookups succeeded");
        assert!(sim.stats().lookup_messages > 0);
        assert!(sim.stats().reply_messages > 0);
    }

    #[test]
    fn quiet_network_ring_lookups_succeed() {
        let config = GossipConfig::default()
            .with_strategy(LookupStrategy::ExpandingRing)
            .with_ttl(8);
        let mut sim = build(100, config, 3);
        let mut rng = SmallRng::seed_from_u64(11);
        let objects: Vec<Id> = (0..10).map(|_| Id::random(&mut rng)).collect();
        for &o in &objects {
            sim.insert(NodeIdx::new(0), o);
        }
        sim.run_to_quiescence();
        let deadline = sim.now() + SimDuration::from_secs(600);
        let handles: Vec<u64> = objects
            .iter()
            .map(|&o| sim.issue_lookup(NodeIdx::new(50), o, deadline))
            .collect();
        sim.run_to_quiescence();
        for h in handles {
            assert!(
                sim.lookup_outcome(h).is_success(),
                "ring lookup {h} failed on a quiet network"
            );
        }
    }

    #[test]
    fn ring_rounds_stop_spending_after_a_hit() {
        let config = GossipConfig::default()
            .with_strategy(LookupStrategy::ExpandingRing)
            .with_ttl(8);
        let mut sim = build(60, config, 4);
        let object = Id::from_low_u64(0xfeed);
        sim.insert(NodeIdx::new(0), object);
        sim.run_to_quiescence();
        let h = sim.issue_lookup(
            NodeIdx::new(30),
            object,
            sim.now() + SimDuration::from_secs(600),
        );
        sim.run_to_quiescence();
        assert!(sim.lookup_outcome(h).is_success());
        // A full 8-TTL flood over 60 nodes with view 8 would send far
        // more than this; the early rounds finding the object must keep
        // the spend bounded.
        assert!(
            sim.stats().lookup_messages < 60 * 8 * 4,
            "ring kept flooding after the reply: {} msgs",
            sim.stats().lookup_messages
        );
    }

    #[test]
    fn absent_object_fails_without_wedging() {
        for strategy in [LookupStrategy::KRandomWalk, LookupStrategy::ExpandingRing] {
            let mut sim = build(50, GossipConfig::default().with_strategy(strategy), 5);
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
        let mut sim = build(30, GossipConfig::default(), 6);
        let object = Id::from_low_u64(7);
        sim.with(|gossip, _| gossip.stores[2].insert(object));
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
    fn maintenance_shuffles_run_and_views_stay_legal() {
        let mut sim = build(60, GossipConfig::default(), 7);
        sim.start_maintenance();
        sim.run_until(SimTime::from_secs(120));
        assert!(sim.stats().maintenance_messages > 0);
        // Static network: nobody should have been declared dead.
        assert_eq!(sim.stats().failure_declarations, 0);
        for i in 0..sim.len() as u32 {
            sim.view(NodeIdx::new(i)).assert_invariants();
        }
    }

    #[test]
    fn suspicion_evicts_churned_peers() {
        let mut sim = build(40, GossipConfig::default(), 8);
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
            sim.stats().failure_declarations > 0,
            "dead peers must age out of views"
        );
        sim.view(NodeIdx::new(0)).assert_invariants();
    }

    #[test]
    fn join_rebuilds_a_view_through_the_bootstrap() {
        let mut sim = build(30, GossipConfig::default(), 12);
        sim.join(NodeIdx::new(5), NodeIdx::new(0));
        assert_eq!(sim.view(NodeIdx::new(5)).peers(), vec![NodeIdx::new(0)]);
        sim.run_to_quiescence();
        // The immediate shuffle pulled fresh entries from the bootstrap.
        assert!(sim.view(NodeIdx::new(5)).len() > 1);
        sim.view(NodeIdx::new(5)).assert_invariants();
        // Self-join is a no-op.
        sim.join(NodeIdx::new(5), NodeIdx::new(5));
    }

    #[test]
    fn stats_classes_sum_to_kernel_sends() {
        let mut sim = build(80, GossipConfig::default(), 13);
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..5 {
            sim.insert(NodeIdx::new(0), Id::random(&mut rng));
        }
        sim.run_to_quiescence();
        let h = sim.issue_lookup(
            NodeIdx::new(9),
            Id::from_low_u64(1),
            sim.now() + SimDuration::from_secs(60),
        );
        sim.start_maintenance();
        sim.run_until(sim.now() + SimDuration::from_secs(90));
        let _ = sim.lookup_outcome(h);
        assert_eq!(sim.stats().total_messages(), sim.net_stats().sent);
    }

    #[test]
    fn suspicion_resets_when_a_peer_leaves_the_view() {
        // suspicion_limit counts *consecutive* misses while the peer
        // stays in the view: a strike must not survive the peer being
        // merged out (else a re-admitted peer dies after one miss).
        let mut sim = build(30, GossipConfig::default(), 15);
        let u = NodeIdx::new(0);
        let absent = (1..30u32)
            .map(NodeIdx::new)
            .find(|&p| !sim.views[0].contains(p))
            .expect("view 8 of 29 peers leaves someone out");
        // A stale strike against a peer not in the view is dropped by
        // the next merge-side prune...
        sim.with(|gossip, _| {
            gossip.suspicion[0].insert(absent, 1);
            gossip.prune_suspicion(u);
        });
        assert!(sim.suspicion[0].is_empty(), "stale strike survived prune");
        // ...and a shuffle timeout for a departed target strikes nobody.
        sim.with(|gossip, cx| {
            gossip.pending_shuffles[0] = Some(PendingShuffle {
                token: 999,
                target: absent,
                sent: Peers::new(),
            });
            gossip.on_shuffle_timeout(cx, u, 999);
        });
        assert!(sim.suspicion[0].is_empty(), "departed peer was struck");
        assert_eq!(sim.stats().failure_declarations, 0);
    }

    #[test]
    fn fixed_seed_runs_reproduce_exactly() {
        let run = |seed: u64, strategy: LookupStrategy| {
            let mut sim = build(70, GossipConfig::default().with_strategy(strategy), seed);
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
            (results, sim.stats(), sim.net_stats())
        };
        for strategy in [LookupStrategy::KRandomWalk, LookupStrategy::ExpandingRing] {
            assert_eq!(run(21, strategy), run(21, strategy), "{strategy:?}");
        }
    }
}
