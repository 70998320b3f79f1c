//! The state of one overlay node of the live cluster.
//!
//! A node is data, not a thread: its replica store, the message ids it
//! has seen lately (`SeenIds`), the RNG that breaks ties among
//! over-quota candidates, its counters ([`NodeStats`]) and the control
//! block through which the cluster makes it unresponsive. The shard
//! that hosts the node (module `shard`) runs the MPIL step on this
//! state, one message at a time.
//!
//! Perturbation is injected by making the node discard every frame
//! addressed to it before a deadline — behaviorally identical to the
//! paper's "unresponsive" host — whether the frame arrived as a datagram
//! or was handed over inside the shard.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fxhash::{FxHashMap, FxHashSet};
use mpil::MessageId;
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An instant one thread sets and another reads without a lock:
/// nanoseconds after the cluster's epoch, or unset.
#[derive(Debug)]
pub(crate) struct AtomicDeadline(AtomicU64);

impl AtomicDeadline {
    const UNSET: u64 = u64::MAX;

    pub(crate) fn set(&self, at: Duration) {
        let ns = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        self.0.store(ns.min(Self::UNSET - 1), Ordering::SeqCst);
    }

    pub(crate) fn clear(&self) {
        self.0.store(Self::UNSET, Ordering::SeqCst);
    }

    pub(crate) fn get(&self) -> Option<Duration> {
        match self.0.load(Ordering::SeqCst) {
            Self::UNSET => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

impl Default for AtomicDeadline {
    fn default() -> Self {
        AtomicDeadline(AtomicU64::new(Self::UNSET))
    }
}

/// Shared control block of one node (cluster-side handle). Instants are
/// [`Duration`]s since the cluster's epoch.
#[derive(Debug, Default)]
pub(crate) struct NodeControl {
    parked: AtomicBool,
    perturbed_until: AtomicDeadline,
}

impl NodeControl {
    /// Makes the node unresponsive (drop every frame) until `until`.
    pub(crate) fn perturb_until(&self, until: Duration) {
        self.perturbed_until.set(until);
    }

    /// Restores responsiveness immediately.
    pub(crate) fn heal(&self) {
        self.perturbed_until.clear();
    }

    /// Parks the node: provisioned but not yet part of the service
    /// (drops every frame until [`NodeControl::unpark`] — the live
    /// analogue of a node that has not joined yet).
    pub(crate) fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Brings a parked node into service.
    pub(crate) fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Whether the node is currently parked.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Whether the node is unresponsive at `now`. An expired
    /// perturbation heals itself.
    pub(crate) fn is_perturbed(&self, now: Duration) -> bool {
        self.perturbed_until.get().is_some_and(|until| now < until)
    }
}

/// Counters one node accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Frames processed (after perturbation drops).
    pub frames: u64,
    /// MPIL copies forwarded to neighbors.
    pub forwards: u64,
    /// Replicas deposited.
    pub stores: u64,
    /// Lookup replies sent.
    pub replies: u64,
    /// Store acks sent.
    pub store_acks: u64,
    /// Duplicate receptions observed.
    pub duplicates_seen: u64,
    /// Duplicates dropped by suppression.
    pub duplicates_suppressed: u64,
    /// Frames discarded while perturbed.
    pub dropped_perturbed: u64,
    /// Frames discarded while parked (provisioned, not yet joined).
    pub dropped_parked: u64,
    /// Frames left unserved when the drain deadline expired at
    /// shutdown: requests the service accepted but dropped on the
    /// floor. Zero on a clean drain.
    pub dropped_at_drain: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Outbound frames that failed to encode (route beyond the wire
    /// format's limit).
    pub encode_errors: u64,
    /// Outbound frames the transport refused (oversized datagram,
    /// unknown endpoint, torn-down mesh).
    pub send_errors: u64,
}

/// Distinct message ids one generation of a [`SeenIds`] holds: seven
/// eighths of 4096, the most a 4096-bucket table takes without growing.
const SEEN_GENERATION: usize = 3584;

/// The message ids a node has received lately, for duplicate
/// suppression, in bounded memory.
///
/// Two generations: ids are recorded in the current one; when it holds
/// [`SEEN_GENERATION`] ids it becomes the previous one and what was the
/// previous is forgotten. An id is therefore remembered for at least
/// the next [`SEEN_GENERATION`] distinct receptions, and at most twice
/// that many are held. The copies of one flow reach a node within
/// milliseconds of each other and a retry carries a fresh id, so
/// nothing that is still in flight is ever forgotten at the rates a
/// shard can serve.
#[derive(Debug)]
pub(crate) struct SeenIds {
    current: FxHashSet<MessageId>,
    previous: FxHashSet<MessageId>,
}

impl SeenIds {
    pub(crate) fn new() -> Self {
        let generation =
            || FxHashSet::with_capacity_and_hasher(SEEN_GENERATION, Default::default());
        SeenIds {
            current: generation(),
            previous: generation(),
        }
    }

    /// Records `id`; `false` if it was already remembered.
    pub(crate) fn insert(&mut self, id: MessageId) -> bool {
        if self.previous.contains(&id) || !self.current.insert(id) {
            return false;
        }
        if self.current.len() >= SEEN_GENERATION {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        true
    }
}

/// One overlay node, as the shard hosting it holds it.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) idx: NodeIdx,
    /// Replicas deposited here: object → the node that inserted it.
    pub(crate) store: FxHashMap<Id, NodeIdx>,
    pub(crate) seen: SeenIds,
    /// Picks among over-quota candidates.
    pub(crate) rng: SmallRng,
    pub(crate) stats: NodeStats,
    pub(crate) control: Arc<NodeControl>,
}

impl Node {
    pub(crate) fn new(idx: NodeIdx, seed: u64, control: Arc<NodeControl>) -> Self {
        Node {
            idx,
            store: FxHashMap::default(),
            seen: SeenIds::new(),
            rng: SmallRng::seed_from_u64(seed),
            stats: NodeStats::default(),
            control,
        }
    }

    /// Whether a frame that reaches the node at `now` is served; one
    /// that is not is counted here as dropped.
    pub(crate) fn hears(&mut self, now: Duration) -> bool {
        if self.control.is_parked() {
            self.stats.dropped_parked += 1;
            false
        } else if self.control.is_perturbed(now) {
            self.stats.dropped_perturbed += 1;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_ids_remember_a_generation_and_stay_bounded() {
        let mut seen = SeenIds::new();
        assert!(seen.insert(MessageId(0)));
        for id in 1..=SEEN_GENERATION as u64 {
            assert!(seen.insert(MessageId(id)));
        }
        assert!(
            !seen.insert(MessageId(0)),
            "an id outlives the next SEEN_GENERATION distinct receptions"
        );
        for id in SEEN_GENERATION as u64 + 1..1_000_000 {
            assert!(seen.insert(MessageId(id)));
        }
        assert!(!seen.insert(MessageId(999_999)));
        assert!(seen.insert(MessageId(0)), "old ids are forgotten");
        assert!(seen.current.len() + seen.previous.len() <= 2 * SEEN_GENERATION);
        // 4096 buckets a generation: the tables never grew.
        assert!(seen.current.capacity() + seen.previous.capacity() <= 2 * 4096);
    }

    const T0: Duration = Duration::from_secs(100);

    #[test]
    fn control_flags_toggle() {
        let c = NodeControl::default();
        assert!(!c.is_perturbed(T0));
        c.perturb_until(T0 + Duration::from_secs(5));
        assert!(c.is_perturbed(T0));
        c.heal();
        assert!(!c.is_perturbed(T0));
    }

    #[test]
    fn expired_perturbation_heals_itself() {
        let c = NodeControl::default();
        c.perturb_until(T0 + Duration::from_millis(1));
        assert!(c.is_perturbed(T0));
        assert!(!c.is_perturbed(T0 + Duration::from_millis(1)));
        // A deadline no u64 of nanoseconds holds is still a deadline.
        c.perturb_until(Duration::MAX);
        assert!(c.is_perturbed(T0));
    }

    #[test]
    fn park_toggles_independently_of_perturbation() {
        let c = NodeControl::default();
        assert!(!c.is_parked());
        c.park();
        assert!(c.is_parked());
        assert!(!c.is_perturbed(T0), "park is not perturbation");
        c.unpark();
        assert!(!c.is_parked());
    }

    #[test]
    fn a_deaf_node_counts_what_it_drops() {
        let mut node = Node::new(NodeIdx::new(3), 1, Arc::new(NodeControl::default()));
        assert!(node.hears(T0));
        node.control.perturb_until(T0 + Duration::from_secs(1));
        assert!(!node.hears(T0));
        node.control.park();
        assert!(!node.hears(T0), "parked wins: the node never joined");
        assert_eq!(
            (node.stats.dropped_perturbed, node.stats.dropped_parked),
            (1, 1)
        );
    }
}
