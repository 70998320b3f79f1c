//! The state of one overlay node of the live cluster.
//!
//! A node is data, not a thread: the simulator's [`mpil::Agent`] (replica
//! store, duplicate memory), its counters ([`NodeStats`]) and the control
//! block through which the cluster makes it unresponsive. The shard that
//! hosts the node (module `shard`) hands it one message at a time.
//!
//! Perturbation is injected by making the node discard every frame
//! addressed to it before a deadline — behaviorally identical to the
//! paper's "unresponsive" host — whether the frame arrived as a datagram
//! or was handed over inside the shard.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpil::Agent;
use mpil_overlay::NodeIdx;

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

/// One overlay node, as the shard hosting it holds it.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) idx: NodeIdx,
    pub(crate) agent: Agent,
    pub(crate) stats: NodeStats,
    pub(crate) control: Arc<NodeControl>,
}

impl Node {
    pub(crate) fn new(idx: NodeIdx, control: Arc<NodeControl>) -> Self {
        Node {
            idx,
            agent: Agent::default(),
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
        let mut node = Node::new(NodeIdx::new(3), Arc::new(NodeControl::default()));
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
