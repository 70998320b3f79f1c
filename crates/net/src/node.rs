//! The per-node worker thread of the live cluster.
//!
//! Each node owns one [`Transport`] endpoint and runs the exact MPIL
//! step semantics of the simulators ([`mpil::routing_decision_policy`] +
//! [`mpil::plan_forwarding`]): metric scan over the frozen neighbor
//! list, local-maximum replica deposit, flow-quota splitting, duplicate
//! suppression, and direct replies. Perturbation is injected by making
//! the node discard every frame that arrives before a deadline —
//! behaviorally identical to the paper's "unresponsive" host.
//!
//! A node sleeps in a blocking receive on its endpoint and is woken by
//! frames only: a shutdown or drain request is written to its
//! [`NodeControl`] and followed by a [`WireMessage::Shutdown`] frame,
//! on which the node reads the control block again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fxhash::{FxHashMap, FxHashSet};
use mpil::{
    plan_forwarding, routing_decision_policy, select_candidates, Message, MessageId, MessageKind,
    MpilConfig,
};
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::codec::{WireMessage, SHUTDOWN_FRAME};
use crate::transport::Transport;

/// Shared control block of one node (cluster-side handle).
#[derive(Debug, Default)]
pub struct NodeControl {
    shutdown: AtomicBool,
    parked: AtomicBool,
    perturbed_until: Mutex<Option<Instant>>,
    drain_until: Mutex<Option<Instant>>,
}

impl NodeControl {
    /// Asks the node to exit its loop immediately (no drain; frames
    /// still queued are counted as dropped).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Asks the node to exit once its inbound queue is empty, or at the
    /// latest `drain` from now: in-flight traffic keeps being served,
    /// new frames arriving after the deadline are counted into
    /// [`NodeStats::dropped_at_drain`].
    pub fn request_drain(&self, drain: Duration) {
        *self.drain_until.lock() = Some(Instant::now() + drain);
    }

    /// Makes the node unresponsive (drop every frame) for `duration`.
    pub fn perturb_for(&self, duration: Duration) {
        *self.perturbed_until.lock() = Some(Instant::now() + duration);
    }

    /// Restores responsiveness immediately.
    pub fn heal(&self) {
        *self.perturbed_until.lock() = None;
    }

    /// Parks the node: provisioned but not yet part of the service
    /// (drops every frame until [`NodeControl::unpark`] — the live
    /// analogue of a node that has not joined yet).
    pub fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Brings a parked node into service.
    pub fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Whether the node is currently parked.
    pub fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    fn is_perturbed(&self) -> bool {
        match *self.perturbed_until.lock() {
            Some(t) => Instant::now() < t,
            None => false,
        }
    }

    fn drain_deadline(&self) -> Option<Instant> {
        *self.drain_until.lock()
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
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

/// Immutable per-node configuration.
pub struct NodeSetup {
    /// This node.
    pub node: NodeIdx,
    /// The global ID table.
    pub ids: Arc<Vec<Id>>,
    /// Frozen neighbor lists for the whole cluster.
    pub neighbors: Arc<Vec<Vec<NodeIdx>>>,
    /// MPIL parameters.
    pub config: MpilConfig,
    /// Transport index of the client endpoint (acks/replies go there).
    pub client: usize,
    /// RNG seed for over-quota candidate selection.
    pub seed: u64,
}

/// How long a draining node's queue must stay empty before it
/// concludes the in-flight traffic has run dry. Two consecutive empty
/// polls of this length are required, so a peer that still holds a
/// frame for us gets a scheduling window to deliver it.
const DRAIN_IDLE_POLL: Duration = Duration::from_millis(25);

/// Longest a node (or the cluster's reader) sleeps in one receive when
/// nothing arrives. Nothing depends on it: work and wake-ups arrive as
/// frames. It bounds the wait should a wake-up frame be lost on a full
/// socket buffer.
pub(crate) const IDLE_WAKE: Duration = Duration::from_secs(1);

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
/// nothing that is still in flight is ever forgotten at the rates one
/// node thread can serve.
#[derive(Debug)]
struct SeenIds {
    current: FxHashSet<MessageId>,
    previous: FxHashSet<MessageId>,
}

impl SeenIds {
    fn new() -> Self {
        let generation =
            || FxHashSet::with_capacity_and_hasher(SEEN_GENERATION, Default::default());
        SeenIds {
            current: generation(),
            previous: generation(),
        }
    }

    /// Records `id`; `false` if it was already remembered.
    fn insert(&mut self, id: MessageId) -> bool {
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

/// Runs one node until shutdown; returns its counters.
///
/// The node blocks on its endpoint; [`NodeControl::request_shutdown`]
/// and [`NodeControl::request_drain`] take effect when the next frame
/// arrives, so the cluster follows them with a
/// [`WireMessage::Shutdown`] frame (a `Shutdown` frame with nothing
/// requested is ignored). A drain request keeps the node serving until
/// its queue has been empty for two consecutive idle polls (in-flight
/// multi-hop traffic drains through) or the drain deadline passes;
/// frames still queued at the deadline are swept up and counted as
/// [`NodeStats::dropped_at_drain`].
pub fn run_node(
    transport: Box<dyn Transport>,
    setup: NodeSetup,
    control: Arc<NodeControl>,
) -> NodeStats {
    let mut stats = NodeStats::default();
    let mut store: FxHashMap<Id, NodeIdx> = FxHashMap::default();
    let mut seen = SeenIds::new();
    let mut rng = SmallRng::seed_from_u64(setup.seed);
    let mut idle_polls = 0u32;
    let mut drain_seen = false;

    while !control.shutdown_requested() {
        let draining = control.drain_deadline();
        if let Some(deadline) = draining {
            if !drain_seen {
                // Idle polls from before the drain request don't prove
                // the queue is empty *now*; confirm afresh.
                drain_seen = true;
                idle_polls = 0;
            }
            if Instant::now() >= deadline {
                stats.dropped_at_drain += sweep_queue(transport.as_ref());
                break;
            }
            if idle_polls >= 2 {
                break; // queue stayed empty: drained clean
            }
        }
        let wait = match draining {
            // While draining, poll fast so the empty-queue exit is
            // prompt, but never sleep past the deadline.
            Some(deadline) => {
                DRAIN_IDLE_POLL.min(deadline.saturating_duration_since(Instant::now()))
            }
            None => IDLE_WAKE,
        };
        let payload = match transport.recv_timeout(wait) {
            Ok(Some((_, payload))) => {
                idle_polls = 0;
                payload
            }
            Ok(None) => {
                idle_polls = idle_polls.saturating_add(1);
                continue;
            }
            Err(_) => break, // mesh torn down
        };
        if payload[..] == SHUTDOWN_FRAME {
            continue; // woken to read the control block again
        }
        if control.is_parked() {
            stats.dropped_parked += 1;
            continue;
        }
        if control.is_perturbed() {
            stats.dropped_perturbed += 1;
            continue;
        }
        let wire = match WireMessage::decode(&payload) {
            Ok(w) => w,
            Err(_) => {
                stats.decode_errors += 1;
                continue;
            }
        };
        stats.frames += 1;
        // Client-bound frames are not ours to handle; ignore.
        if let WireMessage::Forward(msg) = wire {
            step(
                transport.as_ref(),
                &setup,
                &mut stats,
                &mut store,
                &mut seen,
                &mut rng,
                msg,
            );
        }
    }
    stats
}

/// Empties whatever is still queued on `transport`, returning the count
/// (the frames a drain deadline left unserved; wake-ups are not
/// requests and are not counted).
fn sweep_queue(transport: &dyn Transport) -> u64 {
    let mut dropped = 0;
    while let Ok(Some((_, payload))) = transport.recv_timeout(Duration::from_millis(1)) {
        if payload[..] != SHUTDOWN_FRAME {
            dropped += 1;
        }
    }
    dropped
}

/// One MPIL step at this node — the live twin of the simulators' message
/// handler (same decision, plan, and bookkeeping order).
fn step(
    transport: &dyn Transport,
    setup: &NodeSetup,
    stats: &mut NodeStats,
    store: &mut FxHashMap<Id, NodeIdx>,
    seen: &mut SeenIds,
    rng: &mut SmallRng,
    mut msg: Message,
) {
    let at = setup.node;
    // Duplicate accounting at reception, as in the simulators.
    if !seen.insert(msg.msg_id) {
        stats.duplicates_seen += 1;
        if setup.config.duplicate_suppression {
            stats.duplicates_suppressed += 1;
            return;
        }
    }

    // Lookup short-circuit: a holder replies (to the client) and stops
    // this flow.
    if msg.kind == MessageKind::Lookup && store.contains_key(&msg.object) {
        let reply = WireMessage::Reply {
            msg_id: msg.msg_id,
            object: msg.object,
            holder: at,
            hops: msg.hops,
        };
        // Replies carry no route, so encoding only fails on a wire-format
        // regression; count it rather than killing the node thread.
        match reply.encode() {
            Ok(frame) => {
                if transport.send(setup.client, frame).is_ok() {
                    stats.replies += 1;
                } else {
                    stats.send_errors += 1;
                }
            }
            Err(_) => stats.encode_errors += 1,
        }
        return;
    }

    let given = if msg.hops == 0 { 0 } else { 1 };
    let decision = routing_decision_policy(
        setup.config.space,
        msg.object,
        at,
        &setup.neighbors[at.index()],
        &setup.ids,
        |n| msg.visited(n),
        setup.config.split_policy,
        msg.quota + given,
        setup.config.metric,
    );

    if decision.is_local_max {
        if msg.kind == MessageKind::Insert {
            store.insert(msg.object, msg.origin);
            stats.stores += 1;
            let ack = WireMessage::StoreAck {
                msg_id: msg.msg_id,
                object: msg.object,
                holder: at,
            };
            // Store-acks carry no route, so encoding only fails on a
            // wire-format regression; count it rather than panicking.
            match ack.encode() {
                Ok(frame) => {
                    if transport.send(setup.client, frame).is_ok() {
                        stats.store_acks += 1;
                    } else {
                        stats.send_errors += 1;
                    }
                }
                Err(_) => stats.encode_errors += 1,
            }
        }
        msg.replicas_left -= 1;
        if msg.replicas_left == 0 {
            return;
        }
    }

    if decision.candidates.is_empty() {
        return;
    }
    let plan = plan_forwarding(msg.quota, given, decision.candidates.len());
    if plan.m == 0 {
        return;
    }
    let chosen: Vec<NodeIdx> = select_candidates(decision.candidates, plan.m as usize, rng);
    for (target, &child_quota) in chosen.iter().zip(plan.child_quotas.iter()) {
        let fwd = msg.forwarded(at, child_quota);
        let frame = match WireMessage::Forward(fwd).encode() {
            Ok(frame) => frame,
            Err(_) => {
                stats.encode_errors += 1;
                continue;
            }
        };
        if transport.send(target.index(), frame).is_ok() {
            stats.forwards += 1;
        } else {
            stats.send_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelMesh;
    use bytes::Bytes;

    /// Two nodes and a client endpoint on a channel mesh; returns node
    /// 0's setup and every endpoint.
    fn two_nodes(config: MpilConfig) -> (NodeSetup, Vec<Box<dyn Transport>>) {
        let setup = NodeSetup {
            node: NodeIdx::new(0),
            ids: Arc::new(vec![Id::from_low_u64(1), Id::from_low_u64(2)]),
            neighbors: Arc::new(vec![vec![NodeIdx::new(1)], vec![NodeIdx::new(0)]]),
            config,
            client: 2,
            seed: 1,
        };
        let mesh = ChannelMesh::build(3)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        (setup, mesh)
    }

    fn lookup(id: u64) -> Message {
        Message::initial(
            MessageId(id),
            MessageKind::Lookup,
            Id::from_low_u64(0xfeed),
            NodeIdx::new(0),
            4,
            2,
        )
    }

    #[test]
    fn a_duplicate_is_counted_and_suppressed() {
        for ds in [true, false] {
            let (setup, mesh) = two_nodes(MpilConfig::default().with_duplicate_suppression(ds));
            let mut stats = NodeStats::default();
            let mut store = FxHashMap::default();
            let mut seen = SeenIds::new();
            let mut rng = SmallRng::seed_from_u64(1);
            let mut step = |msg| {
                step(
                    mesh[0].as_ref(),
                    &setup,
                    &mut stats,
                    &mut store,
                    &mut seen,
                    &mut rng,
                    msg,
                );
            };
            step(lookup(7));
            step(lookup(8));
            step(lookup(7));
            assert_eq!(stats.duplicates_seen, 1, "ds={ds}");
            assert_eq!(stats.duplicates_suppressed, u64::from(ds), "ds={ds}");
        }
    }

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

    /// The wake-up protocol: a `Shutdown` frame makes the node read its
    /// control block, and only what is asked there ends it.
    #[test]
    fn a_node_sleeps_until_a_frame_and_obeys_only_its_control_block() {
        let (setup, mut mesh) = two_nodes(MpilConfig::default());
        let client = mesh.pop().expect("client endpoint");
        let _peer = mesh.pop().expect("node 1 endpoint");
        let node = mesh.pop().expect("node 0 endpoint");
        let control = Arc::new(NodeControl::default());
        let handle = std::thread::spawn({
            let control = Arc::clone(&control);
            move || run_node(node, setup, control)
        });
        // Nothing requested: the frame is ignored and the node serves on.
        client
            .send(0, Bytes::from_static(&SHUTDOWN_FRAME))
            .expect("send");
        let insert = Message::initial(
            MessageId(1),
            MessageKind::Insert,
            // Shares more digits with node 0's id than with node 1's.
            Id::from_low_u64(1),
            NodeIdx::new(0),
            4,
            1,
        );
        client
            .send(0, WireMessage::Forward(insert).encode().expect("encode"))
            .expect("send");
        let (_, ack) = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("the node is still serving");
        assert!(matches!(
            WireMessage::decode(&ack),
            Ok(WireMessage::StoreAck { .. })
        ));
        // A drain request followed by the wake-up ends it, long before
        // the idle cap would.
        control.request_drain(Duration::from_secs(30));
        client
            .send(0, Bytes::from_static(&SHUTDOWN_FRAME))
            .expect("send");
        let stats = handle.join().expect("node thread");
        assert_eq!(stats.frames, 1, "wake-ups are not traffic");
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.dropped_at_drain, 0);
    }

    #[test]
    fn control_flags_toggle() {
        let c = NodeControl::default();
        assert!(!c.shutdown_requested());
        assert!(!c.is_perturbed());
        c.perturb_for(Duration::from_secs(5));
        assert!(c.is_perturbed());
        c.heal();
        assert!(!c.is_perturbed());
        c.request_shutdown();
        assert!(c.shutdown_requested());
    }

    #[test]
    fn expired_perturbation_heals_itself() {
        let c = NodeControl::default();
        c.perturb_for(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(10));
        assert!(!c.is_perturbed());
    }

    #[test]
    fn park_toggles_independently_of_perturbation() {
        let c = NodeControl::default();
        assert!(!c.is_parked());
        c.park();
        assert!(c.is_parked());
        assert!(!c.is_perturbed(), "park is not perturbation");
        c.unpark();
        assert!(!c.is_parked());
    }

    #[test]
    fn drain_sets_a_deadline() {
        let c = NodeControl::default();
        assert!(c.drain_deadline().is_none());
        c.request_drain(Duration::from_secs(5));
        let d = c.drain_deadline().expect("deadline set");
        assert!(d > Instant::now());
    }
}
