//! The shard: one evented thread that hosts a share of the cluster's
//! nodes.
//!
//! A cluster runs as many shards as the machine has cores (never more
//! than it has nodes); node `i` lives on shard `i % shards`. A shard
//! owns its nodes ([`Node`]: each the simulator's [`mpil::Agent`]), one
//! [`Transport`] endpoint, one run queue and one RNG, and sends what
//! [`mpil::Agent::receive`] decides: a `Reply` or `StoreAck` to the
//! client, a copy onto the run queue or the endpoint. Shard `k` seeds
//! its RNG `seed ^ k·0x9e37_79b9_7f4a_7c15`, so a one-shard cluster
//! replays [`mpil::StaticEngine`] operation for operation.
//!
//! A **turn** of a shard is one frame taken off its endpoint and every
//! copy that frame gives rise to on this shard, run to completion: a
//! forward whose target is hosted here is pushed on the run queue as a
//! [`Message`] (no encoding, no system call, no wake-up; it is counted
//! as a forward and held to the wire's route limit all the same), and
//! the queue is emptied before the shard blocks on its endpoint again.
//! Forwards to nodes of other shards, and the replies and store-acks
//! the client is owed, leave through the endpoint. A frame addressed to
//! a shard's endpoint carries the node it is for in a four-byte
//! envelope in front of the [`WireMessage`]; whether that node is
//! parked or perturbed is looked at when the frame is taken off the
//! endpoint or the queue, against the one clock reading of the turn.
//!
//! A shard sleeps in a blocking receive and is woken by frames only: a
//! shutdown or drain request is written to its [`ShardControl`] and
//! followed by a bare [`WireMessage::Shutdown`] frame, on which the
//! shard reads the control block again.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mpil::{Message, MpilConfig, Verdict};
use mpil_id::Id;
use mpil_overlay::{Adjacency, NodeIdx};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::codec::{EncodeError, WireMessage, MAX_ROUTE, SHUTDOWN_FRAME};
use crate::node::{AtomicDeadline, Node, NodeControl, NodeStats};
use crate::transport::Transport;

/// What every shard of a cluster knows and none changes.
#[derive(Debug)]
pub(crate) struct Overlay {
    /// The global ID table.
    pub(crate) ids: Vec<Id>,
    /// Frozen neighbor lists for the whole cluster, in one array.
    pub(crate) neighbors: Adjacency,
    /// MPIL parameters.
    pub(crate) config: MpilConfig,
    /// Shards the nodes are dealt over; shard `k` is mesh endpoint `k`.
    pub(crate) shards: usize,
    /// Mesh endpoint of the client (acks and replies go there).
    pub(crate) client: usize,
    /// What the cluster's deadlines are measured from.
    pub(crate) epoch: Instant,
}

impl Overlay {
    pub(crate) fn shard_of(&self, node: NodeIdx) -> usize {
        node.index() % self.shards
    }

    /// Where `node` sits among the nodes of its shard.
    pub(crate) fn slot_of(&self, node: NodeIdx) -> usize {
        node.index() / self.shards
    }
}

/// Shared control block of one shard (cluster-side handle). A request
/// takes effect when the shard next looks, so the cluster follows it
/// with a wake-up frame.
#[derive(Debug, Default)]
pub(crate) struct ShardControl {
    shutdown: AtomicBool,
    drain_until: AtomicDeadline,
}

impl ShardControl {
    /// Asks the shard to exit its loop at once (no drain).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Asks the shard to exit once its endpoint has run dry, or at the
    /// latest at `until` (since the cluster's epoch): in-flight traffic
    /// keeps being served, frames still waiting at the deadline are
    /// counted into [`NodeStats::dropped_at_drain`].
    pub(crate) fn request_drain(&self, until: Duration) {
        self.drain_until.set(until);
    }
}

/// How long a draining shard's endpoint must stay empty before it
/// concludes the in-flight traffic has run dry. Two consecutive empty
/// polls of this length are required, so a peer that still holds a
/// frame for us gets a scheduling window to deliver it.
const DRAIN_IDLE_POLL: Duration = Duration::from_millis(25);

/// Longest a shard (or the cluster's reader) sleeps in one receive when
/// nothing arrives. Nothing depends on it: work and wake-ups arrive as
/// frames. It bounds the wait should a wake-up frame be lost on a full
/// socket buffer.
pub(crate) const IDLE_WAKE: Duration = Duration::from_secs(1);

/// One shard: its nodes, its endpoint, its run queue, its RNG.
pub(crate) struct Shard {
    index: usize,
    transport: Box<dyn Transport>,
    overlay: Arc<Overlay>,
    control: Arc<ShardControl>,
    /// The nodes hosted here, by slot.
    nodes: Vec<Node>,
    /// Copies handed over in-process and not yet stepped, with the node
    /// each is for.
    queue: VecDeque<(NodeIdx, Message)>,
    /// Breaks every hosted node's ties among over-quota candidates.
    rng: SmallRng,
}

impl Shard {
    /// Shard `index` of the cluster `overlay` describes, hosting every
    /// node dealt to it. `controls` are per node, for the whole cluster;
    /// `seed` is the cluster's.
    pub(crate) fn new(
        index: usize,
        transport: Box<dyn Transport>,
        overlay: Arc<Overlay>,
        control: Arc<ShardControl>,
        controls: &[Arc<NodeControl>],
        seed: u64,
    ) -> Self {
        let nodes = (index..overlay.ids.len())
            .step_by(overlay.shards)
            .map(|i| Node::new(NodeIdx::new(i as u32), Arc::clone(&controls[i])))
            .collect();
        Shard {
            index,
            transport,
            overlay,
            control,
            nodes,
            queue: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Runs the shard until shutdown; returns its nodes' counters, by
    /// slot.
    ///
    /// A drain request keeps the shard serving until its endpoint has
    /// been empty for two consecutive idle polls (in-flight multi-hop
    /// traffic drains through) or the drain deadline passes; what is
    /// still on the run queue or the endpoint at the deadline is counted
    /// as [`NodeStats::dropped_at_drain`] of the node it was for. A
    /// wake-up with nothing requested is ignored.
    pub(crate) fn run(mut self) -> Vec<NodeStats> {
        let mut idle_polls = 0u32;
        let mut drain_seen = false;
        while !self.control.shutdown.load(Ordering::SeqCst) {
            let draining = self.control.drain_until.get();
            let mut wait = IDLE_WAKE;
            if let Some(deadline) = draining {
                if !drain_seen {
                    // Idle polls from before the drain request don't
                    // prove the endpoint is empty *now*; confirm afresh.
                    drain_seen = true;
                    idle_polls = 0;
                }
                let left = deadline.saturating_sub(self.overlay.epoch.elapsed());
                if left.is_zero() {
                    self.sweep();
                    break;
                }
                if idle_polls >= 2 {
                    break; // the endpoint stayed empty: drained clean
                }
                // Poll fast so the empty-endpoint exit is prompt, but
                // never sleep past the deadline.
                wait = DRAIN_IDLE_POLL.min(left);
            }
            let payload = match self.transport.recv_timeout(wait) {
                Ok(Some((_, payload))) => payload,
                Ok(None) => {
                    idle_polls = idle_polls.saturating_add(1);
                    continue;
                }
                Err(_) => break, // mesh torn down
            };
            idle_polls = 0;
            if payload[..] == SHUTDOWN_FRAME {
                continue; // woken to read the control block again
            }
            self.turn(&payload, draining);
        }
        self.nodes.into_iter().map(|node| node.stats).collect()
    }

    /// One turn: serves a frame taken off the endpoint, then every copy
    /// it put on the run queue, and those they put there. Past
    /// `deadline` (of a drain), what is still queued is counted as
    /// dropped instead.
    fn turn(&mut self, payload: &[u8], deadline: Option<Duration>) {
        // The turn's one clock reading; a draining shard takes more.
        let now = self.overlay.epoch.elapsed();
        self.accept(payload, now);
        while let Some((dest, msg)) = self.queue.pop_front() {
            let slot = self.overlay.slot_of(dest);
            if deadline.is_some_and(|deadline| self.overlay.epoch.elapsed() >= deadline) {
                self.nodes[slot].stats.dropped_at_drain += 1;
            } else if self.nodes[slot].hears(now) {
                self.nodes[slot].stats.frames += 1;
                self.step(slot, msg);
            }
        }
    }

    /// The node an enveloped frame is for, if it is hosted here, and the
    /// frame. Anything else on the endpoint is a stranger's datagram
    /// with no node to be counted on.
    fn open<'a>(&self, payload: &'a [u8]) -> Option<(usize, &'a [u8])> {
        let (dest, frame) = payload.split_first_chunk::<4>()?;
        let dest = NodeIdx::new(u32::from_be_bytes(*dest));
        let slot = self.overlay.slot_of(dest);
        (self.overlay.shard_of(dest) == self.index && slot < self.nodes.len())
            .then_some((slot, frame))
    }

    /// Serves one frame taken off the endpoint.
    fn accept(&mut self, payload: &[u8], now: Duration) {
        let Some((slot, frame)) = self.open(payload) else {
            return;
        };
        if !self.nodes[slot].hears(now) {
            return;
        }
        match WireMessage::decode(frame) {
            Ok(wire) => {
                self.nodes[slot].stats.frames += 1;
                // Client-bound frames are not ours to handle; ignore.
                if let WireMessage::Forward(msg) = wire {
                    self.step(slot, msg);
                }
            }
            Err(_) => self.nodes[slot].stats.decode_errors += 1,
        }
    }

    /// Empties the endpoint at the drain deadline, counting each frame
    /// as dropped at the node it was for (wake-ups are not requests and
    /// are not counted).
    fn sweep(&mut self) {
        while let Ok(Some((_, payload))) = self.transport.recv_timeout(Duration::from_millis(1)) {
            if let Some((slot, _)) = self.open(&payload) {
                self.nodes[slot].stats.dropped_at_drain += 1;
            }
        }
    }

    /// One copy at the node in `slot`: where this world sends what
    /// [`mpil::Agent::receive`] decided.
    fn step(&mut self, slot: usize, msg: Message) {
        let Shard {
            index,
            transport,
            overlay,
            nodes,
            queue,
            rng,
            ..
        } = self;
        let node = &mut nodes[slot];
        let (at, agent, stats) = (node.idx, &mut node.agent, &mut node.stats);
        let (msg_id, object, hops) = (msg.msg_id, msg.object, msg.hops);
        let receipt = agent.receive(
            &overlay.config,
            at,
            overlay.neighbors.neighbors(at),
            &overlay.ids,
            msg,
            rng,
        );
        stats.duplicates_seen += u64::from(receipt.duplicate);
        let copies = match receipt.verdict {
            None => {
                stats.duplicates_suppressed += 1;
                return;
            }
            // Lookup short-circuit: a holder replies (to the client) and
            // stops this flow.
            Some(Verdict::Replied) => {
                let reply = WireMessage::Reply {
                    msg_id,
                    object,
                    holder: at,
                    hops,
                };
                let sent = send(transport.as_ref(), overlay.client, reply.encode(), stats);
                stats.replies += u64::from(sent);
                return;
            }
            Some(Verdict::Routed {
                deposited, copies, ..
            }) => {
                if deposited {
                    stats.stores += 1;
                    let ack = WireMessage::StoreAck {
                        msg_id,
                        object,
                        holder: at,
                    };
                    let sent = send(transport.as_ref(), overlay.client, ack.encode(), stats);
                    stats.store_acks += u64::from(sent);
                }
                copies
            }
        };
        for (target, fwd) in copies {
            let shard = overlay.shard_of(target);
            if shard != *index {
                let frame = WireMessage::Forward(fwd).encode_for(target);
                stats.forwards += u64::from(send(transport.as_ref(), shard, frame, stats));
            } else if fwd.route.len() > MAX_ROUTE {
                // Handed over as it is, but held to the limit the encoder
                // would have enforced.
                stats.encode_errors += 1;
            } else {
                queue.push_back((target, fwd));
                stats.forwards += 1;
            }
        }
    }
}

/// Sends an encoded frame to mesh endpoint `to`; `true` if it left. A
/// frame that did not encode (a reply or store-ack only on a wire-format
/// regression) or that the transport refused is counted, not fatal.
fn send(
    transport: &dyn Transport,
    to: usize,
    frame: Result<Bytes, EncodeError>,
    stats: &mut NodeStats,
) -> bool {
    let Ok(bytes) = frame else {
        stats.encode_errors += 1;
        return false;
    };
    let sent = transport.send(to, bytes).is_ok();
    stats.send_errors += u64::from(!sent);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WIRE_VERSION;
    use crate::transport::ChannelMesh;
    use bytes::Bytes;
    use mpil::{MessageId, MessageKind};

    const FAR: Duration = Duration::from_secs(3600);

    /// Nodes 0 and 1, neighbors of each other, on ONE shard of a channel
    /// mesh; returns the shard, its control block, the nodes' control
    /// blocks and the client's endpoint.
    fn two_nodes_one_shard(
        config: MpilConfig,
    ) -> (
        Shard,
        Arc<ShardControl>,
        Vec<Arc<NodeControl>>,
        Box<dyn Transport>,
    ) {
        let mut mesh = ChannelMesh::build(2);
        let client = Box::new(mesh.pop().expect("client endpoint"));
        let endpoint = Box::new(mesh.pop().expect("shard endpoint"));
        let overlay = Arc::new(Overlay {
            ids: vec![Id::from_low_u64(1), Id::from_low_u64(2)],
            neighbors: vec![vec![NodeIdx::new(1)], vec![NodeIdx::new(0)]].into(),
            config,
            shards: 1,
            client: 1,
            epoch: Instant::now(),
        });
        let control = Arc::new(ShardControl::default());
        let controls: Vec<Arc<NodeControl>> = (0..2).map(|_| Arc::default()).collect();
        let shard = Shard::new(0, endpoint, overlay, Arc::clone(&control), &controls, 1);
        (shard, control, controls, client)
    }

    fn lookup(id: u64) -> Bytes {
        lookup_at(0, id)
    }

    /// A lookup entering at `node`, in that node's envelope.
    fn lookup_at(node: u32, id: u64) -> Bytes {
        let msg = Message::initial(
            MessageId(id),
            MessageKind::Lookup,
            Id::from_low_u64(0xfeed),
            NodeIdx::new(node),
            4,
            2,
        );
        WireMessage::Forward(msg)
            .encode_for(NodeIdx::new(node))
            .expect("encode")
    }

    /// An insert entering at node 0 that wants two replicas: node 0 is
    /// the metric's local maximum for this object, stores one and passes
    /// the copy on to node 1, which is none and has nowhere to send it.
    fn insert(id: u64) -> Bytes {
        let msg = Message::initial(
            MessageId(id),
            MessageKind::Insert,
            // Shares more digits with node 0's id than with node 1's.
            Id::from_low_u64(1),
            NodeIdx::new(0),
            4,
            2,
        );
        WireMessage::Forward(msg)
            .encode_for(NodeIdx::new(0))
            .expect("encode")
    }

    fn acks(client: &dyn Transport) -> Vec<NodeIdx> {
        let mut holders = Vec::new();
        while let Ok(Some((_, frame))) = client.recv_timeout(Duration::ZERO) {
            match WireMessage::decode(&frame).expect("a bare wire frame") {
                WireMessage::StoreAck { holder, .. } => holders.push(holder),
                other => panic!("expected a store-ack, got {other:?}"),
            }
        }
        holders
    }

    #[test]
    fn a_duplicate_is_counted_and_suppressed() {
        for ds in [true, false] {
            let (mut shard, ..) =
                two_nodes_one_shard(MpilConfig::default().with_duplicate_suppression(ds));
            shard.turn(&lookup(7), None);
            shard.turn(&lookup(8), None);
            shard.turn(&lookup(7), None);
            let stats = shard.nodes[0].stats;
            assert_eq!(stats.duplicates_seen, 1, "ds={ds}");
            assert_eq!(stats.duplicates_suppressed, u64::from(ds), "ds={ds}");
        }
    }

    /// A hop between two nodes of one shard touches neither the codec
    /// nor the endpoint, and is a forward and a frame all the same.
    #[test]
    fn a_hop_inside_the_shard_is_counted_and_never_leaves_it() {
        let (mut shard, _, _, client) = two_nodes_one_shard(MpilConfig::default());
        shard.turn(&insert(1), None);
        assert!(shard.queue.is_empty(), "a turn runs to completion");
        let [a, b] = [shard.nodes[0].stats, shard.nodes[1].stats];
        assert_eq!((a.frames, a.stores, a.forwards), (1, 1, 1));
        assert_eq!((b.frames, b.stores, b.forwards), (1, 0, 0));
        assert_eq!(acks(client.as_ref()), [NodeIdx::new(0)]);
        assert!(
            matches!(shard.transport.recv_timeout(Duration::ZERO), Ok(None)),
            "nothing was sent to the shard's own endpoint"
        );
    }

    /// Deafness belongs to the destination node, not to the way a frame
    /// travels: copies handed over in-process are dropped and counted
    /// like datagrams.
    #[test]
    fn a_deaf_node_drops_frames_from_its_own_shard() {
        let (mut shard, _, controls, client) = two_nodes_one_shard(MpilConfig::default());
        controls[1].perturb_until(shard.overlay.epoch.elapsed() + FAR);
        shard.turn(&insert(1), None);
        controls[1].heal();
        controls[1].park();
        shard.turn(&insert(2), None);
        controls[1].unpark();
        shard.turn(&insert(3), None);
        let [a, b] = [shard.nodes[0].stats, shard.nodes[1].stats];
        assert_eq!((a.frames, a.stores, a.forwards), (3, 3, 3));
        assert_eq!((b.dropped_perturbed, b.dropped_parked), (1, 1));
        assert_eq!(b.frames, 1, "served once it hears again");
        assert_eq!(acks(client.as_ref()).len(), 3);
        // The entry node's own deafness is checked as the datagram is
        // taken off the endpoint.
        controls[0].park();
        shard.turn(&insert(4), None);
        assert_eq!(shard.nodes[0].stats.dropped_parked, 1);
        assert_eq!(shard.nodes[0].stats.frames, 3);
    }

    /// A copy handed over in-process is held to the limit the encoder
    /// would have enforced.
    #[test]
    fn the_wire_route_limit_holds_inside_a_shard() {
        let (mut shard, ..) = two_nodes_one_shard(MpilConfig::default());
        let mut msg = Message::initial(
            MessageId(1),
            MessageKind::Insert,
            Id::from_low_u64(1),
            NodeIdx::new(0),
            4,
            2,
        );
        // Arrives with a full route (of nodes that are not its
        // neighbor): one more hop does not fit the wire.
        msg.route = vec![NodeIdx::new(0); MAX_ROUTE];
        msg.hops = MAX_ROUTE as u32;
        shard.step(0, msg);
        let stats = shard.nodes[0].stats;
        assert_eq!(
            (stats.stores, stats.forwards, stats.encode_errors),
            (1, 0, 1)
        );
        assert!(shard.queue.is_empty());
    }

    /// The four-byte envelope decides whose frame it is before the
    /// codec sees a byte: a damaged frame behind an intact envelope is
    /// one decode error of the node the envelope names and nothing
    /// else, and a payload with no envelope, or one naming no node
    /// hosted here, is nobody's.
    #[test]
    fn a_damaged_enveloped_frame_is_a_decode_error_of_the_node_it_names() {
        let (mut shard, _, _, client) = two_nodes_one_shard(MpilConfig::default());
        let whole = lookup_at(1, 1);
        // Cut anywhere inside the frame; then version, kind and route
        // length each replaced (the last claims 0xff00 hops more than
        // the frame holds).
        let mut damaged: Vec<Vec<u8>> = (4..whole.len()).map(|cut| whole[..cut].to_vec()).collect();
        for (at, byte) in [(4, WIRE_VERSION + 1), (5, 9), (4 + 46, 0xff)] {
            let mut frame = whole.to_vec();
            frame[at] = byte;
            damaged.push(frame);
        }
        // No envelope, and an envelope for a node this shard does not host.
        let mut nobodys: Vec<Vec<u8>> = (0..4).map(|cut| whole[..cut].to_vec()).collect();
        nobodys.push([&[0, 0, 0, 2][..], &whole[4..]].concat());
        for payload in damaged.iter().chain(&nobodys) {
            shard.turn(payload, None);
        }
        let named = NodeStats {
            decode_errors: damaged.len() as u64,
            ..NodeStats::default()
        };
        assert_eq!(
            [shard.nodes[0].stats, shard.nodes[1].stats],
            [NodeStats::default(), named]
        );
        assert!(shard.queue.is_empty());
        assert!(matches!(client.recv_timeout(Duration::ZERO), Ok(None)));
    }

    /// The wake-up protocol: a `Shutdown` frame makes the shard read its
    /// control block, and only what is asked there ends it.
    #[test]
    fn a_shard_sleeps_until_a_frame_and_obeys_only_its_control_block() {
        let (shard, control, _, client) = two_nodes_one_shard(MpilConfig::default());
        let epoch = shard.overlay.epoch;
        let handle = std::thread::spawn(move || shard.run());
        // Nothing requested: the frame is ignored and the shard serves on.
        client
            .send(0, Bytes::from_static(&SHUTDOWN_FRAME))
            .expect("send");
        client.send(0, insert(1)).expect("send");
        let (_, ack) = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("the shard is still serving");
        assert!(matches!(
            WireMessage::decode(&ack),
            Ok(WireMessage::StoreAck { .. })
        ));
        // A drain request followed by the wake-up ends it, long before
        // the idle cap would.
        control.request_drain(epoch.elapsed() + Duration::from_secs(30));
        client
            .send(0, Bytes::from_static(&SHUTDOWN_FRAME))
            .expect("send");
        let stats = handle.join().expect("shard thread");
        assert_eq!(stats.len(), 2, "one set of counters per hosted node");
        assert_eq!(stats[0].frames, 1, "wake-ups are not traffic");
        assert_eq!(stats[0].stores, 1);
        assert_eq!(stats[0].dropped_at_drain + stats[1].dropped_at_drain, 0);
    }

    /// What a drain deadline finds on the endpoint is counted once, at
    /// the node it was for; wake-ups and strangers' datagrams are not
    /// requests.
    #[test]
    fn a_passed_drain_deadline_counts_what_is_queued_per_node() {
        let (shard, control, _, client) = two_nodes_one_shard(MpilConfig::default());
        for id in 0..5 {
            client.send(0, lookup_at(0, id)).expect("send");
        }
        client
            .send(0, Bytes::from_static(&SHUTDOWN_FRAME))
            .expect("send");
        for id in 5..7 {
            client.send(0, lookup_at(1, id)).expect("send");
        }
        // No such node, and too short to carry an envelope.
        client.send(0, lookup_at(2, 7)).expect("send");
        client.send(0, Bytes::from_static(b"xyz")).expect("send");
        control.request_drain(Duration::ZERO);
        let stats = shard.run();
        assert_eq!(
            [stats[0].dropped_at_drain, stats[1].dropped_at_drain],
            [5, 2]
        );
        assert_eq!(stats[0].frames + stats[1].frames, 0, "nothing was served");
    }

    /// The deadline can also pass in the middle of a turn: the copies
    /// still on the run queue are counted, not stepped and not lost.
    #[test]
    fn a_deadline_that_passes_mid_turn_counts_the_run_queue() {
        let (mut shard, ..) = two_nodes_one_shard(MpilConfig::default());
        shard.turn(&insert(1), Some(Duration::ZERO));
        let [a, b] = [shard.nodes[0].stats, shard.nodes[1].stats];
        assert_eq!((a.frames, a.forwards, a.dropped_at_drain), (1, 1, 0));
        assert_eq!((b.frames, b.stores, b.dropped_at_drain), (0, 0, 1));
    }
}
