//! The live cluster: spawn, drive, perturb, and tear down a real MPIL
//! deployment.
//!
//! The nodes of a cluster are dealt over **shards** (module `shard`),
//! one evented thread per core the machine offers and never more than
//! there are nodes; the count is read once at spawn and is not a
//! setting. The mesh has one endpoint per shard and two for the client.
//!
//! Besides the shards the cluster runs one **reader** thread. It
//! blocks on the client's receiving endpoint, decodes every `Reply` and
//! `StoreAck` the moment it arrives and pushes it to the cluster's
//! event sink: by default a channel that [`LiveCluster::poll_event`]
//! receives on, or whatever [`LiveClusterBuilder::spawn_with_sink`] was
//! given (the `mpild` daemon passes the sending half of its inbox, so
//! it sleeps on one channel and never polls the cluster).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mpil::{ConfigError, Message, MessageId, MessageKind, MpilConfig};
use mpil_id::Id;
use mpil_overlay::{NodeIdx, Topology};

use crate::codec::{WireMessage, SHUTDOWN_FRAME};
use crate::node::{NodeControl, NodeStats};
use crate::shard::{Overlay, Shard, ShardControl, IDLE_WAKE};
use crate::transport::{ChannelMesh, Transport, TransportError, UdpMesh};

/// Which mesh the cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process `std::sync::mpsc` channels (fast, loss-free).
    #[default]
    Channel,
    /// Loopback UDP sockets (real datagrams).
    Udp,
}

/// Result of a live lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveLookup {
    /// The node that answered first.
    pub holder: NodeIdx,
    /// Forward-path hops of the first reply.
    pub hops: u32,
    /// Wall-clock time from issue to first reply.
    pub elapsed: Duration,
}

/// A client-bound frame surfaced by [`LiveCluster::poll_event`]: the
/// asynchronous half of the pipelined submit/poll API the daemon builds
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// A replica holder answered a lookup.
    Reply {
        /// The lookup this answers ([`LiveCluster::submit`]'s return).
        msg_id: MessageId,
        /// The object that was found.
        object: Id,
        /// The node holding the replica.
        holder: NodeIdx,
        /// Forward-path hops the lookup traveled.
        hops: u32,
    },
    /// A node confirmed a replica deposit.
    StoreAck {
        /// The insert this confirms.
        msg_id: MessageId,
        /// The inserted object.
        object: Id,
        /// The node that stored the replica.
        holder: NodeIdx,
    },
}

/// Why [`LiveClusterBuilder::spawn`] could not bring the cluster up.
#[derive(Debug)]
pub enum SpawnError {
    /// The MPIL parameters failed [`MpilConfig::validate`].
    Config(ConfigError),
    /// Binding the UDP mesh or spawning a thread failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Config(e) => write!(f, "invalid MPIL configuration: {e}"),
            SpawnError::Io(e) => write!(f, "cluster spawn I/O failure: {e}"),
        }
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpawnError::Config(e) => Some(e),
            SpawnError::Io(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SpawnError {
    fn from(e: ConfigError) -> Self {
        SpawnError::Config(e)
    }
}

impl From<std::io::Error> for SpawnError {
    fn from(e: std::io::Error) -> Self {
        SpawnError::Io(e)
    }
}

/// Builder for a [`LiveCluster`].
#[derive(Debug)]
pub struct LiveClusterBuilder {
    config: MpilConfig,
    transport: TransportKind,
    seed: u64,
}

impl Default for LiveClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveClusterBuilder {
    /// A builder with default MPIL parameters on the channel mesh.
    pub fn new() -> Self {
        LiveClusterBuilder {
            config: MpilConfig::default(),
            transport: TransportKind::Channel,
            seed: 42,
        }
    }

    /// Sets the MPIL parameters.
    pub fn config(mut self, config: MpilConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the transport.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Seeds the shards' tie-breaking RNGs, one per shard: a one-shard
    /// cluster breaks ties as a [`mpil::StaticEngine`] of this seed does.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spawns the shards that host the nodes of `topo` and returns the
    /// running cluster. Client-bound events queue up for
    /// [`LiveCluster::poll_event`].
    ///
    /// # Errors
    ///
    /// [`SpawnError::Config`] if the MPIL parameters are invalid;
    /// [`SpawnError::Io`] if binding the UDP mesh or spawning a thread
    /// fails (any threads already started are shut down and joined
    /// before the error is returned).
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty.
    pub fn spawn(self, topo: &Topology) -> Result<LiveCluster, SpawnError> {
        self.spawn_on(machine_shards(), topo)
    }

    /// [`LiveClusterBuilder::spawn`] on a given number of shards (at
    /// most one per node): what the tests pin a layout with.
    fn spawn_on(self, shards: usize, topo: &Topology) -> Result<LiveCluster, SpawnError> {
        let (tx, rx) = channel();
        self.spawn_inner(shards, topo, move |event| tx.send(event).is_ok(), rx)
    }

    /// Like [`LiveClusterBuilder::spawn`], but every client-bound event
    /// is handed to `sink` on the reader thread as it arrives, and
    /// [`LiveCluster::poll_event`] (and with it the blocking
    /// [`LiveCluster::insert`] and [`LiveCluster::lookup`]) has nothing
    /// to receive: drive such a cluster with [`LiveCluster::submit`].
    /// The reader stops delivering once `sink` returns `false`.
    ///
    /// # Errors
    ///
    /// As [`LiveClusterBuilder::spawn`].
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty.
    pub fn spawn_with_sink(
        self,
        topo: &Topology,
        sink: impl FnMut(ClientEvent) -> bool + Send + 'static,
    ) -> Result<LiveCluster, SpawnError> {
        // The sending half is dropped here: polling this cluster
        // reports `Disconnected` instead of waiting for nothing.
        let (_, rx) = channel();
        self.spawn_inner(machine_shards(), topo, sink, rx)
    }

    fn spawn_inner(
        self,
        shards: usize,
        topo: &Topology,
        sink: impl FnMut(ClientEvent) -> bool + Send + 'static,
        events: Receiver<ClientEvent>,
    ) -> Result<LiveCluster, SpawnError> {
        assert!(!topo.is_empty(), "cannot spawn an empty cluster");
        self.config.validate()?;
        let n = topo.len();
        let shards = shards.clamp(1, n);

        // Endpoints 0..shards are the shards'. The client has two:
        // `shards`, which replies and store-acks are addressed to and
        // the reader thread owns, and `shards + 1`, which the cluster
        // submits from.
        let mut endpoints: Vec<Box<dyn Transport>> = match self.transport {
            TransportKind::Channel => ChannelMesh::build(shards + 2)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            TransportKind::Udp => UdpMesh::build(shards + 2)?
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
        };
        #[expect(
            clippy::expect_used,
            reason = "P001: mesh builders return exactly shards + 2 endpoints"
        )]
        let client_tx = endpoints.pop().expect("shards + 2 endpoints");
        #[expect(
            clippy::expect_used,
            reason = "P001: mesh builders return exactly shards + 2 endpoints"
        )]
        let client_rx = endpoints.pop().expect("shards + 2 endpoints");
        let (ids, neighbors) = topo.clone().into_parts();
        let overlay = Arc::new(Overlay {
            ids,
            neighbors,
            config: self.config,
            shards,
            client: shards,
            epoch: Instant::now(),
        });

        let reader_stop = Arc::new(AtomicBool::new(false));
        let reader = std::thread::Builder::new()
            .name("mpil-client-reader".to_string())
            .spawn({
                let stop = Arc::clone(&reader_stop);
                move || pump_events(client_rx.as_ref(), &stop, sink)
            })?;
        let mut cluster = LiveCluster {
            overlay: Arc::clone(&overlay),
            client: client_tx,
            events,
            controls: (0..n).map(|_| Arc::default()).collect(),
            shards: Vec::with_capacity(shards),
            reader_stop,
            reader: Some(reader),
            next_msg: 0,
        };
        for (k, transport) in endpoints.into_iter().enumerate() {
            let control = Arc::new(ShardControl::default());
            let shard = Shard::new(
                k,
                transport,
                Arc::clone(&overlay),
                Arc::clone(&control),
                &cluster.controls,
                self.seed,
            );
            let spawned = std::thread::Builder::new()
                .name(format!("mpil-shard-{k}"))
                .spawn(move || shard.run());
            match spawned {
                Ok(handle) => cluster.shards.push((control, handle)),
                Err(e) => {
                    // Unwind the partial cluster: stop the threads that
                    // did start, then surface the original error.
                    for (control, _) in &cluster.shards {
                        control.request_shutdown();
                    }
                    cluster.stop_threads();
                    return Err(SpawnError::Io(e));
                }
            }
        }
        Ok(cluster)
    }
}

/// Shards a cluster spawned on this machine runs: one per core the
/// process may use.
fn machine_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The reader thread: blocks on the client's receiving endpoint and
/// hands every decoded reply and store-ack to `sink`, until told to
/// stop, the mesh is torn down, or `sink` reports its receiver gone.
fn pump_events(
    endpoint: &dyn Transport,
    stop: &AtomicBool,
    mut sink: impl FnMut(ClientEvent) -> bool,
) {
    while !stop.load(Ordering::SeqCst) {
        let payload = match endpoint.recv_timeout(IDLE_WAKE) {
            Ok(Some((_, payload))) => payload,
            Ok(None) => continue,
            Err(_) => return,
        };
        let event = match WireMessage::decode(&payload) {
            Ok(WireMessage::Reply {
                msg_id,
                object,
                holder,
                hops,
            }) => ClientEvent::Reply {
                msg_id,
                object,
                holder,
                hops,
            },
            Ok(WireMessage::StoreAck {
                msg_id,
                object,
                holder,
            }) => ClientEvent::StoreAck {
                msg_id,
                object,
                holder,
            },
            // A `Shutdown` frame is the wake-up that makes the loop read
            // `stop` again; forwards are never client-bound; garbage is
            // counted by the nodes, not the client.
            Ok(WireMessage::Shutdown | WireMessage::Forward(_)) | Err(_) => continue,
        };
        if !sink(event) {
            return;
        }
    }
}

/// A running live MPIL deployment.
///
/// The cluster object is the *client*: it owns the extra mesh
/// endpoints, issues operations through any entry node, and receives
/// replies and store-acks directly from the holders.
pub struct LiveCluster {
    overlay: Arc<Overlay>,
    /// The endpoint operations (and wake-up frames) are sent from.
    client: Box<dyn Transport>,
    /// The default event sink's receiving half.
    events: Receiver<ClientEvent>,
    /// One control block per node.
    controls: Vec<Arc<NodeControl>>,
    /// The running shards, in mesh order.
    shards: Vec<(Arc<ShardControl>, JoinHandle<Vec<NodeStats>>)>,
    reader_stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    next_msg: u64,
}

impl LiveCluster {
    /// Number of nodes (excluding the client endpoint).
    pub fn len(&self) -> usize {
        self.controls.len()
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.controls.is_empty()
    }

    /// The MPIL parameters the nodes run.
    pub fn config(&self) -> MpilConfig {
        self.overlay.config
    }

    /// Shard threads the nodes are dealt over: the cores the machine
    /// offered at spawn, at most one per node.
    pub fn shards(&self) -> usize {
        self.overlay.shards
    }

    fn fresh_msg_id(&mut self) -> MessageId {
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// Injects an operation without waiting for its outcome: the
    /// pipelined half of the client API. The returned [`MessageId`]
    /// matches the `msg_id` of the [`ClientEvent`]s the operation
    /// produces; pump them with [`LiveCluster::poll_event`]. Many
    /// operations can be in flight at once.
    ///
    /// # Errors
    ///
    /// [`TransportError`] if the endpoint of the entry node's shard
    /// refuses the frame.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn submit(
        &mut self,
        kind: MessageKind,
        origin: NodeIdx,
        object: Id,
    ) -> Result<MessageId, TransportError> {
        self.submit_flows(kind, origin, object, self.overlay.config.max_flows)
    }

    /// [`LiveCluster::submit`] with a flow budget of `flows` (at least
    /// one: a copy with none never leaves its entry node) in place of the
    /// configured `max_flows`. This is what the `mpild` daemon serves
    /// load with: a lookup's first attempt goes in narrow, its hedges
    /// full-width.
    ///
    /// # Errors
    ///
    /// [`TransportError`] if the endpoint of the entry node's shard
    /// refuses the frame.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn submit_flows(
        &mut self,
        kind: MessageKind,
        origin: NodeIdx,
        object: Id,
        flows: u32,
    ) -> Result<MessageId, TransportError> {
        assert!(origin.index() < self.len(), "origin out of range");
        let msg_id = self.fresh_msg_id();
        let initial = Message::initial(
            msg_id,
            kind,
            object,
            origin,
            flows.max(1),
            self.overlay.config.num_replicas,
        );
        let frame = match WireMessage::Forward(initial).encode_for(origin) {
            Ok(frame) => frame,
            // Fresh messages carry no route; encoding cannot hit the
            // route-length limit. Treat a regression as a dropped frame
            // rather than panicking in service-path code.
            Err(_) => return Ok(msg_id),
        };
        self.client.send(self.overlay.shard_of(origin), frame)?;
        Ok(msg_id)
    }

    /// Receives the next client-bound event (a lookup reply or a
    /// store-ack), waiting at most `timeout`; `Ok(None)` on timeout.
    /// Events are decoded by the reader thread as they arrive (frames
    /// that fail to decode are skipped) and wait here in arrival order;
    /// this is a receive on that queue, not a poll of the transport.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the mesh is torn down, or
    /// when the cluster was spawned with a sink of its own.
    pub fn poll_event(&mut self, timeout: Duration) -> Result<Option<ClientEvent>, TransportError> {
        match self.events.recv_timeout(timeout) {
            Ok(event) => Ok(Some(event)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Inserts `object` through `origin`, collecting store-acks for
    /// `wait`; returns the nodes that confirmed a replica.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn insert(&mut self, origin: NodeIdx, object: Id, wait: Duration) -> Vec<NodeIdx> {
        let Ok(msg_id) = self.submit(MessageKind::Insert, origin, object) else {
            return Vec::new();
        };
        let mut holders = Vec::new();
        for event in self.events_until(Instant::now() + wait) {
            if let ClientEvent::StoreAck {
                msg_id: got,
                holder,
                ..
            } = event
            {
                if got == msg_id && !holders.contains(&holder) {
                    holders.push(holder);
                }
            }
        }
        holders
    }

    /// Looks up `object` through `origin`; returns the first positive
    /// reply within `timeout`, or `None`.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn lookup(&mut self, origin: NodeIdx, object: Id, timeout: Duration) -> Option<LiveLookup> {
        let started = Instant::now();
        let msg_id = self.submit(MessageKind::Lookup, origin, object).ok()?;
        self.events_until(started + timeout)
            .find_map(|event| match event {
                ClientEvent::Reply {
                    msg_id: got,
                    holder,
                    hops,
                    ..
                } if got == msg_id => Some(LiveLookup {
                    holder,
                    hops,
                    elapsed: started.elapsed(),
                }),
                _ => None,
            })
    }

    /// The client-bound events that arrive before `deadline`, as they
    /// arrive; the mesh going down ends them early.
    fn events_until(&mut self, deadline: Instant) -> impl Iterator<Item = ClientEvent> + '_ {
        std::iter::from_fn(move || {
            let left = deadline.checked_duration_since(Instant::now());
            let remaining = left.filter(|r| !r.is_zero())?;
            self.poll_event(remaining).ok().flatten()
        })
    }

    /// Makes `node` unresponsive for `duration` (the live analogue of
    /// the paper's perturbation).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn perturb(&self, node: NodeIdx, duration: Duration) {
        let until = self.overlay.epoch.elapsed().saturating_add(duration);
        self.controls[node.index()].perturb_until(until);
    }

    /// Restores `node` immediately.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn heal(&self, node: NodeIdx) {
        self.controls[node.index()].heal();
    }

    /// Parks `node`: provisioned (hosted by its shard, addressable) but
    /// not serving — it drops every frame until
    /// [`LiveCluster::unpark`]. The daemon uses this for spare capacity
    /// that `join` later brings into service.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn park(&self, node: NodeIdx) {
        self.controls[node.index()].park();
    }

    /// Brings a parked node into service.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn unpark(&self, node: NodeIdx) {
        self.controls[node.index()].unpark();
    }

    /// Whether `node` is currently parked.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_parked(&self, node: NodeIdx) -> bool {
        self.controls[node.index()].is_parked()
    }

    /// The default drain deadline of [`LiveCluster::shutdown`].
    pub(crate) const DEFAULT_DRAIN: Duration = Duration::from_millis(500);

    /// Stops every node and returns their counters, draining in-flight
    /// traffic first (for at most 500 ms).
    pub fn shutdown(self) -> Vec<NodeStats> {
        self.shutdown_drain(Self::DEFAULT_DRAIN)
    }

    /// Stops every shard, letting each keep serving until its endpoint
    /// has run dry or `drain` has elapsed, and returns the nodes'
    /// counters, one per node in node order. Frames still waiting when
    /// the deadline passes are counted into
    /// [`NodeStats::dropped_at_drain`] of the node they were for.
    /// `Duration::ZERO` is an immediate shutdown that still accounts for
    /// what it drops.
    pub fn shutdown_drain(mut self, drain: Duration) -> Vec<NodeStats> {
        let until = self.overlay.epoch.elapsed().saturating_add(drain);
        for (control, _) in &self.shards {
            control.request_drain(until);
        }
        self.stop_threads()
    }

    /// Wakes every shard so it acts on what its control block now asks,
    /// joins the shards, then stops and joins the reader (last, so the
    /// replies of the traffic that drained through are still
    /// delivered). Returns the nodes' counters in node order.
    fn stop_threads(&mut self) -> Vec<NodeStats> {
        let wake = Bytes::from_static(&SHUTDOWN_FRAME);
        for shard in 0..self.shards.len() {
            // A refused wake-up only delays that shard to its idle cap.
            let _ = self.client.send(shard, wake.clone());
        }
        #[expect(
            clippy::expect_used,
            reason = "P001: re-raises a worker panic at shutdown; swallowing it would hide the crash"
        )]
        let by_shard: Vec<Vec<NodeStats>> = self
            .shards
            .drain(..)
            .map(|(_, handle)| handle.join().expect("shard thread panicked"))
            .collect();
        self.reader_stop.store(true, Ordering::SeqCst);
        let _ = self.client.send(self.overlay.client, wake);
        if let Some(reader) = self.reader.take() {
            #[expect(
                clippy::expect_used,
                reason = "P001: re-raises a worker panic at shutdown; swallowing it would hide the crash"
            )]
            reader.join().expect("reader thread panicked");
        }
        // After a partial spawn the shards that never started have no
        // counters.
        (0..self.len() as u32)
            .map(NodeIdx::new)
            .filter_map(|node| {
                let of_shard = by_shard.get(self.overlay.shard_of(node))?;
                of_shard.get(self.overlay.slot_of(node)).copied()
            })
            .collect()
    }
}

impl std::fmt::Debug for LiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCluster")
            .field("nodes", &self.len())
            .field("shards", &self.overlay.shards)
            .field("config", &self.overlay.config)
            .field("operations_issued", &self.next_msg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil::{SplitPolicy, StaticEngine};
    use mpil_overlay::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn topo(n: usize, d: usize, seed: u64) -> Topology {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::random_regular(n, d, &mut rng).expect("generator")
    }

    fn config() -> MpilConfig {
        MpilConfig::default().with_max_flows(8).with_num_replicas(3)
    }

    /// Inserts and returns who acked: waits long for the first ack and
    /// then until the acks stop coming.
    fn insert_and_settle(cluster: &mut LiveCluster, origin: NodeIdx, object: Id) -> Vec<NodeIdx> {
        let id = cluster
            .submit(MessageKind::Insert, origin, object)
            .expect("submit");
        let mut holders = Vec::new();
        let mut wait = Duration::from_secs(5);
        while let Ok(Some(event)) = cluster.poll_event(wait) {
            if let ClientEvent::StoreAck { msg_id, holder, .. } = event {
                if msg_id == id {
                    holders.push(holder);
                    wait = Duration::from_millis(25);
                }
            }
        }
        holders
    }

    /// The layout is not part of the protocol: the same topology, seed
    /// and operations give the same answers however the nodes are dealt
    /// over shards, on either transport.
    #[test]
    fn every_layout_serves_the_same_operations() {
        let topo = topo(24, 6, 31);
        let n = topo.len();
        for transport in [TransportKind::Channel, TransportKind::Udp] {
            for shards in [1, 2, 3, n] {
                let tag = format!("{transport:?} on {shards} shards");
                let mut cluster = LiveClusterBuilder::new()
                    .config(config())
                    .transport(transport)
                    .seed(7)
                    .spawn_on(shards, &topo)
                    .expect("spawn");
                assert_eq!(cluster.shards(), shards);
                let mut rng = SmallRng::seed_from_u64(32);
                let objects: Vec<Id> = (0..6).map(|_| Id::random(&mut rng)).collect();
                for (i, &object) in objects.iter().enumerate() {
                    let origin = NodeIdx::new((5 * i % n) as u32);
                    let holders = insert_and_settle(&mut cluster, origin, object);
                    assert!(!holders.is_empty(), "{tag}: insert {i} was never acked");
                    for holder in holders {
                        let decision = mpil::routing_decision(
                            config().space,
                            object,
                            holder,
                            topo.neighbors(holder),
                            topo.ids(),
                            |_| false,
                        );
                        assert!(
                            decision.is_local_max,
                            "{tag}: {holder} acked insert {i} but is no local maximum"
                        );
                    }
                }
                for (i, &object) in objects.iter().enumerate() {
                    let origin = NodeIdx::new((7 * i % n + 1) as u32);
                    let hit = cluster.lookup(origin, object, Duration::from_secs(3));
                    assert!(hit.is_some(), "{tag}: lookup {i} found nothing");
                }
                let absent = Id::random(&mut rng);
                let miss = cluster.lookup(NodeIdx::new(2), absent, Duration::from_millis(150));
                assert_eq!(miss, None, "{tag}: found what nobody inserted");
                let stats = cluster.shutdown();
                assert_eq!(stats.len(), n, "{tag}");
                let dropped: u64 = stats.iter().map(|s| s.dropped_at_drain).sum();
                assert_eq!(dropped, 0, "{tag}: a quiet cluster drains clean");
            }
        }
    }

    /// A one-shard cluster is the static engine: its one run queue,
    /// served in FIFO order, is strict hop order, and shard 0 draws tie
    /// subsets from the stream `StaticEngine` draws from. Topology, seed
    /// and operations are `crates/core/tests/differential.rs`'s.
    #[test]
    fn one_shard_replays_the_static_engine() {
        const SEED: u64 = 11;
        let topo = topo(200, 10, SEED);
        let mut node_rng = SmallRng::seed_from_u64(SEED ^ 0xd1ff);
        let mut node = move || NodeIdx::new(node_rng.gen_range(0..200));
        let mut id_rng = SmallRng::seed_from_u64(SEED ^ 0x1d);
        let objects: Vec<Id> = (0..75).map(|_| Id::random(&mut id_rng)).collect();
        // 50 inserts; lookups of half of them and of 25 nobody inserted.
        let inserts = objects[..50]
            .iter()
            .map(|&o| (MessageKind::Insert, node(), o));
        let mut ops: Vec<_> = inserts.collect();
        let wanted = objects[..25].iter().chain(&objects[50..]);
        ops.extend(wanted.map(|&o| (MessageKind::Lookup, node(), o)));
        // `TopK` (differential.rs's config) never draws from the RNG;
        // `MetricTies` cuts ties over quota with it.
        let ties = SplitPolicy::MetricTies;
        // The last run's lookups go in narrower than the inserts, as the
        // daemon's first attempts do.
        let runs = [
            (SplitPolicy::TopK, true, 4),
            (SplitPolicy::TopK, false, 4),
            (ties, true, 4),
            (ties, false, 4),
            (ties, true, 2),
        ];
        for (policy, ds, lookup_flows) in runs {
            let tag = format!("{policy:?}, ds={ds}, {lookup_flows}-flow lookups");
            let config = MpilConfig::default()
                .with_max_flows(4)
                .with_num_replicas(3)
                .with_split_policy(policy)
                .with_duplicate_suppression(ds);
            let flows = |kind| match kind {
                MessageKind::Insert => config.max_flows,
                MessageKind::Lookup => lookup_flows,
            };
            let mut fixed = StaticEngine::new(&topo, config, SEED);
            let (mut holders, mut first_hops, mut forwards, mut duplicates) =
                (vec![], vec![], 0, 0);
            for &(kind, origin, object) in &ops {
                let (messages, copies) = if kind == MessageKind::Insert {
                    let report = fixed.insert(origin, object);
                    holders.push(fixed.replica_holders(object));
                    (report.messages, report.duplicates)
                } else {
                    fixed.set_config(config.with_max_flows(lookup_flows));
                    let report = fixed.lookup(origin, object);
                    first_hops.push(report.first_reply_hops);
                    (report.messages, report.duplicates)
                };
                forwards += messages;
                duplicates += copies;
            }

            // The same operations, pipelined into the one shard. It serves
            // frames in order, so a lookup entering at a node that acked
            // an insert, submitted after all of them, answers last: every
            // event before its reply is in, misses included.
            let mut cluster = LiveClusterBuilder::new()
                .config(config)
                .seed(SEED)
                .spawn_on(1, &topo)
                .expect("spawn");
            for &(kind, origin, object) in &ops {
                let submitted = cluster.submit_flows(kind, origin, object, flows(kind));
                submitted.expect("submit");
            }
            let (mut acks, mut replies) = (vec![Vec::new(); ops.len()], vec![None; ops.len()]);
            let mut barrier = None;
            loop {
                let event = cluster.poll_event(Duration::from_secs(10));
                match event.expect("mesh up").expect("the barrier answers") {
                    ClientEvent::StoreAck { msg_id, holder, .. } => {
                        let op = msg_id.0 as usize;
                        acks[op].push(holder);
                        if barrier.is_none() {
                            let at = cluster.submit(MessageKind::Lookup, holder, ops[op].2);
                            barrier = Some(at.expect("submit"));
                        }
                    }
                    ClientEvent::Reply { msg_id, .. } if Some(msg_id) == barrier => break,
                    ClientEvent::Reply { msg_id, hops, .. } => {
                        replies[msg_id.0 as usize].get_or_insert(hops);
                    }
                }
            }
            let stats = cluster.shutdown();

            for (acked, expected) in acks.iter_mut().zip(&holders) {
                acked.sort();
                acked.dedup();
                assert_eq!(acked, expected, "{tag}: holders");
            }
            assert_eq!(replies[holders.len()..], first_hops, "{tag}: hops");
            assert!(first_hops.contains(&None), "{tag}: some lookups miss");
            let sum = |field: fn(&NodeStats) -> u64| stats.iter().map(field).sum::<u64>();
            assert_eq!(sum(|s| s.forwards), forwards, "{tag}: forwards");
            assert_eq!(sum(|s| s.duplicates_seen), duplicates, "{tag}: duplicates");
            let suppressed = if ds { duplicates } else { 0 };
            assert_eq!(sum(|s| s.duplicates_suppressed), suppressed, "{tag}");
        }
    }

    /// Counters come back one per node, in node order, whichever shard
    /// hosted the node.
    #[test]
    fn shutdown_returns_counters_in_node_order() {
        let topo = topo(16, 4, 33);
        for shards in [1, 3, 16] {
            let mut cluster = LiveClusterBuilder::new()
                .config(config())
                .spawn_on(shards, &topo)
                .expect("spawn");
            let object = Id::from_low_u64(0x0bde);
            let mut holders = insert_and_settle(&mut cluster, NodeIdx::new(0), object);
            holders.sort();
            assert!(!holders.is_empty());
            let stats = cluster.shutdown_drain(Duration::from_secs(5));
            assert_eq!(stats.len(), 16);
            let stored: Vec<NodeIdx> = (0..16)
                .map(NodeIdx::new)
                .filter(|node| stats[node.index()].stores > 0)
                .collect();
            assert_eq!(stored, holders, "{shards} shards");
            assert_eq!(stats[0].frames, 1, "the entry node saw the insert once");
        }
    }

    /// One thread per shard and the reader, however many nodes; the
    /// shard count comes from the machine and never exceeds the nodes.
    #[test]
    fn a_cluster_runs_a_thread_per_shard_not_per_node() {
        let cores = machine_shards();
        let cluster = LiveClusterBuilder::new()
            .spawn(&topo(48, 8, 34))
            .expect("spawn");
        assert_eq!(cluster.shards(), cores.min(48));
        assert_eq!(
            cluster.shards.len() + usize::from(cluster.reader.is_some()),
            cluster.shards() + 1
        );
        assert_eq!(cluster.shutdown().len(), 48);
        let cluster = LiveClusterBuilder::new()
            .spawn_on(64, &topo(5, 2, 35))
            .expect("spawn");
        assert_eq!(cluster.shards(), 5);
        assert_eq!(cluster.shards.len(), 5);
        cluster.shutdown();
    }
}
