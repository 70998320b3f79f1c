//! The live cluster: spawn, drive, perturb, and tear down a real
//! thread-per-node MPIL deployment.
//!
//! Besides the node threads the cluster runs one **reader** thread. It
//! blocks on the client's receiving endpoint, decodes every `Reply` and
//! `StoreAck` the moment it arrives and pushes it to the cluster's
//! event sink: by default a channel that [`LiveCluster::poll_event`]
//! receives on, or whatever [`LiveClusterBuilder::spawn_with_sink`] was
//! given (the `mpild` daemon passes the sending half of its inbox, so
//! it sleeps on one channel and never polls the cluster).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use mpil::{ConfigError, Message, MessageId, MessageKind, MpilConfig};
use mpil_id::Id;
use mpil_overlay::{NodeIdx, Topology};

use crate::codec::{WireMessage, SHUTDOWN_FRAME};
use crate::node::{run_node, NodeControl, NodeSetup, NodeStats, IDLE_WAKE};
use crate::transport::{ChannelMesh, Transport, TransportError, UdpMesh};

/// Which mesh the cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (fast, loss-free).
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
    /// Binding the UDP mesh or spawning a node thread failed.
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

    /// Seeds the nodes' tie-breaking RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spawns one thread per node of `topo` and returns the running
    /// cluster. Client-bound events queue up for
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
        let (tx, rx) = unbounded();
        self.spawn_inner(topo, move |event| tx.send(event).is_ok(), rx)
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
        let (_, rx) = unbounded();
        self.spawn_inner(topo, sink, rx)
    }

    fn spawn_inner(
        self,
        topo: &Topology,
        sink: impl FnMut(ClientEvent) -> bool + Send + 'static,
        events: Receiver<ClientEvent>,
    ) -> Result<LiveCluster, SpawnError> {
        assert!(!topo.is_empty(), "cannot spawn an empty cluster");
        self.config.validate()?;
        let n = topo.len();
        let ids = Arc::new(topo.ids().to_vec());
        let neighbors: Arc<Vec<Vec<NodeIdx>>> = Arc::new(
            topo.iter_nodes()
                .map(|v| topo.neighbors(v).to_vec())
                .collect(),
        );

        // Endpoints 0..n are the nodes'. The client has two: `n`, which
        // replies and store-acks are addressed to and the reader thread
        // owns, and `n + 1`, which the cluster submits from.
        let mut endpoints: Vec<Box<dyn Transport>> = match self.transport {
            TransportKind::Channel => ChannelMesh::build(n + 2)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            TransportKind::Udp => UdpMesh::build(n + 2)?
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
        };
        // Both mesh builders return exactly the n + 2 endpoints requested.
        let client_tx = endpoints.pop().expect("n + 2 endpoints"); // mpil-lint: allow(P001, mesh builders return exactly n + 2 endpoints)
        let client_rx = endpoints.pop().expect("n + 2 endpoints"); // mpil-lint: allow(P001, mesh builders return exactly n + 2 endpoints)

        let reader_stop = Arc::new(AtomicBool::new(false));
        let reader = std::thread::Builder::new()
            .name("mpil-client-reader".to_string())
            .spawn({
                let stop = Arc::clone(&reader_stop);
                move || pump_events(client_rx.as_ref(), &stop, sink)
            })?;
        let mut cluster = LiveCluster {
            n,
            config: self.config,
            client: client_tx,
            events,
            controls: Vec::with_capacity(n),
            handles: Vec::with_capacity(n),
            reader_stop,
            reader: Some(reader),
            next_msg: 0,
        };
        for (i, transport) in endpoints.into_iter().enumerate() {
            let control = Arc::new(NodeControl::default());
            cluster.controls.push(Arc::clone(&control));
            let setup = NodeSetup {
                node: NodeIdx::new(i as u32),
                ids: Arc::clone(&ids),
                neighbors: Arc::clone(&neighbors),
                config: self.config,
                client: n,
                seed: self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("mpil-node-{i}"))
                .spawn(move || run_node(transport, setup, control));
            match spawned {
                Ok(handle) => cluster.handles.push(handle),
                Err(e) => {
                    // Unwind the partial cluster: stop the threads that
                    // did start, then surface the original error.
                    for c in &cluster.controls {
                        c.request_shutdown();
                    }
                    cluster.stop_threads();
                    return Err(SpawnError::Io(e));
                }
            }
        }
        Ok(cluster)
    }
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
    n: usize,
    config: MpilConfig,
    /// The endpoint operations (and wake-up frames) are sent from.
    client: Box<dyn Transport>,
    /// The default event sink's receiving half.
    events: Receiver<ClientEvent>,
    controls: Vec<Arc<NodeControl>>,
    handles: Vec<JoinHandle<NodeStats>>,
    reader_stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    next_msg: u64,
}

impl LiveCluster {
    /// Number of nodes (excluding the client endpoint).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The MPIL parameters the nodes run.
    pub fn config(&self) -> MpilConfig {
        self.config
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
    /// operations can be in flight at once — this is what the `mpild`
    /// daemon serves load with.
    ///
    /// # Errors
    ///
    /// [`TransportError`] if the entry node's endpoint refuses the
    /// frame.
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
        assert!(origin.index() < self.n, "origin out of range");
        let msg_id = self.fresh_msg_id();
        let initial = Message::initial(
            msg_id,
            kind,
            object,
            origin,
            self.config.max_flows,
            self.config.num_replicas,
        );
        let frame = match WireMessage::Forward(initial).encode() {
            Ok(frame) => frame,
            // Fresh messages carry no route; encoding cannot hit the
            // route-length limit. Treat a regression as a dropped frame
            // rather than panicking in service-path code.
            Err(_) => return Ok(msg_id),
        };
        self.client.send(origin.index(), frame)?;
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
        let deadline = Instant::now() + wait;
        while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
            if remaining.is_zero() {
                break;
            }
            match self.poll_event(remaining) {
                Ok(Some(ClientEvent::StoreAck {
                    msg_id: got,
                    holder,
                    ..
                })) => {
                    if got == msg_id && !holders.contains(&holder) {
                        holders.push(holder);
                    }
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
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
        let deadline = started + timeout;
        while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
            if remaining.is_zero() {
                break;
            }
            match self.poll_event(remaining) {
                Ok(Some(ClientEvent::Reply {
                    msg_id: got,
                    holder,
                    hops,
                    ..
                })) => {
                    if got == msg_id {
                        return Some(LiveLookup {
                            holder,
                            hops,
                            elapsed: started.elapsed(),
                        });
                    }
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
        None
    }

    /// Makes `node` unresponsive for `duration` (the live analogue of
    /// the paper's perturbation).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn perturb(&self, node: NodeIdx, duration: Duration) {
        self.controls[node.index()].perturb_for(duration);
    }

    /// Restores `node` immediately.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn heal(&self, node: NodeIdx) {
        self.controls[node.index()].heal();
    }

    /// Parks `node`: provisioned (thread running, mesh endpoint bound)
    /// but not serving — it drops every frame until
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
    pub const DEFAULT_DRAIN: Duration = Duration::from_millis(500);

    /// Stops every node and returns their counters, draining in-flight
    /// traffic first (bounded by [`LiveCluster::DEFAULT_DRAIN`]).
    pub fn shutdown(self) -> Vec<NodeStats> {
        self.shutdown_drain(Self::DEFAULT_DRAIN)
    }

    /// Stops every node, letting each keep serving until its queue has
    /// drained or `drain` has elapsed, and returns their counters.
    /// Frames still queued when the deadline passes are counted into
    /// [`NodeStats::dropped_at_drain`]. `Duration::ZERO` is an
    /// immediate shutdown that still accounts for what it drops.
    pub fn shutdown_drain(mut self, drain: Duration) -> Vec<NodeStats> {
        for c in &self.controls {
            c.request_drain(drain);
        }
        self.stop_threads()
    }

    /// Wakes every node so it acts on what its control block now asks,
    /// joins the nodes, then stops and joins the reader (last, so the
    /// replies of the traffic that drained through are still
    /// delivered). Returns the nodes' counters.
    fn stop_threads(&mut self) -> Vec<NodeStats> {
        let wake = Bytes::from_static(&SHUTDOWN_FRAME);
        for node in 0..self.handles.len() {
            // A refused wake-up only delays that node to its idle cap.
            let _ = self.client.send(node, wake.clone());
        }
        let stats = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("node thread panicked")) // mpil-lint: allow(P001, re-raises a worker panic at shutdown; swallowing it would hide the crash)
            .collect();
        self.reader_stop.store(true, Ordering::SeqCst);
        let _ = self.client.send(self.n, wake);
        if let Some(reader) = self.reader.take() {
            reader.join().expect("reader thread panicked"); // mpil-lint: allow(P001, re-raises a worker panic at shutdown; swallowing it would hide the crash)
        }
        stats
    }
}

impl std::fmt::Debug for LiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCluster")
            .field("nodes", &self.n)
            .field("config", &self.config)
            .field("operations_issued", &self.next_msg)
            .finish()
    }
}
