//! The `mpild` daemon: a live MPIL cluster behind a control plane.
//!
//! One [`Daemon`] owns a [`LiveCluster`] (the overlay nodes dealt over
//! one evented shard thread per core, on a channel or loopback-UDP
//! mesh; [`DaemonReport::shards`] says how many) and a
//! [`ControlPlane`]. It is event-driven: everything it reacts to
//! arrives on **one inbox**, a channel of [`Input`]s, and its only
//! thread sleeps in a blocking receive on that channel.
//!
//! 1. **Control requests** — announce / lookup / join / perturb / heal /
//!    stats / drain frames from clients ([`crate::proto`]). A blocking
//!    reader thread per control socket feeds them in ([`UdpControl`]);
//!    the in-process plane needs no thread, its client sends straight
//!    into the inbox ([`ChannelControl`]).
//! 2. **Cluster events** — store-acks and lookup replies, pushed by the
//!    cluster's reader thread the moment they arrive
//!    ([`LiveClusterBuilder::spawn_with_sink`]).
//! 3. **Deadlines** — per-attempt deadlines tracked by a
//!    [`RequestTracker`], with re-submission under fresh message ids: an
//!    announce from the same origin once a whole [`RetryPolicy::timeout`]
//!    has passed, a lookup through *another* entry node as soon as it
//!    has been unanswered for longer than answered ones are measured to
//!    take (see `HedgeDelay`), the earlier attempts still listened for.
//!    The earliest one is the timeout of the blocking receive. The only
//!    other instant the daemon ever waits for is the one at which its
//!    admission budget lets the next queued request in, and only a
//!    daemon that is offered more than it admits has requests queued.
//!
//! Data-plane requests are fully pipelined: a control frame is turned
//! into a [`LiveCluster::submit`] and a tracker entry, and the client
//! hears back when the matching event arrives (or the retry budget
//! dies). Submission is paced by admission control (see `Admission`:
//! a budget of estimated work per second, sized to keep the data plane
//! below saturation); requests beyond it wait their turn in a bounded
//! backlog, and beyond that are turned away with `UNAVAILABLE`.
//! Every wall-clock read goes through the workspace's sanctioned
//! [`WallClock`] touchpoint; timestamps inside the daemon are plain
//! [`Duration`]s since startup.
//!
//! Shutdown is graceful by contract: a `Drain` request (or the death of
//! the control plane) stops admission, keeps serving the inbox until
//! the in-flight set empties (or the drain budget runs out, failing the
//! stragglers) while turning new requests away with `UNAVAILABLE`, then
//! drains the shards themselves via
//! [`LiveCluster::shutdown_drain`]. No thread the daemon or its control
//! plane started outlives [`Daemon::run`].
//!
//! [`LiveCluster`]: mpil_net::LiveCluster
//! [`LiveCluster::submit`]: mpil_net::LiveCluster::submit
//! [`LiveCluster::shutdown_drain`]: mpil_net::LiveCluster::shutdown_drain
//! [`LiveClusterBuilder::spawn_with_sink`]: mpil_net::LiveClusterBuilder::spawn_with_sink

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mpil::{MessageKind, MpilConfig};
use mpil_id::Id;
use mpil_net::{
    ClientEvent, LiveClusterBuilder, NodeStats, RequestTracker, RetryPolicy, TransportKind,
};
use mpil_overlay::{generators, NodeIdx};
use mpil_workload::WallClock;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::proto::{err_code, CtrlRequest, CtrlResponse, StatsBody};

/// Inputs handled per turn of the daemon before deadlines get a look
/// (keeps a flooding client from starving timeouts and retries).
const BATCH: usize = 256;
/// Longest sleep when nothing is in flight. No deadline hides behind
/// it: with an empty tracker only an input can give the daemon work.
const IDLE_CAP: Duration = Duration::from_secs(1);

/// Admission budget that may be spent at once after an idle stretch.
const ADMIT_BURST: Duration = Duration::from_millis(3);
/// Budget a closed admission waits for before it opens again.
const ADMIT_WAVE: Duration = Duration::from_micros(1500);
/// Requests waiting for admission beyond this many are turned away with
/// `UNAVAILABLE` instead of queued.
const MAX_BACKLOG: usize = 4096;

/// The admission budget one operation takes: one second of budget
/// accrues per second, so this is the reciprocal of the rate at which
/// a daemon serving nothing else admits that operation (12 500 announces
/// or 17 500 lookups a second on loopback UDP, 18 100 or 25 000 on
/// channels).
///
/// Each figure is what the operation costs the whole process (control
/// plane, daemon, every forward, reply and acknowledgement, and the
/// client beside them) on ONE saturated core, times a margin of 1.5 or
/// more. Re-measured on the sharded data plane, pinned to one core of
/// the two-vCPU box `benchmark/run.sh` was calibrated on (so: one
/// shard), 48 nodes, `DaemonConfig::default()` parameters, a closed
/// loop of 48 and this table zeroed: 47 µs an announce and 29 µs a
/// lookup on UDP (21 300 and 34 700 a second), 29 and 15 µs on
/// channels (34 800 and 67 500 a second); `svc-udp-churn` itself reads
/// 51 µs an announce. A lookup is 16 forwards, all of them in-process
/// on one shard, and four replies; an announce is 28 forwards and five
/// acknowledgements, and what is left of either cost is the datagrams
/// to and from the client and the thread hand-offs behind them. The
/// margins taken are 1.6 (UDP announce), 2.0 (UDP lookup), 1.9 and 2.7:
/// the host takes 10 to 30 % away for minutes at a time on that box,
/// and an admitted rate has to be one the slow minutes also serve, or
/// it follows the host instead of this table. The UDP lookup figure
/// stood at the announce's 80 for as long as a lookup whose entry node
/// was deaf waited out one flat 150 ms period: 1 250 lookups are
/// admitted during a 100 ms deaf spell, so every caller of a closed
/// loop of 48 was parked on that wait within 40 ms of a churn volley,
/// and how fast they got parked, not this table, set the rate (at 70,
/// `lookup_per_s` of three `svc-udp-churn` runs spread over 600 a
/// second). Hedged lookups park nobody and the rate is the admitted
/// rate (ten seeds at 57 spread 46 a second). A closed loop waits
/// in-flight ÷ admitted rate for each lookup, and hedges spend budget
/// on 3 % of them: 57 is the largest figure at which that loop's
/// typical latency is clear of what it read at 80 with its callers
/// parked (2.81 ms against 2.89; 58 reads 2.84 to 2.86).
fn admit_cost(transport: TransportKind, kind: MessageKind) -> Duration {
    Duration::from_micros(match (transport, kind) {
        (TransportKind::Udp, MessageKind::Insert) => 80,
        (TransportKind::Udp, MessageKind::Lookup) => 57,
        (TransportKind::Channel, MessageKind::Insert) => 55,
        (TransportKind::Channel, MessageKind::Lookup) => 40,
    })
}

/// Admission control: paces what the daemon submits to the cluster so
/// that the data plane is offered less than it can serve.
///
/// A cluster offered more than it can serve queues the excess where
/// nobody sees it (node sockets, which drop what does not fit, and then
/// timeouts turn into retries, which add load), and its throughput is
/// whatever the host's speed is that minute. Held below saturation it
/// answers in its own latency, the excess waits in the daemon's backlog
/// in arrival order, and throughput is the admitted rate. Below the
/// admitted rate this costs nothing: the budget is there, and a request
/// is submitted the moment it is read.
///
/// The budget accrues with time, up to [`ADMIT_BURST`], and every
/// submission spends [`admit_cost`] of it (retries too, without waiting
/// for it). Admission closes when the budget is spent and opens again
/// once [`ADMIT_WAVE`] has accrued, so a backlog is let in a wave at a
/// time: operations that enter the cluster together share wake-ups at
/// the nodes (a fifth less CPU per announce than one timer wake-up per
/// operation), and the daemon sleeps a wave's worth between them.
#[derive(Debug)]
struct Admission {
    budget_ns: i64,
    accrued_at: Duration,
    open: bool,
}

impl Admission {
    fn new(now: Duration) -> Self {
        Admission {
            budget_ns: ADMIT_BURST.as_nanos() as i64,
            accrued_at: now,
            open: true,
        }
    }

    fn accrue(&mut self, now: Duration) {
        let elapsed = now.saturating_sub(self.accrued_at).as_nanos() as i64;
        self.accrued_at = now;
        self.budget_ns = self
            .budget_ns
            .saturating_add(elapsed)
            .min(ADMIT_BURST.as_nanos() as i64);
        if self.budget_ns >= ADMIT_WAVE.as_nanos() as i64 {
            self.open = true;
        }
    }

    fn is_open(&self) -> bool {
        self.open
    }

    fn spend(&mut self, cost: Duration) {
        self.budget_ns -= cost.as_nanos() as i64;
        if self.budget_ns <= 0 {
            self.open = false;
        }
    }

    /// When a closed admission opens again.
    fn reopens_at(&self) -> Duration {
        let short = ADMIT_WAVE.as_nanos() as i64 - self.budget_ns;
        self.accrued_at + Duration::from_nanos(short.max(0) as u64)
    }
}

/// The shortest a lookup's first attempt is left unanswered before a
/// second one leaves through another entry node. Measured on the
/// two-vCPU box as hedges per 1 000 lookups with no churn, when every
/// hedge is a question asked twice for nothing: a closed loop of 48 on
/// loopback UDP at the admitted rate, where a lookup let in at the back
/// of a 3 ms burst waits for the fifty ahead of it, hedges 70 at 1 ms,
/// 5 to 6 at 2 ms and 1.4 at 3 ms; the quiet open loop of
/// `scripts/ci.sh` (250 a second) up to 7 at 1 ms and none at 2 or 3 ms,
/// a stall of the host aside (one hedge in one run of ten). The estimate
/// reads 0.7 to 1.0 ms on both: `srtt + 4 · rttvar` takes one hump for
/// granted and a burst gives the reply times two. So on a healthy
/// cluster it is the floor that holds, and the estimate takes over when
/// replies slow down.
const HEDGE_FLOOR: Duration = Duration::from_millis(3);

/// How long a lookup attempt is worth waiting for, from how long the
/// answered ones took: the retransmission timer of RFC 6298 (Jacobson
/// and Karels), `srtt + 4 · rttvar` over the submit-to-reply times of
/// lookups, kept in two integers.
///
/// The paper protects a lookup with several flows and several replicas
/// but exempts the querying node from perturbation; a client of the
/// daemon names its entry node, and when that node is deaf no flow
/// leaves at all. Waiting for longer than a healthy attempt takes buys
/// nothing, so the daemon does not: it sends a second attempt in by
/// another door and listens for both.
#[derive(Debug, Default)]
struct HedgeDelay {
    /// Smoothed reply time; 0 until the first sample.
    srtt_ns: u64,
    /// Smoothed deviation of the samples from `srtt_ns`.
    rttvar_ns: u64,
}

impl HedgeDelay {
    fn sample(&mut self, rtt: Duration) {
        let rtt_ns = (rtt.as_nanos() as u64).max(1);
        if self.srtt_ns == 0 {
            self.srtt_ns = rtt_ns;
            self.rttvar_ns = rtt_ns / 2;
        } else {
            self.rttvar_ns = (3 * self.rttvar_ns + self.srtt_ns.abs_diff(rtt_ns)) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) / 8;
        }
    }

    /// The patience of a lookup's attempt number `attempt` (0 the
    /// first): the estimate in whole milliseconds, no less than
    /// [`HEDGE_FLOOR`], doubled for every attempt before this one, and
    /// never more than `cap`, which it also is while there is nothing
    /// to estimate from.
    fn patience(&self, attempt: u32, cap: Duration) -> Duration {
        if self.srtt_ns == 0 {
            return cap;
        }
        let estimate_ns = self.srtt_ns + 4 * self.rttvar_ns;
        let first = Duration::from_millis(estimate_ns.div_ceil(1_000_000)).max(HEDGE_FLOOR);
        first.saturating_mul(1 << attempt.min(20)).min(cap)
    }
}

/// One thing for the daemon to react to.
#[derive(Debug)]
pub enum Input<A> {
    /// A request frame from the client at `from`.
    Request {
        /// Where the response goes.
        from: A,
        /// The undecoded frame.
        frame: Vec<u8>,
    },
    /// A store-ack or lookup reply from the cluster.
    Event(ClientEvent),
    /// The control plane will deliver no more requests (its client is
    /// gone, or its socket failed): the daemon drains and exits.
    Closed,
}

/// Both halves of a daemon's inbox.
pub type Inbox<A> = (Sender<Input<A>>, Receiver<Input<A>>);

/// One end of the daemon's admin/data socket. `mpild` ships two: a
/// loopback-UDP implementation for real clients and an in-process
/// channel pair for embedded/smoke use.
///
/// A plane does not hand out requests on demand; it *delivers* them,
/// as [`Input::Request`]s, into the inbox that [`ControlPlane::open`]
/// returns, followed by one [`Input::Closed`] if it can deliver no
/// more. Dropping the plane stops and joins whatever `open` started.
pub trait ControlPlane: Send {
    /// Client address type, echoed back on [`ControlPlane::send`].
    type Addr: Clone + std::fmt::Debug + Send + 'static;

    /// Starts delivering request frames and returns the inbox they are
    /// delivered to. The daemon clones the sending half for its other
    /// sources and sleeps on the receiving half. Called once.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the plane cannot start (or was opened
    /// before).
    fn open(&mut self) -> std::io::Result<Inbox<Self::Addr>>;

    /// Sends a response frame to `to`.
    ///
    /// # Errors
    ///
    /// `std::io::Error` on socket failure (the daemon counts and
    /// continues — the client may simply be gone).
    fn send(&mut self, to: &Self::Addr, frame: &[u8]) -> std::io::Result<()>;
}

/// Loopback-UDP control plane: one datagram per request/response. Once
/// opened, a reader thread blocks on the socket and forwards every
/// datagram to the inbox.
#[derive(Debug)]
pub struct UdpControl {
    socket: UdpSocket,
    reader: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl UdpControl {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket `bind` failure.
    pub fn bind(port: u16) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", port))?;
        Ok(UdpControl {
            socket,
            reader: None,
        })
    }

    /// The bound address, for clients to connect to.
    ///
    /// # Errors
    ///
    /// `local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

/// The body of [`UdpControl`]'s reader thread.
fn read_requests(socket: &UdpSocket, stop: &AtomicBool, inbox: &Sender<Input<SocketAddr>>) {
    let mut buf = [0u8; 512];
    loop {
        let received = socket.recv_from(&mut buf);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let input = match received {
            Ok((len, from)) => Input::Request {
                from,
                frame: buf[..len].to_vec(),
            },
            // The idle cap ran out; `stop` has been looked at.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => Input::Closed,
        };
        let last = matches!(input, Input::Closed);
        if inbox.send(input).is_err() || last {
            return;
        }
    }
}

impl ControlPlane for UdpControl {
    type Addr = SocketAddr;

    fn open(&mut self) -> std::io::Result<Inbox<SocketAddr>> {
        if self.reader.is_some() {
            return Err(already_open());
        }
        let (tx, rx) = unbounded();
        let socket = self.socket.try_clone()?;
        // Set once and never changed. A wake-up datagram ends the
        // reader's sleep when the plane is dropped; the timeout only
        // bounds the wait should that datagram be lost.
        socket.set_read_timeout(Some(IDLE_CAP))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("mpild-ctrl-reader".to_string())
            .spawn({
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                move || read_requests(&socket, &stop, &tx)
            })?;
        self.reader = Some((stop, handle));
        Ok((tx, rx))
    }

    fn send(&mut self, to: &SocketAddr, frame: &[u8]) -> std::io::Result<()> {
        self.socket.send_to(frame, to).map(|_| ())
    }
}

impl Drop for UdpControl {
    /// Stops and joins the reader, so that the port is free the moment
    /// the plane is gone.
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.reader.take() {
            stop.store(true, Ordering::SeqCst);
            // A datagram to ourselves ends the reader's blocking receive.
            if let Ok(addr) = self.socket.local_addr() {
                let _ = self.socket.send_to(&[], addr);
            }
            let _ = handle.join();
        }
    }
}

/// In-process control plane for embedded daemons (the CI smoke and
/// `mpil-load --embedded`) with a single client. No thread stands
/// between the two: the client's sender *is* a sender of the daemon's
/// inbox.
#[derive(Debug)]
pub struct ChannelControl {
    inbox: Option<Inbox<()>>,
    tx: Sender<Vec<u8>>,
}

/// The client half of a [`ChannelControl`] pair; implements the load
/// generator's connection trait. Dropping it tells the daemon the
/// control plane is closed.
#[derive(Debug)]
pub struct ChannelCtrlClient {
    rx: Receiver<Vec<u8>>,
    tx: Sender<Input<()>>,
}

impl ChannelControl {
    /// A connected (server, client) pair.
    pub fn pair() -> (ChannelControl, ChannelCtrlClient) {
        let (to_daemon, inbox) = unbounded();
        let (to_client, from_daemon) = unbounded();
        (
            ChannelControl {
                inbox: Some((to_daemon.clone(), inbox)),
                tx: to_client,
            },
            ChannelCtrlClient {
                rx: from_daemon,
                tx: to_daemon,
            },
        )
    }
}

fn broken_pipe() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "control peer disconnected")
}

fn already_open() -> std::io::Error {
    std::io::Error::other("control plane already opened")
}

impl ControlPlane for ChannelControl {
    type Addr = ();

    fn open(&mut self) -> std::io::Result<Inbox<()>> {
        self.inbox.take().ok_or_else(already_open)
    }

    fn send(&mut self, _to: &(), frame: &[u8]) -> std::io::Result<()> {
        self.tx.send(frame.to_vec()).map_err(|_| broken_pipe())
    }
}

impl ChannelCtrlClient {
    /// Sends a request frame to the embedded daemon.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the daemon is gone.
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.tx
            .send(Input::Request {
                from: (),
                frame: frame.to_vec(),
            })
            .map_err(|_| broken_pipe())
    }

    /// Receives the next response frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the daemon is gone.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(broken_pipe()),
        }
    }
}

impl Drop for ChannelCtrlClient {
    fn drop(&mut self) {
        // The inbox has other senders (the cluster's reader), so the
        // daemon cannot see this one disappear: tell it.
        let _ = self.tx.send(Input::Closed);
    }
}

/// Everything needed to spawn a daemon.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Overlay nodes in service from the start.
    pub nodes: usize,
    /// Regular-graph degree of the overlay.
    pub degree: usize,
    /// Extra nodes spawned parked, joinable later via the `Join` admin
    /// op (the live analogue of not-yet-joined members).
    pub spares: usize,
    /// Master seed: topology, node ids, per-node RNGs.
    pub seed: u64,
    /// Data-plane transport of the cluster mesh.
    pub transport: TransportKind,
    /// MPIL protocol parameters (flows, replicas, suppression).
    pub mpil: MpilConfig,
    /// Per-request timeout/retry policy of the daemon's data plane.
    pub retry: RetryPolicy,
    /// Drain budget applied when the control plane dies without a
    /// `Drain` request (embedded client dropped, socket error).
    pub fallback_drain: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            nodes: 48,
            degree: 8,
            spares: 0,
            seed: 1,
            transport: TransportKind::Channel,
            mpil: MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(3),
            retry: RetryPolicy::default(),
            fallback_drain: Duration::from_millis(500),
        }
    }
}

/// Why a daemon failed to start or died.
#[derive(Debug)]
pub struct DaemonError(pub String);

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DaemonError {}

/// What the daemon was doing for a tracked request.
#[derive(Debug, Clone, Copy)]
struct Ticket<A> {
    addr: A,
    token: u64,
    kind: MessageKind,
    object: Id,
    origin: NodeIdx,
}

/// The final account of a daemon's life, returned by [`Daemon::run`].
#[derive(Debug, Clone, Default)]
pub struct DaemonReport {
    /// Seconds between startup and the end of the drain.
    pub uptime_s: f64,
    /// Service counters at shutdown.
    pub stats: StatsBody,
    /// Join admin operations applied.
    pub joins: u64,
    /// Perturb admin operations applied.
    pub perturbs: u64,
    /// Heal admin operations applied.
    pub heals: u64,
    /// Control frames that failed to decode or named bad nodes.
    pub bad_requests: u64,
    /// Control-plane send failures (client gone).
    pub send_errors: u64,
    /// Requests still in flight when the drain budget ran out.
    pub aborted_at_drain: u64,
    /// Re-submissions made before the attempt they follow had waited a
    /// whole [`RetryPolicy::timeout`] (`stats.retries` counts these and
    /// the late ones alike).
    pub hedges: u64,
    /// Requests turned away because the admission backlog was full.
    pub shed: u64,
    /// Turns of the event loop: times the daemon woke from its blocking
    /// receive, for an input or a deadline (idle, once a second).
    pub wakeups: u64,
    /// Shard threads the cluster's nodes were dealt over (the cores the
    /// machine offered at spawn): the layout these numbers come from.
    pub shards: usize,
    /// Per-node worker statistics, joined at shutdown.
    pub node_stats: Vec<NodeStats>,
}

impl DaemonReport {
    /// One-line JSON rendering (hand-rolled, like the bench artifacts).
    pub fn to_json(&self) -> String {
        let forwards: u64 = self.node_stats.iter().map(|s| s.forwards).sum();
        let stores: u64 = self.node_stats.iter().map(|s| s.stores).sum();
        let dropped_perturbed: u64 = self.node_stats.iter().map(|s| s.dropped_perturbed).sum();
        let dropped_at_drain: u64 = self.node_stats.iter().map(|s| s.dropped_at_drain).sum();
        format!(
            "{{\"uptime_s\":{:.3},\"announces\":{},\"hits\":{},\"lookup_timeouts\":{},\
             \"announce_timeouts\":{},\"retries\":{},\"live_nodes\":{},\"parked\":{},\
             \"joins\":{},\"perturbs\":{},\"heals\":{},\"bad_requests\":{},\
             \"send_errors\":{},\"aborted_at_drain\":{},\"hedges\":{},\"shed\":{},\"wakeups\":{},\
             \"shards\":{},\"node_forwards\":{},\
             \"node_stores\":{},\"node_dropped_perturbed\":{},\"node_dropped_at_drain\":{}}}",
            self.uptime_s,
            self.stats.announces,
            self.stats.hits,
            self.stats.lookup_timeouts,
            self.stats.announce_timeouts,
            self.stats.retries,
            self.stats.live_nodes,
            self.stats.parked,
            self.joins,
            self.perturbs,
            self.heals,
            self.bad_requests,
            self.send_errors,
            self.aborted_at_drain,
            self.hedges,
            self.shed,
            self.wakeups,
            self.shards,
            forwards,
            stores,
            dropped_perturbed,
            dropped_at_drain,
        )
    }
}

/// A running MPIL service: cluster + control plane + request tracker.
pub struct Daemon<C: ControlPlane> {
    config: DaemonConfig,
    cluster: mpil_net::LiveCluster,
    ctrl: C,
    inbox: Receiver<Input<C::Addr>>,
    clock: WallClock,
    tracker: RequestTracker<Ticket<C::Addr>>,
    hedge_delay: HedgeDelay,
    /// Where a lookup goes in next when it got no answer through the
    /// node this is indexed by: the nodes in one seeded cycle, so that
    /// a request's attempts never come back to an entry they tried
    /// before every other one has been.
    next_entry: Vec<NodeIdx>,
    admission: Admission,
    /// Accepted requests waiting for admission budget, oldest first.
    backlog: VecDeque<Ticket<C::Addr>>,
    total_nodes: usize,
    parked: u32,
    report: DaemonReport,
    /// `Some(budget)` once a drain was requested or the control plane
    /// closed.
    draining: Option<Duration>,
}

impl<C: ControlPlane> Daemon<C> {
    /// Generates the overlay, spawns the cluster (parking the spares),
    /// and wires it to `ctrl`.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when topology generation or cluster spawn fails.
    pub fn spawn(config: DaemonConfig, mut ctrl: C) -> Result<Self, DaemonError> {
        let (to_inbox, inbox) = ctrl
            .open()
            .map_err(|e| DaemonError(format!("control plane: {e}")))?;
        let total = config.nodes + config.spares;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let topo = generators::random_regular(total, config.degree, &mut rng)
            .map_err(|e| DaemonError(format!("topology: {e}")))?;
        let cluster = LiveClusterBuilder::new()
            .config(config.mpil)
            .transport(config.transport)
            .seed(config.seed)
            .spawn_with_sink(&topo, move |event| {
                to_inbox.send(Input::Event(event)).is_ok()
            })
            .map_err(|e| DaemonError(format!("spawn: {e}")))?;
        for spare in config.nodes..total {
            cluster.park(NodeIdx::new(spare as u32));
        }
        let mut cycle: Vec<NodeIdx> = (0..total as u32).map(NodeIdx::new).collect();
        cycle.shuffle(&mut rng);
        let mut next_entry = cycle.clone();
        for (at, node) in cycle.iter().enumerate() {
            next_entry[node.index()] = cycle[(at + 1) % total];
        }
        let clock = WallClock::start();
        let report = DaemonReport {
            shards: cluster.shards(),
            ..DaemonReport::default()
        };
        Ok(Daemon {
            config,
            cluster,
            ctrl,
            inbox,
            admission: Admission::new(clock.elapsed()),
            backlog: VecDeque::new(),
            clock,
            tracker: RequestTracker::new(config.retry),
            hedge_delay: HedgeDelay::default(),
            next_entry,
            total_nodes: total,
            parked: config.spares as u32,
            report,
            draining: None,
        })
    }

    /// The spawn-time configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    fn stats_body(&self) -> StatsBody {
        StatsBody {
            live_nodes: self.total_nodes as u32 - self.parked,
            parked: self.parked,
            uptime_ms: self.clock.elapsed().as_millis() as u64,
            ..self.report.stats
        }
    }

    fn respond(&mut self, addr: &C::Addr, token: u64, resp: CtrlResponse) {
        if self.ctrl.send(addr, &resp.encode(token)).is_err() {
            self.report.send_errors += 1;
        }
    }

    /// Validates a data-plane entry node: must exist and be in service.
    fn entry_error(&self, origin: u32) -> Option<u8> {
        if origin as usize >= self.total_nodes {
            Some(err_code::BAD_NODE)
        } else if self.cluster.is_parked(NodeIdx::new(origin)) {
            Some(err_code::UNAVAILABLE)
        } else {
            None
        }
    }

    /// Accepts a data-plane request: it joins the admission backlog and
    /// is submitted as soon as the budget allows, which on a daemon
    /// that is not overloaded is now.
    fn accept(&mut self, addr: C::Addr, token: u64, kind: MessageKind, object: Id, origin: u32) {
        if let Some(code) = self.entry_error(origin) {
            self.report.bad_requests += 1;
            self.respond(&addr, token, CtrlResponse::Err { code });
            return;
        }
        if self.backlog.len() >= MAX_BACKLOG {
            self.report.shed += 1;
            self.respond(
                &addr,
                token,
                CtrlResponse::Err {
                    code: err_code::UNAVAILABLE,
                },
            );
            return;
        }
        self.backlog.push_back(Ticket {
            addr,
            token,
            kind,
            object,
            origin: NodeIdx::new(origin),
        });
        self.admit();
    }

    /// Submits from the head of the backlog while admission is open.
    fn admit(&mut self) {
        let now = self.clock.elapsed();
        self.admission.accrue(now);
        while self.admission.is_open() {
            let Some(ticket) = self.backlog.pop_front() else {
                return;
            };
            self.admission
                .spend(admit_cost(self.config.transport, ticket.kind));
            match self
                .cluster
                .submit(ticket.kind, ticket.origin, ticket.object)
            {
                Ok(msg_id) => {
                    let patience = self.patience(ticket.kind, 0);
                    self.tracker.track_for(msg_id, ticket, now, patience);
                }
                Err(_) => {
                    let addr = ticket.addr.clone();
                    self.respond(
                        &addr,
                        ticket.token,
                        CtrlResponse::Err {
                            code: err_code::TRANSPORT,
                        },
                    );
                }
            }
        }
    }

    /// How long attempt number `attempt` of a request may stay
    /// unanswered: an announce's one flat period, a lookup's for as long
    /// as lookups are measured to take.
    fn patience(&self, kind: MessageKind, attempt: u32) -> Duration {
        let cap = self.config.retry.timeout;
        match kind {
            MessageKind::Insert => cap,
            MessageKind::Lookup => self.hedge_delay.patience(attempt, cap),
        }
    }

    /// The in-service node after `origin` on the entry cycle; `origin`
    /// itself when every other node is parked.
    fn another_entry(&self, origin: NodeIdx) -> NodeIdx {
        let mut node = self.next_entry[origin.index()];
        while node != origin && self.cluster.is_parked(node) {
            node = self.next_entry[node.index()];
        }
        node
    }

    fn handle_ctrl(&mut self, addr: C::Addr, frame: &[u8]) {
        let (token, req) = match CtrlRequest::decode(frame) {
            Ok(pair) => pair,
            Err(_) => {
                self.report.bad_requests += 1;
                // Token 0: the sender's framing is broken, there is no
                // token to echo.
                self.respond(
                    &addr,
                    0,
                    CtrlResponse::Err {
                        code: err_code::BAD_REQUEST,
                    },
                );
                return;
            }
        };
        // Past the drain point only stats/drain are served; data and
        // admin requests are turned away so the in-flight set can only
        // shrink.
        if self.draining.is_some() && !matches!(req, CtrlRequest::Stats | CtrlRequest::Drain { .. })
        {
            self.respond(
                &addr,
                token,
                CtrlResponse::Err {
                    code: err_code::UNAVAILABLE,
                },
            );
            return;
        }
        match req {
            CtrlRequest::Announce { object, origin } => {
                self.accept(addr, token, MessageKind::Insert, object, origin);
            }
            CtrlRequest::Lookup { object, origin } => {
                self.accept(addr, token, MessageKind::Lookup, object, origin);
            }
            CtrlRequest::Join { node } => {
                let idx = NodeIdx::new(node);
                if (node as usize) < self.total_nodes && self.cluster.is_parked(idx) {
                    self.cluster.unpark(idx);
                    self.parked = self.parked.saturating_sub(1);
                    self.report.joins += 1;
                    self.respond(&addr, token, CtrlResponse::Ok);
                } else {
                    self.report.bad_requests += 1;
                    self.respond(
                        &addr,
                        token,
                        CtrlResponse::Err {
                            code: err_code::BAD_NODE,
                        },
                    );
                }
            }
            CtrlRequest::Perturb { node, millis } => {
                if (node as usize) < self.total_nodes {
                    self.cluster
                        .perturb(NodeIdx::new(node), Duration::from_millis(u64::from(millis)));
                    self.report.perturbs += 1;
                    self.respond(&addr, token, CtrlResponse::Ok);
                } else {
                    self.report.bad_requests += 1;
                    self.respond(
                        &addr,
                        token,
                        CtrlResponse::Err {
                            code: err_code::BAD_NODE,
                        },
                    );
                }
            }
            CtrlRequest::Heal { node } => {
                if (node as usize) < self.total_nodes {
                    self.cluster.heal(NodeIdx::new(node));
                    self.report.heals += 1;
                    self.respond(&addr, token, CtrlResponse::Ok);
                } else {
                    self.report.bad_requests += 1;
                    self.respond(
                        &addr,
                        token,
                        CtrlResponse::Err {
                            code: err_code::BAD_NODE,
                        },
                    );
                }
            }
            CtrlRequest::Stats => {
                let body = self.stats_body();
                self.respond(&addr, token, CtrlResponse::Stats(body));
            }
            CtrlRequest::Drain { millis } => {
                self.draining = Some(Duration::from_millis(u64::from(millis)));
                self.respond(&addr, token, CtrlResponse::Ok);
            }
        }
    }

    fn handle_event(&mut self, event: ClientEvent) {
        match event {
            ClientEvent::Reply {
                msg_id,
                holder,
                hops,
                ..
            } => {
                // Later flows of the same lookup, and its other
                // attempts, produce more replies; only the first
                // resolves the ticket.
                if let Some(p) = self.tracker.complete(msg_id) {
                    self.report.stats.hits += 1;
                    self.hedge_delay
                        .sample(self.clock.elapsed().saturating_sub(p.issued_at));
                    let addr = p.token.addr.clone();
                    self.respond(
                        &addr,
                        p.token.token,
                        CtrlResponse::Found {
                            holder: holder.index() as u32,
                            hops,
                        },
                    );
                }
            }
            ClientEvent::StoreAck { msg_id, holder, .. } => {
                if let Some(p) = self.tracker.complete(msg_id) {
                    self.report.stats.announces += 1;
                    let addr = p.token.addr.clone();
                    self.respond(
                        &addr,
                        p.token.token,
                        CtrlResponse::Announced {
                            holder: holder.index() as u32,
                        },
                    );
                }
            }
        }
    }

    /// Re-submits what has run out of patience and fails what has run
    /// out of budget. Nothing is re-submitted past the drain point.
    fn handle_expiries(&mut self) {
        let now = self.clock.elapsed();
        while let Some((old_id, mut pending)) = self.tracker.pop_expired(now) {
            let left = self.tracker.budget_left(&pending, now);
            if left.is_zero() || self.draining.is_some() {
                self.fail_ticket(&pending.token);
                continue;
            }
            let kind = pending.token.kind;
            // Any node can ask for an object; the origin of an announce
            // is the owner the pointer will name.
            if kind == MessageKind::Lookup {
                pending.token.origin = self.another_entry(pending.token.origin);
            }
            // A re-submission is work like any other: it spends budget,
            // but does not queue for it.
            self.admission
                .spend(admit_cost(self.config.transport, kind));
            match self
                .cluster
                .submit(kind, pending.token.origin, pending.token.object)
            {
                Ok(new_id) => {
                    if now.saturating_sub(pending.issued_at) < self.config.retry.timeout {
                        self.report.hedges += 1;
                    }
                    let patience = self.patience(kind, pending.attempt + 1).min(left);
                    self.tracker.hedge(new_id, old_id, pending, now, patience);
                }
                Err(_) => {
                    let addr = pending.token.addr.clone();
                    self.respond(
                        &addr,
                        pending.token.token,
                        CtrlResponse::Err {
                            code: err_code::TRANSPORT,
                        },
                    );
                }
            }
        }
        self.report.stats.retries = self.tracker.retried();
    }

    /// Answers a request whose retry budget (or drain budget) ran out.
    fn fail_ticket(&mut self, t: &Ticket<C::Addr>) {
        let addr = t.addr.clone();
        match t.kind {
            MessageKind::Lookup => {
                self.report.stats.lookup_timeouts += 1;
                self.respond(&addr, t.token, CtrlResponse::NotFound);
            }
            MessageKind::Insert => {
                self.report.stats.announce_timeouts += 1;
                self.respond(
                    &addr,
                    t.token,
                    CtrlResponse::Err {
                        code: err_code::TIMEOUT,
                    },
                );
            }
        }
    }

    fn handle(&mut self, input: Input<C::Addr>) {
        match input {
            Input::Request { from, frame } => self.handle_ctrl(from, &frame),
            Input::Event(event) => self.handle_event(event),
            Input::Closed => self.close(),
        }
    }

    /// The control plane is gone: from here on the daemon is draining
    /// (nothing is admitted, nothing is retried), on the fallback
    /// budget unless a `Drain` request named one.
    fn close(&mut self) {
        self.draining.get_or_insert(self.config.fallback_drain);
    }

    /// One turn of the event loop: sleeps until an input arrives or the
    /// earliest request deadline (or `until`, if that is sooner) passes,
    /// handles a bounded batch of what is queued, then expires and
    /// retries. `false` once no input can arrive any more.
    fn turn(&mut self, until: Option<Duration>) -> bool {
        let admit_at = (!self.backlog.is_empty()).then(|| self.admission.reopens_at());
        let wake_at = [self.tracker.next_deadline(), until, admit_at]
            .into_iter()
            .flatten()
            .min();
        let wait = wake_at.map_or(IDLE_CAP, |at| at.saturating_sub(self.clock.elapsed()));
        let first = self.inbox.recv_timeout(wait);
        self.report.wakeups += 1;
        let connected = !matches!(first, Err(RecvTimeoutError::Disconnected));
        if let Ok(input) = first {
            self.handle(input);
            self.handle_queued(BATCH - 1);
        }
        self.handle_expiries();
        self.admit();
        connected
    }

    /// Handles what is already queued on the inbox, `limit` inputs at
    /// most, without waiting for more.
    fn handle_queued(&mut self, limit: usize) {
        for _ in 0..limit {
            match self.inbox.try_recv() {
                Ok(input) => self.handle(input),
                Err(_) => break,
            }
        }
    }

    /// Serves until a `Drain` request (or control-plane death), drains,
    /// and returns the final account.
    pub fn run(mut self) -> DaemonReport {
        let budget = loop {
            if let Some(budget) = self.draining {
                break budget;
            }
            if !self.turn(None) {
                self.close();
            }
        };
        self.drain(budget)
    }

    /// Runs the drain protocol: keep serving the inbox until the
    /// in-flight set is empty or the budget elapses (requests that
    /// arrive now are answered `UNAVAILABLE`, not left to their
    /// senders' timeouts), fail the stragglers, then drain the node
    /// threads and stop the control plane's reader.
    fn drain(mut self, budget: Duration) -> DaemonReport {
        let deadline = self.clock.elapsed() + budget;
        while !(self.tracker.is_idle() && self.backlog.is_empty())
            && self.clock.elapsed() < deadline
        {
            if !self.turn(Some(deadline)) {
                break;
            }
        }
        // What queued up behind the last input handled gets its answer
        // too.
        self.handle_queued(BATCH);
        let unserved: Vec<Ticket<C::Addr>> = self
            .tracker
            .abort_all()
            .into_iter()
            .map(|pending| pending.token)
            .chain(self.backlog.drain(..))
            .collect();
        for t in unserved {
            self.report.aborted_at_drain += 1;
            let resp = match t.kind {
                MessageKind::Lookup => CtrlResponse::NotFound,
                MessageKind::Insert => CtrlResponse::Err {
                    code: err_code::TIMEOUT,
                },
            };
            self.respond(&t.addr.clone(), t.token, resp);
        }
        self.report.stats = self.stats_body();
        self.report.uptime_s = self.clock.elapsed_s();
        let remaining = deadline.saturating_sub(self.clock.elapsed());
        self.report.node_stats = self.cluster.shutdown_drain(remaining);
        // Joins the control plane's reader and frees its port before the
        // caller sees the report.
        drop(self.ctrl);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil::MessageId;

    fn frame(req: CtrlRequest, token: u64) -> Vec<u8> {
        req.encode(token)
    }

    fn expect_resp(client: &mut ChannelCtrlClient, want_token: u64) -> CtrlResponse {
        let clock = WallClock::start();
        while clock.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(raw)) = client.recv(Duration::from_millis(20)) {
                let (token, resp) = CtrlResponse::decode(&raw).expect("decode response");
                assert_eq!(token, want_token, "token echo");
                return resp;
            }
        }
        panic!("no response for token {want_token} within 5s");
    }

    fn spawn_daemon(
        config: DaemonConfig,
    ) -> (std::thread::JoinHandle<DaemonReport>, ChannelCtrlClient) {
        let (server, client) = ChannelControl::pair();
        let handle =
            std::thread::spawn(move || Daemon::spawn(config, server).expect("daemon spawn").run());
        (handle, client)
    }

    #[test]
    fn announce_then_lookup_round_trips_through_the_daemon() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 24,
            degree: 6,
            seed: 5,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0x5eed);
        client
            .send(&frame(CtrlRequest::Announce { object, origin: 0 }, 1))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 1),
            CtrlResponse::Announced { .. }
        ));
        client
            .send(&frame(CtrlRequest::Lookup { object, origin: 9 }, 2))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 2),
            CtrlResponse::Found { .. }
        ));
        client
            .send(&frame(CtrlRequest::Drain { millis: 500 }, 3))
            .expect("send");
        assert!(matches!(expect_resp(&mut client, 3), CtrlResponse::Ok));
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.stats.announces, 1);
        assert_eq!(report.stats.hits, 1);
        assert_eq!(report.node_stats.len(), 24);
        assert!((1..=24).contains(&report.shards), "{}", report.shards);
        assert!(report
            .to_json()
            .contains(&format!("\"shards\":{},", report.shards)));
    }

    #[test]
    fn lookup_of_absent_object_times_out_with_not_found() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 6,
            retry: RetryPolicy {
                timeout: Duration::from_millis(60),
                retries: 1,
            },
            ..DaemonConfig::default()
        });
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: Id::from_low_u64(0xdead),
                    origin: 2,
                },
                7,
            ))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 7),
            CtrlResponse::NotFound
        ));
        client
            .send(&frame(CtrlRequest::Drain { millis: 300 }, 8))
            .expect("send");
        let _ = expect_resp(&mut client, 8);
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert!(report.stats.retries >= 1, "the retry budget must be spent");
    }

    #[test]
    fn join_unparks_a_spare_and_admin_ops_answer() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            spares: 2,
            seed: 7,
            ..DaemonConfig::default()
        });
        // A parked spare is not a valid entry node...
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: Id::from_low_u64(1),
                    origin: 16,
                },
                1,
            ))
            .expect("send");
        assert_eq!(
            expect_resp(&mut client, 1),
            CtrlResponse::Err {
                code: err_code::UNAVAILABLE
            }
        );
        // ...until it joins.
        client
            .send(&frame(CtrlRequest::Join { node: 16 }, 2))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 2), CtrlResponse::Ok);
        // Stats reflect the join.
        client.send(&frame(CtrlRequest::Stats, 3)).expect("send");
        match expect_resp(&mut client, 3) {
            CtrlResponse::Stats(s) => {
                assert_eq!(s.live_nodes, 17);
                assert_eq!(s.parked, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Perturb/heal on a bad index is rejected; on a good one it is Ok.
        client
            .send(&frame(
                CtrlRequest::Perturb {
                    node: 99,
                    millis: 10,
                },
                4,
            ))
            .expect("send");
        assert_eq!(
            expect_resp(&mut client, 4),
            CtrlResponse::Err {
                code: err_code::BAD_NODE
            }
        );
        client
            .send(&frame(
                CtrlRequest::Perturb {
                    node: 3,
                    millis: 10,
                },
                5,
            ))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 5), CtrlResponse::Ok);
        client
            .send(&frame(CtrlRequest::Heal { node: 3 }, 6))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 6), CtrlResponse::Ok);
        client
            .send(&frame(CtrlRequest::Drain { millis: 200 }, 9))
            .expect("send");
        let _ = expect_resp(&mut client, 9);
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.joins, 1);
        assert_eq!(report.perturbs, 1);
        assert_eq!(report.heals, 1);
        assert_eq!(report.bad_requests, 2);
    }

    #[test]
    fn dropping_the_client_is_a_graceful_shutdown() {
        let (handle, client) = spawn_daemon(DaemonConfig {
            nodes: 12,
            degree: 4,
            seed: 8,
            fallback_drain: Duration::from_millis(100),
            ..DaemonConfig::default()
        });
        drop(client);
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.node_stats.len(), 12, "cluster joined cleanly");
    }

    /// A UDP client of a daemon running on `UdpControl`.
    fn spawn_udp_daemon(
        config: DaemonConfig,
    ) -> (std::thread::JoinHandle<DaemonReport>, UdpSocket, SocketAddr) {
        let server = UdpControl::bind(0).expect("bind control port");
        let addr = server.local_addr().expect("control address");
        let handle =
            std::thread::spawn(move || Daemon::spawn(config, server).expect("daemon spawn").run());
        let client = UdpSocket::bind(("127.0.0.1", 0)).expect("bind client");
        client.connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        (handle, client, addr)
    }

    fn udp_round_trip(client: &UdpSocket, req: CtrlRequest, token: u64) -> CtrlResponse {
        client.send(&frame(req, token)).expect("send");
        let mut buf = [0u8; 512];
        let len = client.recv(&mut buf).expect("response within 5 s");
        let (got, resp) = CtrlResponse::decode(&buf[..len]).expect("decode response");
        assert_eq!(got, token, "token echo");
        resp
    }

    /// Sequential lookups pay the service's own latency and nothing
    /// else: a daemon that slept a poll interval per stage of a request
    /// (16 ms a lookup on loopback UDP before the inbox) needs over
    /// three seconds for these.
    #[test]
    fn sequential_udp_lookups_do_not_pay_for_polling() {
        let (handle, client, _) = spawn_udp_daemon(DaemonConfig {
            nodes: 24,
            degree: 6,
            seed: 9,
            transport: TransportKind::Udp,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0xc0de);
        assert!(matches!(
            udp_round_trip(&client, CtrlRequest::Announce { object, origin: 0 }, 1),
            CtrlResponse::Announced { .. }
        ));
        let clock = WallClock::start();
        for i in 0..200u32 {
            let resp = udp_round_trip(
                &client,
                CtrlRequest::Lookup {
                    object,
                    origin: i % 24,
                },
                2 + u64::from(i),
            );
            assert!(
                matches!(resp, CtrlResponse::Found { .. }),
                "lookup {i}: {resp:?}"
            );
        }
        let took = clock.elapsed();
        assert!(took < Duration::from_secs(1), "200 lookups took {took:?}");
        assert_eq!(
            udp_round_trip(&client, CtrlRequest::Drain { millis: 200 }, 999),
            CtrlResponse::Ok
        );
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.stats.hits, 200);
    }

    #[test]
    fn an_idle_daemon_sleeps() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 12,
            degree: 4,
            seed: 10,
            ..DaemonConfig::default()
        });
        // Make sure the daemon is up before it is left alone.
        client.send(&frame(CtrlRequest::Stats, 1)).expect("send");
        let _ = expect_resp(&mut client, 1);
        std::thread::sleep(Duration::from_millis(300));
        client
            .send(&frame(CtrlRequest::Drain { millis: 100 }, 2))
            .expect("send");
        let _ = expect_resp(&mut client, 2);
        let report = handle.join().expect("daemon thread");
        assert!(
            report.wakeups <= 5,
            "two requests and 300 idle ms took {} turns",
            report.wakeups
        );
        assert!(report.to_json().contains("\"wakeups\":"));
    }

    #[test]
    fn the_control_port_is_free_when_run_returns() {
        let (handle, client, addr) = spawn_udp_daemon(DaemonConfig {
            nodes: 12,
            degree: 4,
            seed: 11,
            ..DaemonConfig::default()
        });
        assert_eq!(
            udp_round_trip(&client, CtrlRequest::Drain { millis: 100 }, 1),
            CtrlResponse::Ok
        );
        handle.join().expect("daemon thread");
        // The reader thread held the socket too; it has been joined.
        UdpControl::bind(addr.port()).expect("rebind the control port at once");
    }

    #[test]
    fn requests_that_arrive_during_the_drain_are_turned_away() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 12,
            retry: RetryPolicy {
                timeout: Duration::from_millis(300),
                retries: 0,
            },
            ..DaemonConfig::default()
        });
        let absent = Id::from_low_u64(0xdead);
        // Keeps the drain busy for 300 ms.
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: absent,
                    origin: 1,
                },
                1,
            ))
            .expect("send");
        client
            .send(&frame(CtrlRequest::Drain { millis: 2_000 }, 2))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 2), CtrlResponse::Ok);
        // The drain has begun. This lookup is answered now, not after
        // the first one's deadline: `expect_resp` takes the next frame.
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: absent,
                    origin: 2,
                },
                3,
            ))
            .expect("send");
        assert_eq!(
            expect_resp(&mut client, 3),
            CtrlResponse::Err {
                code: err_code::UNAVAILABLE
            }
        );
        client.send(&frame(CtrlRequest::Stats, 4)).expect("send");
        assert!(matches!(
            expect_resp(&mut client, 4),
            CtrlResponse::Stats(_)
        ));
        assert_eq!(expect_resp(&mut client, 1), CtrlResponse::NotFound);
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert_eq!(report.aborted_at_drain, 0);
    }

    /// Virtual time, every entry of the cost table: below the admitted
    /// rate the budget is never short, above it admissions follow the
    /// clock, not the demand.
    #[test]
    fn admission_is_free_below_its_rate_and_paces_above_it() {
        for (transport, kind) in [
            (TransportKind::Udp, MessageKind::Insert),
            (TransportKind::Udp, MessageKind::Lookup),
            (TransportKind::Channel, MessageKind::Insert),
            (TransportKind::Channel, MessageKind::Lookup),
        ] {
            let cost = admit_cost(transport, kind);
            let per_second = (Duration::from_secs(1).as_nanos() / cost.as_nanos()) as u32;
            let per_wave = (ADMIT_WAVE.as_nanos() / cost.as_nanos()) as u32;
            let per_burst = ADMIT_BURST.as_nanos().div_ceil(cost.as_nanos()) as u32;
            let mut now = Duration::ZERO;
            let mut admission = Admission::new(now);
            // Arrivals slower than one per `cost`: always let in at once.
            for _ in 0..10_000 {
                now += cost + Duration::from_micros(1);
                admission.accrue(now);
                assert!(admission.is_open());
                admission.spend(cost);
            }
            // A standing backlog for one second: one operation per
            // `cost`, give or take the burst and a wave, let in a wave
            // at a time.
            let end = now + Duration::from_secs(1);
            let mut admitted = 0u32;
            while now < end {
                admission.accrue(now);
                let before = admitted;
                while admission.is_open() {
                    admission.spend(cost);
                    admitted += 1;
                }
                assert!(admitted - before >= per_wave, "a wave is 1.5 ms of budget");
                assert!(
                    admission.reopens_at() > now,
                    "a closed admission names a later instant"
                );
                now = admission.reopens_at();
            }
            assert!(
                (per_second..=per_second + per_burst + per_wave + 1).contains(&admitted),
                "{transport:?} {kind:?}: {admitted} admitted in a second at {cost:?} each"
            );
            // Idle time earns one burst, not more.
            admission.accrue(now + Duration::from_secs(60));
            let mut burst = 0;
            while admission.is_open() {
                admission.spend(cost);
                burst += 1;
            }
            assert_eq!(burst, per_burst);
        }
    }

    /// A flood beyond the backlog: every request is answered, what did
    /// not fit is turned away, and served + shed adds up. The served ones
    /// cannot have gone in faster than the admission rate.
    #[test]
    fn a_flood_is_paced_shed_and_accounted_for() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 14,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0xf100d);
        client
            .send(&frame(CtrlRequest::Announce { object, origin: 0 }, 1))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 1),
            CtrlResponse::Announced { .. }
        ));
        let flood = 3 * MAX_BACKLOG as u64;
        let clock = WallClock::start();
        for i in 0..flood {
            client
                .send(&frame(
                    CtrlRequest::Lookup {
                        object,
                        origin: (i % 16) as u32,
                    },
                    2 + i,
                ))
                .expect("send");
        }
        let (mut served, mut turned_away) = (0u64, 0u64);
        while served + turned_away < flood {
            let raw = client
                .recv(Duration::from_secs(10))
                .expect("daemon alive")
                .expect("an answer to every request");
            match CtrlResponse::decode(&raw).expect("decode response").1 {
                // Which flows a lookup takes depends on arrival order at
                // the nodes; the odd one may miss the replicas.
                CtrlResponse::Found { .. } | CtrlResponse::NotFound => served += 1,
                CtrlResponse::Err {
                    code: err_code::UNAVAILABLE,
                } => turned_away += 1,
                other => panic!("unexpected answer {other:?}"),
            }
        }
        let took = clock.elapsed();
        client
            .send(&frame(CtrlRequest::Drain { millis: 500 }, 1))
            .expect("send");
        let _ = expect_resp(&mut client, 1);
        let report = handle.join().expect("daemon thread");
        assert!(report.shed > 0, "the flood outran the backlog");
        assert_eq!(report.shed, turned_away);
        assert_eq!(report.stats.hits + report.stats.lookup_timeouts, served);
        assert!(served >= MAX_BACKLOG as u64, "a full backlog was served");
        assert_eq!(report.bad_requests + report.aborted_at_drain, 0);
        let cost = admit_cost(TransportKind::Channel, MessageKind::Lookup);
        let floor = cost * served as u32 - ADMIT_BURST;
        assert!(
            took >= floor,
            "{served} lookups in {took:?}, under {floor:?}"
        );
    }

    /// Every accepted request is accounted for exactly once when the
    /// client vanishes mid-flight, and a daemon whose control plane died
    /// is draining: it retries nothing.
    #[test]
    fn accounting_sums_when_the_client_is_dropped_with_requests_in_flight() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 13,
            retry: RetryPolicy {
                timeout: Duration::from_millis(100),
                retries: 5,
            },
            fallback_drain: Duration::from_millis(400),
            ..DaemonConfig::default()
        });
        for token in 0..100u64 {
            let object = Id::from_low_u64(0xdead_0000 + token);
            client
                .send(&frame(
                    CtrlRequest::Lookup {
                        object,
                        origin: (token % 16) as u32,
                    },
                    token,
                ))
                .expect("send");
        }
        drop(client);
        let report = handle.join().expect("daemon thread");
        let s = &report.stats;
        assert_eq!(
            s.hits
                + s.announces
                + s.lookup_timeouts
                + s.announce_timeouts
                + report.aborted_at_drain,
            100,
            "{}",
            report.to_json()
        );
        assert_eq!(s.retries, 0, "a draining daemon re-submits nothing");
        assert_eq!(
            report.send_errors, 100,
            "every answer found the client gone"
        );
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn the_hedge_delay_follows_what_it_is_shown_between_floor_and_cap() {
        let cap = 150 * MS;
        let mut delay = HedgeDelay::default();
        for attempt in 0..4 {
            assert_eq!(delay.patience(attempt, cap), cap, "nothing measured yet");
        }
        for _ in 0..100 {
            delay.sample(Duration::from_micros(100));
        }
        assert_eq!(delay.patience(0, cap), HEDGE_FLOOR);
        // Doubles per attempt, up to the cap.
        let schedule: Vec<_> = (0..8).map(|attempt| delay.patience(attempt, cap)).collect();
        for pair in schedule.windows(2) {
            assert_eq!(pair[1], (2 * pair[0]).min(cap), "{schedule:?}");
        }
        assert_eq!(schedule[7], cap);
        // Slower replies move it up, in whole milliseconds...
        let mut last = delay.patience(0, cap);
        for _ in 0..100 {
            delay.sample(5 * MS);
            let now = delay.patience(0, cap);
            assert!(now >= last || now >= 5 * MS, "{last:?} then {now:?}");
            assert_eq!(now.subsec_nanos() % 1_000_000, 0);
            last = now;
        }
        assert!((5 * MS..=6 * MS).contains(&last), "{last:?}");
        // ...and nothing it is shown takes it out of its range.
        for (i, micros) in [0, 1, 40, 900_000, 3, 10_000_000, 0, 77].iter().enumerate() {
            delay.sample(Duration::from_micros(*micros));
            for attempt in [0, 1, i as u32, 31, 32, u32::MAX] {
                let patience = delay.patience(attempt, cap);
                assert!((HEDGE_FLOOR..=cap).contains(&patience), "{patience:?}");
            }
        }
        // A cap below the floor is still the cap.
        assert_eq!(delay.patience(0, MS), MS);
    }

    /// Whatever the schedule, a request nobody answers is given up
    /// exactly one budget after it was first submitted.
    #[test]
    fn every_schedule_spends_the_whole_budget_and_no_more() {
        for (timeout_ms, retries, reply_us, expect_attempts) in [
            (150, 2, None, 3),      // the flat periods, as ever
            (150, 2, Some(100), 8), // 3, 6, 12, .. 96, 150 ms and the rest
            (150, 2, Some(5_000), 7),
            (60, 1, Some(100), 6),
            (7, 3, Some(100), 5),
            (2, 0, Some(100), 1),
            (1_000, 0, Some(40_000), 5),
        ] {
            let policy = RetryPolicy {
                timeout: timeout_ms * MS,
                retries,
            };
            let mut delay = HedgeDelay::default();
            for _ in 0..reply_us.map_or(0, |_| 100) {
                delay.sample(Duration::from_micros(reply_us.unwrap_or(0)));
            }
            let mut tracker: RequestTracker<()> = RequestTracker::new(policy);
            let start = 17 * MS;
            tracker.track_for(MessageId(0), (), start, delay.patience(0, policy.timeout));
            let mut attempts = 1u64;
            let gave_up_at = loop {
                let now = tracker.next_deadline().expect("one request in flight");
                let (old_id, pending) = tracker.pop_expired(now).expect("due");
                let left = tracker.budget_left(&pending, now);
                if left.is_zero() {
                    break now;
                }
                let patience = delay
                    .patience(pending.attempt + 1, policy.timeout)
                    .min(left);
                tracker.hedge(MessageId(attempts), old_id, pending, now, patience);
                attempts += 1;
            };
            assert_eq!(
                gave_up_at,
                start + policy.budget(),
                "{policy:?} after {reply_us:?} us replies, {attempts} attempts"
            );
            assert_eq!(attempts, expect_attempts, "{policy:?}, {reply_us:?} us");
            assert_eq!(tracker.retried() + 1, attempts);
            assert!(tracker.is_idle());
        }
    }

    /// Warms the hedge delay up: until a lookup has been answered an
    /// attempt waits the whole period, as it always did.
    fn announce_and_look_up(client: &mut ChannelCtrlClient, object: Id, nodes: u32, token: u64) {
        client
            .send(&frame(CtrlRequest::Announce { object, origin: 0 }, token))
            .expect("send");
        assert!(matches!(
            expect_resp(client, token),
            CtrlResponse::Announced { .. }
        ));
        for origin in 0..nodes {
            let token = token + 1 + u64::from(origin);
            client
                .send(&frame(CtrlRequest::Lookup { object, origin }, token))
                .expect("send");
            assert!(matches!(
                expect_resp(client, token),
                CtrlResponse::Found { .. }
            ));
        }
    }

    #[test]
    fn a_lookup_leaves_a_deaf_entry_node_behind_and_an_announce_waits_for_it() {
        let timeout = 200 * MS;
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 24,
            degree: 6,
            seed: 15,
            retry: RetryPolicy {
                timeout,
                retries: 2,
            },
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0x0b1ec7);
        announce_and_look_up(&mut client, object, 24, 100);
        let deaf_for = 300 * MS;
        let clock = WallClock::start();
        client
            .send(&frame(
                CtrlRequest::Perturb {
                    node: 9,
                    millis: deaf_for.as_millis() as u32,
                },
                1,
            ))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 1), CtrlResponse::Ok);
        client
            .send(&frame(CtrlRequest::Lookup { object, origin: 9 }, 2))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 2),
            CtrlResponse::Found { .. }
        ));
        let found_after = clock.elapsed();
        assert!(
            found_after < timeout / 2,
            "answered through another entry, not by waiting: {found_after:?}"
        );
        // The owner a pointer names is the origin of its announce, so an
        // announce goes in through the node the client named or not at
        // all: it is answered once that node hears again.
        let other = Id::from_low_u64(0x0b1ec8);
        client
            .send(&frame(
                CtrlRequest::Announce {
                    object: other,
                    origin: 9,
                },
                3,
            ))
            .expect("send");
        assert!(matches!(
            expect_resp(&mut client, 3),
            CtrlResponse::Announced { .. }
        ));
        let announced_after = clock.elapsed();
        assert!(
            announced_after >= deaf_for,
            "node 9 was deaf until {deaf_for:?}, announced at {announced_after:?}"
        );
        client
            .send(&frame(CtrlRequest::Drain { millis: 500 }, 4))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 4), CtrlResponse::Ok);
        let report = handle.join().expect("daemon thread");
        assert!(report.hedges >= 1, "{}", report.to_json());
        assert!(
            report.stats.retries > report.hedges,
            "the announce was re-submitted a whole period later: {}",
            report.to_json()
        );
        assert!(report.to_json().contains("\"hedges\":"));
        assert_eq!(report.stats.hits, 25);
        assert_eq!(report.stats.announces, 2);
        assert_eq!(
            report.stats.lookup_timeouts + report.stats.announce_timeouts,
            0
        );
    }

    #[test]
    fn an_absent_id_is_not_found_once_and_no_sooner_than_the_budget() {
        let policy = RetryPolicy {
            timeout: 60 * MS,
            retries: 1,
        };
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 16,
            retry: policy,
            ..DaemonConfig::default()
        });
        announce_and_look_up(&mut client, Id::from_low_u64(0xface), 16, 100);
        let clock = WallClock::start();
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: Id::from_low_u64(0xdead),
                    origin: 2,
                },
                7,
            ))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 7), CtrlResponse::NotFound);
        let took = clock.elapsed();
        assert!(took >= policy.budget(), "gave up after {took:?}");
        // The next frame is the answer to the next request: no attempt
        // produced a second NotFound.
        client.send(&frame(CtrlRequest::Stats, 8)).expect("send");
        let stats = match expect_resp(&mut client, 8) {
            CtrlResponse::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.lookup_timeouts, 1);
        // 3 + 6 + 12 + 24 + 48 ms and what is left of 120.
        assert!(stats.retries >= 4, "{} re-submissions", stats.retries);
        client
            .send(&frame(CtrlRequest::Drain { millis: 300 }, 9))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 9), CtrlResponse::Ok);
        let report = handle.join().expect("daemon thread");
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert_eq!(report.aborted_at_drain, 0);
        assert!(report.hedges >= 4 && report.hedges <= report.stats.retries);
    }

    /// The entry cycle, walked from every in-service node: each other
    /// in-service node once, no parked one, then the start again.
    fn assert_entries_cycle(daemon: &Daemon<ChannelControl>, in_service: usize) {
        for start in 0..in_service as u32 {
            let start = NodeIdx::new(start);
            let mut seen = vec![start];
            let mut at = daemon.another_entry(start);
            while at != start {
                assert!(!daemon.cluster.is_parked(at), "{at:?} is parked");
                assert!(!seen.contains(&at), "{at:?} twice from {start:?}");
                seen.push(at);
                at = daemon.another_entry(at);
            }
            assert_eq!(seen.len(), in_service, "from {start:?}: {seen:?}");
        }
    }

    #[test]
    fn no_attempt_enters_through_a_parked_node_or_twice_through_one() {
        let (server, _client) = ChannelControl::pair();
        let daemon = Daemon::spawn(
            DaemonConfig {
                nodes: 10,
                degree: 4,
                spares: 6,
                seed: 17,
                ..DaemonConfig::default()
            },
            server,
        )
        .expect("daemon spawn");
        assert_entries_cycle(&daemon, 10);
        // A spare that has joined is an entry like any other.
        daemon.cluster.unpark(NodeIdx::new(12));
        assert!((0..10).any(|n| daemon.another_entry(NodeIdx::new(n)) == NodeIdx::new(12)));
        daemon.drain(Duration::ZERO);
    }

    #[test]
    fn with_no_other_node_in_service_the_same_entry_is_tried_again() {
        let policy = RetryPolicy {
            timeout: 40 * MS,
            retries: 1,
        };
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 1,
            degree: 1,
            spares: 1,
            seed: 18,
            retry: policy,
            ..DaemonConfig::default()
        });
        announce_and_look_up(&mut client, Id::from_low_u64(0x501e), 1, 100);
        client
            .send(&frame(
                CtrlRequest::Lookup {
                    object: Id::from_low_u64(0xdead),
                    origin: 0,
                },
                7,
            ))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 7), CtrlResponse::NotFound);
        client
            .send(&frame(CtrlRequest::Drain { millis: 100 }, 8))
            .expect("send");
        assert_eq!(expect_resp(&mut client, 8), CtrlResponse::Ok);
        let report = handle.join().expect("daemon thread");
        assert!(report.stats.retries >= 2, "{}", report.to_json());
        assert_eq!(report.node_stats[1].frames, 0, "the spare stayed parked");
    }

    #[test]
    fn a_drain_with_hedges_in_flight_answers_every_request_once() {
        let (handle, mut client) = spawn_daemon(DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 19,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0xd2a1);
        announce_and_look_up(&mut client, object, 16, 100);
        const ABSENT: u64 = 40;
        for token in 0..ABSENT {
            client
                .send(&frame(
                    CtrlRequest::Lookup {
                        object: Id::from_low_u64(0xdead_0000 + token),
                        origin: (token % 16) as u32,
                    },
                    token,
                ))
                .expect("send");
        }
        // Until every one of them has been re-submitted, on average.
        let mut token = 1_000;
        loop {
            client
                .send(&frame(CtrlRequest::Stats, token))
                .expect("send");
            match expect_resp(&mut client, token) {
                CtrlResponse::Stats(s) if s.retries >= ABSENT => break,
                CtrlResponse::Stats(_) => token += 1,
                other => panic!("expected stats, got {other:?}"),
            }
        }
        client
            .send(&frame(CtrlRequest::Drain { millis: 5 }, 999))
            .expect("send");
        let mut answered = vec![0u32; ABSENT as usize];
        loop {
            let raw = client
                .recv(Duration::from_secs(5))
                .expect("daemon alive")
                .expect("an answer to every request");
            match CtrlResponse::decode(&raw).expect("decode response") {
                (999, CtrlResponse::Ok) => {}
                (token, CtrlResponse::NotFound) => answered[token as usize] += 1,
                other => panic!("unexpected answer {other:?}"),
            }
            if answered.iter().sum::<u32>() == ABSENT as u32 {
                break;
            }
        }
        let report = handle.join().expect("daemon thread");
        assert!(answered.iter().all(|&n| n == 1), "{answered:?}");
        // The daemon is gone; what it sent is still queued.
        assert!(
            !matches!(client.recv(Duration::from_millis(50)), Ok(Some(_))),
            "nothing is answered twice"
        );
        let s = &report.stats;
        assert_eq!(s.hits, 16);
        assert_eq!(
            s.lookup_timeouts + report.aborted_at_drain,
            ABSENT,
            "{}",
            report.to_json()
        );
        assert!(report.hedges >= ABSENT, "{}", report.to_json());
    }
}
