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
//!    [`RequestTracker`](mpil_net::RequestTracker), with re-submission
//!    under fresh message ids: an announce from the same origin once a
//!    whole [`RetryPolicy::timeout`] has passed, a lookup through
//!    *another* entry node as soon as it has been unanswered for longer
//!    than answered ones are measured to take (see `HedgeDelay`), the
//!    earlier attempts still listened for. A lookup's first attempt
//!    carries [`FIRST_FLOWS`] flows, its hedges all `max_flows`. The
//!    earliest deadline is the timeout of the blocking receive. The
//!    only other instants the daemon ever waits for are the one at
//!    which admission lets the next queued request in (and only a
//!    daemon that is offered more than it admits has requests queued)
//!    and the end of a drain.
//!
//! Data-plane requests are fully pipelined: a control frame is turned
//! into a [`LiveCluster::submit_flows`] and a tracker entry, and the
//! client hears back when the matching event arrives (or the retry
//! budget dies). Admission control has two bounds. A window of the
//! attempts in the cluster (see `Window`) bounds the work in it: a
//! first attempt goes in only while the attempts holding a place carry
//! fewer than [`WINDOW`] flows, and an attempt holds its place until it
//! is answered or has been in for a first attempt's patience. A budget
//! of estimated work per second (see `Admission`) bounds the rate,
//! below what the host serves in its slow minutes, so that what a
//! client sees is the admitted rate and not the host's speed. Hedges
//! and retries take a place and spend budget without waiting for
//! either. Requests that find the window full or the budget spent wait
//! their turn in a bounded backlog, and beyond that are turned away
//! with `UNAVAILABLE`.
//!
//! Shutdown is graceful by contract: a `Drain` request (or the death of
//! the control plane) stops admission, keeps serving the inbox until
//! the in-flight set empties (or the drain budget runs out, failing the
//! stragglers) while turning new requests away with `UNAVAILABLE`, then
//! drains the shards themselves via
//! [`LiveCluster::shutdown_drain`]. Draining is a state of the one event
//! loop, not a loop of its own; of two `Drain` requests the one whose
//! budget ends first stands. No thread the daemon or its control plane
//! started outlives [`Daemon::run`].
//!
//! # Core and shell
//!
//! Every decision above is made by [`Core`], which has no clock and no
//! socket: it is told the time, as a [`Duration`] since startup, with
//! each input, and reaches the cluster and the clients through one
//! seam, [`World`]. [`Daemon`] is the shell around it, and the only code
//! here that reads the clock (the workspace's sanctioned [`WallClock`])
//! or blocks. The contract between the two:
//!
//! * **Who reads the clock.** The shell, once for each input it hands
//!   over, once for [`Core::on_wake`] and once to size its sleep. The
//!   core never compares an instant with anything but the `now` of the
//!   call it is in, so a test drives it on a virtual clock and every
//!   hedge, admission and give-up falls on an exact instant.
//! * **What [`Core::next_wake`] promises.** Nothing the core is waiting
//!   for falls due before it: the earliest attempt deadline, the
//!   instant the oldest place in a full window is freed or the budget
//!   opens for a waiting backlog, the end of the drain budget. `None` means only an input
//!   can give the core work, and the shell sleeps `IDLE_CAP` at a time.
//!   An instant already past is a sleep of zero.
//! * **The order of a turn.** Sleep until an input arrives or
//!   `next_wake` falls due; hand over that input and what is queued
//!   behind it, `BATCH` inputs at most (so a flooding client cannot
//!   starve the deadlines), each with the time it is taken up; then
//!   [`Core::on_wake`]: admit from the backlog, then expire and
//!   re-submit and fail what is out of budget. An answer lets the next
//!   queued request in the moment it is handed over. Turns repeat until
//!   [`Core::finished`]; the inputs queued behind the last one handled
//!   get their answers, and [`Core::finish`] gives up on the rest.
//!
//! [`LiveCluster`]: mpil_net::LiveCluster
//! [`LiveCluster::submit_flows`]: mpil_net::LiveCluster::submit_flows
//! [`LiveCluster::shutdown_drain`]: mpil_net::LiveCluster::shutdown_drain
//! [`LiveClusterBuilder::spawn_with_sink`]: mpil_net::LiveClusterBuilder::spawn_with_sink
//! [`RetryPolicy::timeout`]: mpil_net::RetryPolicy::timeout

mod admission;
mod control;
mod core;
mod hedge;
mod window;

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use mpil::{MessageId, MessageKind, MpilConfig};
use mpil_id::Id;
use mpil_net::{LiveCluster, LiveClusterBuilder, RetryPolicy, TransportKind};
use mpil_overlay::{generators, NodeIdx};
use mpil_workload::WallClock;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use self::admission::{admit_cost, ADMIT_BURST};
pub use self::control::{
    ChannelControl, ChannelCtrlClient, ControlPlane, Inbox, Input, UdpControl,
};
pub use self::core::{Core, DaemonReport, World};
pub use self::hedge::{FIRST_FLOWS, HEDGE_FLOOR};
pub use self::window::{MAX_BACKLOG, WINDOW};
use crate::proto::CtrlResponse;

/// Inputs handled per turn of the daemon before deadlines get a look
/// (keeps a flooding client from starving timeouts and retries).
const BATCH: usize = 256;
/// Longest sleep when nothing is in flight. No deadline hides behind
/// it: with an empty tracker only an input can give the daemon work.
const IDLE_CAP: Duration = Duration::from_secs(1);

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
    /// Master seed: topology, node ids, the shards' tie-breaking RNGs.
    pub seed: u64,
    /// Data-plane transport of the cluster mesh.
    pub transport: TransportKind,
    /// MPIL protocol parameters (flows, replicas, suppression).
    /// `max_flows` is the width of every announce and of every hedge of
    /// a lookup; a lookup's first attempt carries [`FIRST_FLOWS`] of
    /// them.
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

/// The world of a running daemon: its cluster and its control plane.
struct Live<C> {
    cluster: LiveCluster,
    ctrl: C,
}

impl<C: ControlPlane> World for Live<C> {
    type Addr = C::Addr;

    fn submit(
        &mut self,
        kind: MessageKind,
        origin: NodeIdx,
        object: Id,
        flows: u32,
    ) -> Option<MessageId> {
        self.cluster.submit_flows(kind, origin, object, flows).ok()
    }

    fn is_parked(&self, node: NodeIdx) -> bool {
        self.cluster.is_parked(node)
    }

    fn unpark(&mut self, node: NodeIdx) {
        self.cluster.unpark(node);
    }

    fn perturb(&mut self, node: NodeIdx, duration: Duration) {
        self.cluster.perturb(node, duration);
    }

    fn heal(&mut self, node: NodeIdx) {
        self.cluster.heal(node);
    }

    fn respond(&mut self, to: &C::Addr, token: u64, resp: CtrlResponse) -> bool {
        self.ctrl.send(to, &resp.encode(token)).is_ok()
    }
}

/// A running MPIL service: the [`Core`] over a live cluster and a
/// control plane, its inbox and its clock.
pub struct Daemon<C: ControlPlane> {
    core: Core<Live<C>>,
    inbox: Receiver<Input<C::Addr>>,
    clock: WallClock,
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
        let core = Core::new(&config, Live { cluster, ctrl }, &mut rng);
        // The core's time is the clock's: it starts here.
        Ok(Daemon {
            core,
            inbox,
            clock: WallClock::start(),
        })
    }

    /// Hands the core the first input to arrive within `wait` and what
    /// is queued behind it, [`BATCH`] inputs at most, each with the time
    /// it is taken up. `false` once no input can arrive any more.
    fn feed(&mut self, wait: Duration) -> bool {
        let inbox = &self.inbox;
        let behind = std::iter::repeat_with(|| {
            inbox.try_recv().map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
            })
        });
        for next in std::iter::once(inbox.recv_timeout(wait))
            .chain(behind)
            .take(BATCH)
        {
            let now = self.clock.elapsed();
            match next {
                Ok(Input::Request { from, frame }) => self.core.on_request(now, &from, &frame),
                Ok(Input::Event(event)) => self.core.on_event(now, event),
                Ok(Input::Closed) => self.core.on_closed(now),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    self.core.on_closed(now);
                    return false;
                }
            }
        }
        true
    }

    /// Serves until a `Drain` request (or control-plane death) and the
    /// end of the drain it begins, then drains the shards, stops the
    /// control plane's reader and returns the final account.
    pub fn run(mut self) -> DaemonReport {
        loop {
            let now = self.clock.elapsed();
            if self.core.finished(now) {
                break;
            }
            let wake_at = self.core.next_wake();
            let wait = wake_at.map_or(IDLE_CAP, |at| at.saturating_sub(now));
            let connected = self.feed(wait);
            self.core.on_wake(self.clock.elapsed());
            if !connected {
                break;
            }
        }
        // What queued up behind the last input handled gets its answer
        // too.
        self.feed(Duration::ZERO);
        let now = self.clock.elapsed();
        let left = self.core.drain_left(now);
        let (live, mut report) = self.core.finish(now);
        report.shards = live.cluster.shards();
        report.node_stats = live.cluster.shutdown_drain(left);
        // Joins the control plane's reader and frees its port before the
        // caller sees the report.
        drop(live.ctrl);
        report
    }
}

#[cfg(test)]
mod tests {
    mod fake;

    use std::net::{SocketAddr, UdpSocket};

    use mpil_net::RequestTracker;

    use self::fake::{Answer, Attempt, VirtualDaemon, CLIENT};
    use super::admission::{Admission, ADMIT_WAVE};
    use super::hedge::HedgeDelay;
    use super::*;
    use crate::proto::{err_code, CtrlRequest};

    // The shell: threads, sockets and the real clock.

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

    // Time as an argument: the parts on their own.

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

    // The core on a virtual clock: every decision, to the instant.

    const US: Duration = Duration::from_micros(1);

    fn absent(n: u64) -> Id {
        Id::from_low_u64(0xdead_0000 + n)
    }

    fn lookup(object: Id, origin: u32) -> CtrlRequest {
        CtrlRequest::Lookup { object, origin }
    }

    fn refused(code: u8) -> CtrlResponse {
        CtrlResponse::Err { code }
    }

    /// The one response sent under `token`.
    fn the_answer(sim: &mut VirtualDaemon, token: u64) -> Answer {
        let answers = sim.answers_to(token);
        assert_eq!(answers.len(), 1, "token {token}: {answers:?}");
        assert_eq!(answers[0].to, CLIENT, "sent where the request came from");
        answers[0]
    }

    /// What was submitted for `object`: when, and through which node.
    fn attempts_for(sim: &mut VirtualDaemon, object: Id) -> Vec<(Duration, u32)> {
        let attempts = sim.world().attempts.iter();
        attempts
            .filter(|a| a.object == object)
            .map(|a| (a.at, a.origin.index() as u32))
            .collect()
    }

    /// Warms the hedge delay up (until a lookup has been answered an
    /// attempt waits the whole period, as it always did): an announce
    /// and a lookup through each of `nodes` nodes, a millisecond apart,
    /// each answered 100 µs after it went in.
    fn announce_and_look_up(sim: &mut VirtualDaemon, object: Id, nodes: u32, token: u64) {
        let announce = CtrlRequest::Announce { object, origin: 0 };
        let lookups = (0..nodes).map(|origin| lookup(object, origin));
        for (i, req) in std::iter::once(announce).chain(lookups).enumerate() {
            let token = token + i as u64;
            sim.request(token, req);
            let attempt = *sim.world().attempts.last().expect("submitted at once");
            sim.advance_to(sim.now + 100 * US);
            sim.answer(&attempt);
            assert!(matches!(
                the_answer(sim, token).resp,
                CtrlResponse::Announced { .. } | CtrlResponse::Found { .. }
            ));
            sim.advance_to(sim.now + 900 * US);
        }
    }

    #[test]
    fn lookup_of_absent_object_times_out_with_not_found() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 6,
            retry: RetryPolicy {
                timeout: 60 * MS,
                retries: 1,
            },
            ..DaemonConfig::default()
        });
        sim.request(7, lookup(absent(0), 2));
        sim.advance_to(120 * MS - US);
        assert!(
            sim.answers_to(7).is_empty(),
            "not before the budget is spent"
        );
        sim.advance_to(120 * MS);
        let answer = the_answer(&mut sim, 7);
        assert_eq!((answer.at, answer.resp), (120 * MS, CtrlResponse::NotFound));
        // No lookup was ever answered: each attempt waited the whole
        // period, and the second went in by another door.
        let attempts = attempts_for(&mut sim, absent(0));
        assert_eq!(attempts.len(), 2, "{attempts:?}");
        assert_eq!(attempts[0], (Duration::ZERO, 2));
        assert_eq!(attempts[1].0, 60 * MS);
        assert_ne!(attempts[1].1, 2);
        sim.request(8, CtrlRequest::Drain { millis: 300 });
        assert_eq!(the_answer(&mut sim, 8).resp, CtrlResponse::Ok);
        assert!(sim.core.finished(sim.now), "nothing in flight to wait for");
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert_eq!(report.stats.retries, 1, "the retry budget was spent");
        assert_eq!(report.hedges, 0, "a whole period later is not a hedge");
    }

    #[test]
    fn join_unparks_a_spare_and_admin_ops_answer() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            spares: 2,
            seed: 7,
            ..DaemonConfig::default()
        });
        let bad_node = refused(err_code::BAD_NODE);
        // A parked spare is not a valid entry node...
        sim.request(1, lookup(Id::from_low_u64(1), 16));
        assert_eq!(the_answer(&mut sim, 1).resp, refused(err_code::UNAVAILABLE));
        // ...until it joins, which it does once.
        sim.request(2, CtrlRequest::Join { node: 16 });
        assert_eq!(the_answer(&mut sim, 2).resp, CtrlResponse::Ok);
        assert!(!sim.world().parked[16]);
        sim.request(3, CtrlRequest::Join { node: 16 });
        assert_eq!(the_answer(&mut sim, 3).resp, bad_node);
        sim.request(4, lookup(Id::from_low_u64(1), 16));
        assert!(sim.answers_to(4).is_empty(), "accepted, and in flight");
        assert_eq!(attempts_for(&mut sim, Id::from_low_u64(1)).len(), 1);
        // Stats reflect the join, and the time they are asked at.
        sim.advance_to(5 * MS);
        sim.request(5, CtrlRequest::Stats);
        match the_answer(&mut sim, 5).resp {
            CtrlResponse::Stats(s) => {
                assert_eq!((s.live_nodes, s.parked, s.uptime_ms), (17, 1, 5));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Perturb/heal/join of a node that is not there is rejected, as
        // is a frame that does not decode; on a good index they reach
        // the cluster.
        let millis = 10;
        for (token, req) in [
            (6, CtrlRequest::Perturb { node: 99, millis }),
            (7, CtrlRequest::Heal { node: 18 }),
            (8, CtrlRequest::Join { node: 18 }),
            (9, lookup(Id::from_low_u64(1), 18)),
        ] {
            sim.request(token, req);
            assert_eq!(the_answer(&mut sim, token).resp, bad_node, "{req:?}");
        }
        sim.core.on_request(sim.now, &CLIENT, &[0xff; 3]);
        assert_eq!(the_answer(&mut sim, 0).resp, refused(err_code::BAD_REQUEST));
        sim.request(10, CtrlRequest::Perturb { node: 3, millis });
        assert_eq!(the_answer(&mut sim, 10).resp, CtrlResponse::Ok);
        sim.request(11, CtrlRequest::Heal { node: 3 });
        assert_eq!(the_answer(&mut sim, 11).resp, CtrlResponse::Ok);
        assert_eq!(sim.world().perturbed, [(NodeIdx::new(3), 10 * MS)]);
        assert_eq!(sim.world().healed, [NodeIdx::new(3)]);
        sim.request(12, CtrlRequest::Drain { millis: 0 });
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.joins, 1);
        assert_eq!(report.perturbs, 1);
        assert_eq!(report.heals, 1);
        assert_eq!(report.bad_requests, 7);
        assert_eq!((report.stats.live_nodes, report.stats.parked), (17, 1));
        assert_eq!(report.aborted_at_drain, 1, "the lookup nobody answered");
    }

    #[test]
    fn requests_that_arrive_during_the_drain_are_turned_away() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 12,
            retry: RetryPolicy {
                timeout: 300 * MS,
                retries: 0,
            },
            ..DaemonConfig::default()
        });
        // Keeps the drain busy for 300 ms.
        sim.request(1, lookup(absent(0), 1));
        sim.advance_to(MS);
        sim.request(2, CtrlRequest::Drain { millis: 2_000 });
        assert_eq!(the_answer(&mut sim, 2).resp, CtrlResponse::Ok);
        // The drain has begun. Data and admin requests are answered
        // now, not after the first one's deadline, and reach nothing.
        sim.advance_to(2 * MS);
        for (token, req) in [
            (3, lookup(absent(1), 2)),
            (
                4,
                CtrlRequest::Announce {
                    object: absent(2),
                    origin: 2,
                },
            ),
            (5, CtrlRequest::Perturb { node: 3, millis: 5 }),
            (6, CtrlRequest::Join { node: 3 }),
        ] {
            sim.request(token, req);
            let answer = the_answer(&mut sim, token);
            assert_eq!(
                (answer.at, answer.resp),
                (2 * MS, refused(err_code::UNAVAILABLE)),
                "{req:?}"
            );
        }
        assert_eq!(sim.world().attempts.len(), 1);
        assert!(sim.world().perturbed.is_empty());
        sim.request(7, CtrlRequest::Stats);
        assert!(matches!(
            the_answer(&mut sim, 7).resp,
            CtrlResponse::Stats(_)
        ));
        // What was in flight is served out, and that ends the drain:
        // long before its budget does.
        sim.advance_to(300 * MS - US);
        assert!(!sim.core.finished(sim.now));
        let (world, report) = sim.run_to_finish();
        let last = world.answers.last().expect("answers");
        assert_eq!(
            (last.at, last.token, last.resp),
            (300 * MS, 1, CtrlResponse::NotFound)
        );
        assert_eq!(report.uptime_s, 0.3);
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert_eq!(report.aborted_at_drain, 0);
        assert_eq!(report.bad_requests, 0);
    }

    #[test]
    fn of_two_drains_the_one_that_ends_first_stands() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            retry: RetryPolicy {
                timeout: 300 * MS,
                retries: 0,
            },
            ..DaemonConfig::default()
        });
        sim.request(1, lookup(absent(0), 1));
        sim.advance_to(MS);
        sim.request(2, CtrlRequest::Drain { millis: 2_000 });
        assert_eq!(sim.core.drain_left(sim.now), 2_000 * MS);
        sim.advance_to(2 * MS);
        sim.request(3, CtrlRequest::Drain { millis: 50 });
        assert_eq!(sim.core.drain_left(sim.now), 50 * MS);
        sim.advance_to(3 * MS);
        sim.request(4, CtrlRequest::Drain { millis: 5_000 });
        assert_eq!(sim.core.drain_left(sim.now), 49 * MS);
        // Nor does the control plane closing give it longer.
        sim.close();
        assert_eq!(sim.core.drain_left(sim.now), 49 * MS);
        for token in 2..=4 {
            assert_eq!(the_answer(&mut sim, token).resp, CtrlResponse::Ok);
        }
        sim.advance_to(52 * MS - US);
        assert!(!sim.core.finished(sim.now));
        let (world, report) = sim.run_to_finish();
        let last = world.answers.last().expect("answers");
        assert_eq!(
            (last.at, last.token, last.resp),
            (52 * MS, 1, CtrlResponse::NotFound)
        );
        assert_eq!(report.aborted_at_drain, 1);
        assert_eq!(report.stats.lookup_timeouts, 0);
    }

    /// A flood beyond the backlog: every request is answered, what did
    /// not fit is turned away, and served + shed adds up. The served ones
    /// go in at the admission rate: no faster, and no slower (each is
    /// answered the moment it goes in, so the window never fills).
    #[test]
    fn a_flood_is_paced_shed_and_accounted_for() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 14,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0xf100d);
        announce_and_look_up(&mut sim, object, 0, 1);
        let start = Duration::from_secs(1);
        sim.advance_to(start);
        let mut answered = sim.world().attempts.len();
        let flood = 3 * MAX_BACKLOG as u64;
        for i in 0..flood {
            sim.request(2 + i, lookup(object, (i % 16) as u32));
        }
        let cost = admit_cost(TransportKind::Channel, MessageKind::Lookup);
        let burst = (ADMIT_BURST.as_nanos() / cost.as_nanos()) as usize;
        assert_eq!(sim.world().attempts.len() - answered, burst);
        let shed = flood - (burst + MAX_BACKLOG) as u64;
        let turned_away = sim
            .world()
            .answers
            .iter()
            .filter(|a| (a.at, a.resp) == (start, refused(err_code::UNAVAILABLE)));
        assert_eq!(turned_away.count() as u64, shed);
        // Every lookup is answered the moment it goes in.
        let first = answered;
        loop {
            let new: Vec<Attempt> = sim.world().attempts[answered..].to_vec();
            answered += new.len();
            for attempt in &new {
                sim.answer(attempt);
            }
            match sim.core.next_wake() {
                Some(at) => sim.wake_at(at),
                None => break,
            }
        }
        for (k, attempt) in sim.world().attempts[first..].iter().enumerate() {
            let spent = cost * (k as u32 + 1);
            let elapsed = attempt.at - start;
            assert!(
                spent <= elapsed + ADMIT_BURST + cost && elapsed <= spent,
                "lookup {k} went in after {elapsed:?}"
            );
        }
        let mut answers = vec![0; flood as usize];
        for answer in &sim.world().answers {
            if let Some(count) = answers.get_mut((answer.token as usize).wrapping_sub(2)) {
                *count += 1;
            }
        }
        assert!(answers.iter().all(|&n| n == 1), "each answered once");
        sim.request(1, CtrlRequest::Drain { millis: 500 });
        assert!(sim.core.finished(sim.now));
        let (world, report) = sim.run_to_finish();
        assert_eq!(report.shed, shed);
        assert_eq!(report.stats.hits, (burst + MAX_BACKLOG) as u64);
        assert_eq!(world.attempts.len() - first, burst + MAX_BACKLOG);
        assert_eq!(report.stats.lookup_timeouts + report.stats.retries, 0);
        assert_eq!(report.bad_requests + report.aborted_at_drain, 0);
    }

    /// Lookups whose narrow first attempts fill the window.
    const NARROW: usize = (WINDOW / FIRST_FLOWS as u64) as usize;

    /// Lookups of absent objects fill the window, and stay tracked for
    /// their whole budget; but each of their attempts holds its place
    /// for one hold only, so the lookups behind them go in when those
    /// places are freed, not when the absent ones are given up. (On
    /// loopback UDP, whose lookups are admitted fast enough to fill the
    /// window within one hold: a burst, then a wave.)
    #[test]
    fn lookups_of_absent_objects_close_the_window_for_one_hold_only() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 21,
            transport: TransportKind::Udp,
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0xab5e);
        announce_and_look_up(&mut sim, object, 16, 10_000);
        let start = sim.now;
        for token in 0..NARROW as u64 {
            sim.request(token, lookup(absent(token), (token % 16) as u32));
        }
        let arrived = start + 2 * MS;
        sim.advance_to(arrived);
        let went_in = (0..NARROW as u64)
            .filter(|&token| !attempts_for(&mut sim, absent(token)).is_empty())
            .count();
        assert_eq!(went_in, NARROW, "a burst and a wave let them all in");
        let before = sim.world().attempts.len();
        for token in 1_000..1_010 {
            sim.request(token, lookup(object, (token % 16) as u32));
        }
        assert_eq!(sim.world().attempts.len(), before, "the window is full");
        sim.advance_to(start + HEDGE_FLOOR);
        let found: Vec<_> = sim.world().attempts[before..]
            .iter()
            .filter(|a| a.object == object)
            .copied()
            .collect();
        assert_eq!(found.len(), 10);
        for attempt in &found {
            assert_eq!(attempt.at, start + HEDGE_FLOOR);
            assert!(attempt.at - arrived <= HEDGE_FLOOR);
            sim.answer(attempt);
        }
        for token in 1_000..1_010 {
            assert!(matches!(
                the_answer(&mut sim, token).resp,
                CtrlResponse::Found { .. }
            ));
        }
        // The absent ones are given up one whole budget after they went
        // in: a window of requests, not of attempts, would have kept
        // the ten out until then.
        let budget = RetryPolicy::default().budget();
        sim.advance_to(arrived + budget);
        for token in 0..NARROW as u64 {
            let went_in = attempts_for(&mut sim, absent(token))[0].0;
            let answer = the_answer(&mut sim, token);
            assert_eq!(
                (answer.at, answer.resp),
                (went_in + budget, CtrlResponse::NotFound)
            );
        }
        sim.request(9_999, CtrlRequest::Drain { millis: 100 });
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.stats.lookup_timeouts, NARROW as u64);
        assert_eq!(report.shed + report.aborted_at_drain, 0);
    }

    /// Every accepted request is accounted for exactly once when the
    /// client vanishes mid-flight, and a daemon whose control plane died
    /// is draining: it retries nothing.
    #[test]
    fn accounting_sums_when_the_client_is_dropped_with_requests_in_flight() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 13,
            retry: RetryPolicy {
                timeout: 100 * MS,
                retries: 5,
            },
            fallback_drain: 80 * MS,
            ..DaemonConfig::default()
        });
        for token in 0..100u64 {
            if token == 60 {
                sim.advance_to(30 * MS);
            }
            sim.request(token, lookup(absent(token), (token % 16) as u32));
        }
        assert_eq!(sim.world().attempts.len(), 100);
        sim.world().client_gone = true;
        sim.advance_to(40 * MS);
        sim.close();
        assert_eq!(sim.core.drain_left(sim.now), 80 * MS);
        let (world, report) = sim.run_to_finish();
        // The first sixty ran out of patience during the drain, which
        // ran out of budget on the rest.
        for (token, answer) in world.answers.iter().enumerate() {
            let at = if token < 60 { 100 * MS } else { 120 * MS };
            assert_eq!(
                (answer.token, answer.at, answer.resp),
                (token as u64, at, CtrlResponse::NotFound)
            );
        }
        assert_eq!(world.answers.len(), 100);
        assert_eq!(world.attempts.len(), 100, "nothing was re-submitted");
        let s = &report.stats;
        assert_eq!((s.lookup_timeouts, report.aborted_at_drain), (60, 40));
        assert_eq!(s.hits + s.announces + s.announce_timeouts + s.retries, 0);
        assert_eq!(
            report.send_errors, 100,
            "every answer found the client gone"
        );
    }

    #[test]
    fn a_request_the_transport_refuses_is_answered_and_counted() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            retry: RetryPolicy {
                timeout: 60 * MS,
                retries: 1,
            },
            ..DaemonConfig::default()
        });
        // A first attempt refused...
        sim.world().refuse_submits = true;
        sim.request(1, lookup(absent(1), 1));
        assert_eq!(the_answer(&mut sim, 1).resp, refused(err_code::TRANSPORT));
        // ...and a second one.
        sim.world().refuse_submits = false;
        sim.request(2, lookup(absent(2), 2));
        sim.world().refuse_submits = true;
        sim.advance_to(60 * MS - US);
        assert!(sim.answers_to(2).is_empty());
        sim.advance_to(60 * MS);
        let answer = the_answer(&mut sim, 2);
        assert_eq!(
            (answer.at, answer.resp),
            (60 * MS, refused(err_code::TRANSPORT))
        );
        assert_eq!(sim.core.next_wake(), None, "neither is tracked any more");
        sim.close();
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.transport_errors, 2);
        assert!(report.to_json().contains("\"transport_errors\":2,"));
        let s = &report.stats;
        assert_eq!(s.hits + s.lookup_timeouts + report.aborted_at_drain, 0);
    }

    #[test]
    fn a_lookup_leaves_a_deaf_entry_node_behind_and_an_announce_waits_for_it() {
        let timeout = 200 * MS;
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 24,
            seed: 15,
            retry: RetryPolicy {
                timeout,
                retries: 2,
            },
            ..DaemonConfig::default()
        });
        let object = Id::from_low_u64(0x0b1ec7);
        announce_and_look_up(&mut sim, object, 24, 100);
        // Node 9 goes deaf: what is sent in through it gets no answer.
        sim.request(
            1,
            CtrlRequest::Perturb {
                node: 9,
                millis: 300,
            },
        );
        assert_eq!(the_answer(&mut sim, 1).resp, CtrlResponse::Ok);
        assert_eq!(sim.world().perturbed, [(NodeIdx::new(9), 300 * MS)]);
        let asked_at = sim.now;
        let before = sim.world().attempts.len();
        sim.request(2, lookup(object, 9));
        sim.advance_to(asked_at + HEDGE_FLOOR - US);
        assert_eq!(sim.world().attempts.len(), before + 1);
        sim.advance_to(asked_at + HEDGE_FLOOR);
        let (first, second) = match sim.world().attempts[before..] {
            [first, second] => (first, second),
            ref other => panic!("one hedge after 3 ms, not {other:?}"),
        };
        assert_eq!((first.at, first.origin.index()), (asked_at, 9));
        assert_eq!(second.at, asked_at + HEDGE_FLOOR);
        assert_ne!(second.origin.index(), 9, "by another door");
        sim.advance_to(second.at + 100 * US);
        sim.answer(&second);
        let found = the_answer(&mut sim, 2);
        assert_eq!(found.at, second.at + 100 * US);
        assert!(matches!(found.resp, CtrlResponse::Found { holder, .. }
            if holder == second.origin.index() as u32));
        // The first attempt's answer, when node 9 hears again, is one
        // too many.
        sim.advance_to(asked_at + 300 * MS);
        sim.answer(&first);
        the_answer(&mut sim, 2);
        // The owner a pointer names is the origin of its announce, so an
        // announce goes in through the node the client named or not at
        // all, a whole period apart.
        let other = Id::from_low_u64(0x0b1ec8);
        let announced_at = sim.now;
        sim.request(
            3,
            CtrlRequest::Announce {
                object: other,
                origin: 9,
            },
        );
        sim.advance_to(announced_at + timeout - US);
        assert_eq!(attempts_for(&mut sim, other), [(announced_at, 9)]);
        sim.advance_to(announced_at + timeout);
        assert_eq!(
            attempts_for(&mut sim, other),
            [(announced_at, 9), (announced_at + timeout, 9)]
        );
        let again = *sim.world().attempts.last().expect("attempts");
        sim.answer(&again);
        assert_eq!(
            the_answer(&mut sim, 3).resp,
            CtrlResponse::Announced { holder: 9 }
        );
        sim.request(4, CtrlRequest::Drain { millis: 500 });
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.hedges, 1, "{}", report.to_json());
        assert_eq!(
            report.stats.retries, 2,
            "the announce was re-submitted a whole period later"
        );
        assert!(report.to_json().contains("\"hedges\":1,"));
        assert_eq!(report.stats.hits, 25);
        assert_eq!(report.stats.announces, 2);
        assert_eq!(
            report.stats.lookup_timeouts + report.stats.announce_timeouts,
            0
        );
    }

    /// A lookup goes in narrow and is hedged at full width through
    /// another entry; an announce is full width from the start. A
    /// `--max-flows` below the first attempt's width caps both.
    #[test]
    fn a_lookup_goes_in_narrow_and_is_hedged_at_full_width() {
        for (max_flows, first, hedge) in [(10, 2, 10), (1, 1, 1)] {
            let defaults = DaemonConfig::default();
            let mut sim = VirtualDaemon::new(&DaemonConfig {
                nodes: 16,
                seed: 20,
                mpil: defaults.mpil.with_max_flows(max_flows),
                ..defaults
            });
            let object = Id::from_low_u64(0x5a9e);
            announce_and_look_up(&mut sim, object, 16, 100);
            let warm = sim.world().attempts.clone();
            assert_eq!(
                (warm[0].kind, warm[0].flows),
                (MessageKind::Insert, max_flows)
            );
            assert!(warm[1..]
                .iter()
                .all(|a| (a.kind, a.flows) == (MessageKind::Lookup, first)));
            // Nobody answers the next one until it is hedged.
            let asked_at = sim.now;
            sim.request(1, lookup(object, 3));
            sim.advance_to(asked_at + HEDGE_FLOOR);
            let (narrow, full) = match sim.world().attempts[warm.len()..] {
                [narrow, full] => (narrow, full),
                ref other => panic!("one hedge after 3 ms, not {other:?}"),
            };
            assert_eq!(
                (narrow.at, narrow.origin.index(), narrow.flows),
                (asked_at, 3, first)
            );
            assert_eq!((full.at, full.flows), (asked_at + HEDGE_FLOOR, hedge));
            assert_ne!(full.origin.index(), 3, "by another door");
            sim.answer(&full);
            assert!(matches!(
                the_answer(&mut sim, 1).resp,
                CtrlResponse::Found { .. }
            ));
        }
    }

    /// The offsets, in milliseconds from its first, of the attempts
    /// made for `object`, which all went in through `origin`.
    fn schedule_ms(sim: &mut VirtualDaemon, object: Id) -> Vec<u128> {
        let attempts = attempts_for(sim, object);
        let start = attempts[0].0;
        attempts
            .iter()
            .map(|&(at, _)| (at - start).as_millis())
            .collect()
    }

    #[test]
    fn an_absent_id_is_not_found_once_and_no_sooner_than_the_budget() {
        let policy = RetryPolicy {
            timeout: 60 * MS,
            retries: 1,
        };
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 16,
            retry: policy,
            ..DaemonConfig::default()
        });
        announce_and_look_up(&mut sim, Id::from_low_u64(0xface), 16, 100);
        let asked_at = sim.now;
        sim.request(7, lookup(absent(0), 2));
        sim.advance_to(asked_at + policy.budget() - US);
        assert!(sim.answers_to(7).is_empty(), "no sooner than the budget");
        sim.advance_to(asked_at + Duration::from_secs(1));
        let answer = the_answer(&mut sim, 7);
        assert_eq!(
            (answer.at, answer.resp),
            (asked_at + policy.budget(), CtrlResponse::NotFound)
        );
        // 3, 6, 12, 24 and 48 ms of patience, and what is left of 120.
        assert_eq!(schedule_ms(&mut sim, absent(0)), [0, 3, 9, 21, 45, 93]);
        sim.request(8, CtrlRequest::Stats);
        match the_answer(&mut sim, 8).resp {
            CtrlResponse::Stats(s) => assert_eq!((s.lookup_timeouts, s.retries), (1, 5)),
            other => panic!("expected stats, got {other:?}"),
        }
        sim.request(9, CtrlRequest::Drain { millis: 300 });
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.stats.lookup_timeouts, 1);
        assert_eq!(report.aborted_at_drain, 0);
        assert_eq!((report.hedges, report.stats.retries), (5, 5));
    }

    /// A lookup nobody answers walks the entry cycle: each other
    /// in-service node once, no parked one (the fake refuses those),
    /// then the start again.
    #[test]
    fn no_attempt_enters_through_a_parked_node_or_twice_through_one() {
        let policy = RetryPolicy {
            timeout: 10 * MS,
            retries: 10,
        };
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 10,
            spares: 6,
            seed: 17,
            retry: policy,
            ..DaemonConfig::default()
        });
        let entries_from = |sim: &mut VirtualDaemon, start: u32, token: u64| {
            sim.request(token, lookup(absent(token), start));
            sim.advance_to(sim.now + policy.budget());
            assert_eq!(the_answer(sim, token).resp, CtrlResponse::NotFound);
            let entries: Vec<u32> = attempts_for(sim, absent(token))
                .iter()
                .map(|&(_, origin)| origin)
                .collect();
            assert_eq!(entries.len(), 11);
            entries
        };
        for start in 0..10 {
            let entries = entries_from(&mut sim, start, u64::from(start));
            let mut once = entries[..10].to_vec();
            once.sort_unstable();
            assert_eq!(once, (0..10).collect::<Vec<_>>(), "from {start}");
            assert_eq!((entries[0], entries[10]), (start, start));
        }
        // A spare that has joined is an entry like any other.
        sim.request(100, CtrlRequest::Join { node: 12 });
        let mut entries = entries_from(&mut sim, 0, 101);
        entries.sort_unstable();
        let mut in_service: Vec<u32> = (0..10).collect();
        in_service.push(12);
        assert_eq!(entries, in_service);
    }

    #[test]
    fn with_no_other_node_in_service_the_same_entry_is_tried_again() {
        let policy = RetryPolicy {
            timeout: 40 * MS,
            retries: 1,
        };
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 1,
            degree: 1,
            spares: 1,
            seed: 18,
            retry: policy,
            ..DaemonConfig::default()
        });
        announce_and_look_up(&mut sim, Id::from_low_u64(0x501e), 1, 100);
        let asked_at = sim.now;
        sim.request(7, lookup(absent(0), 0));
        sim.advance_to(asked_at + Duration::from_secs(1));
        let answer = the_answer(&mut sim, 7);
        assert_eq!(
            (answer.at, answer.resp),
            (asked_at + policy.budget(), CtrlResponse::NotFound)
        );
        assert_eq!(schedule_ms(&mut sim, absent(0)), [0, 3, 9, 21, 45]);
        // The spare stayed parked: the fake would not have it otherwise.
        assert!(sim.world().attempts.iter().all(|a| a.origin.index() == 0));
        sim.request(8, CtrlRequest::Drain { millis: 100 });
        let (_, report) = sim.run_to_finish();
        assert_eq!(report.stats.retries, 4, "{}", report.to_json());
    }

    #[test]
    fn a_drain_with_hedges_in_flight_answers_every_request_once() {
        let mut sim = VirtualDaemon::new(&DaemonConfig {
            nodes: 16,
            seed: 19,
            ..DaemonConfig::default()
        });
        announce_and_look_up(&mut sim, Id::from_low_u64(0xd2a1), 16, 100);
        const ABSENT: u64 = 40;
        let asked_at = sim.now;
        for token in 0..ABSENT {
            if token == ABSENT / 2 {
                sim.advance_to(asked_at + 2 * MS);
            }
            sim.request(token, lookup(absent(token), (token % 16) as u32));
        }
        // Every one of them has been re-submitted once: the first
        // twenty 3 ms after they were asked, the others just now.
        sim.advance_to(asked_at + 5 * MS);
        sim.request(1_000, CtrlRequest::Stats);
        match the_answer(&mut sim, 1_000).resp {
            CtrlResponse::Stats(s) => assert_eq!(s.retries, ABSENT),
            other => panic!("expected stats, got {other:?}"),
        }
        sim.request(999, CtrlRequest::Drain { millis: 5 });
        assert_eq!(the_answer(&mut sim, 999).resp, CtrlResponse::Ok);
        // An answer to a first attempt settles its request, hedged or
        // not; one more to the same request is one too many.
        let first_of_all = sim.world().attempts[17];
        assert_eq!(first_of_all.object, absent(0));
        sim.answer(&first_of_all);
        sim.answer(&first_of_all);
        assert!(matches!(
            the_answer(&mut sim, 0).resp,
            CtrlResponse::Found { .. }
        ));
        // The hedges of the first twenty run out of patience at 9 ms,
        // during the drain, and are not re-submitted; the drain runs out
        // of budget at 10 ms on the others.
        let (world, report) = sim.run_to_finish();
        for token in 1..ABSENT {
            let answers: Vec<_> = world.answers.iter().filter(|a| a.token == token).collect();
            let at = asked_at + if token < ABSENT / 2 { 9 * MS } else { 10 * MS };
            assert_eq!(answers.len(), 1, "token {token}: {answers:?}");
            assert_eq!(
                (answers[0].at, answers[0].resp),
                (at, CtrlResponse::NotFound)
            );
        }
        assert_eq!(world.attempts.len() as u64, 17 + 2 * ABSENT);
        let s = &report.stats;
        assert_eq!(s.hits, 17);
        assert_eq!((s.lookup_timeouts, report.aborted_at_drain), (19, 20));
        assert_eq!(report.hedges, ABSENT, "{}", report.to_json());
    }
}
