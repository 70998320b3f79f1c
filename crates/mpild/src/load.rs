//! `mpil-load`: the daemon's load generator.
//!
//! Drives a running [`crate::daemon::Daemon`] through its
//! control plane with the paper's insert-then-lookup workload
//! ([`InsertLookupWorkload`]), paced by the clock-free
//! [`mpil_workload::Pacer`]:
//!
//! 1. **Announce phase** — closed loop (`workers` outstanding): the
//!    object table is inserted as fast as the daemon confirms replicas.
//! 2. **Lookup phase** — open loop at a configurable offered rate with
//!    a bounded in-flight window (the honest way to measure latency
//!    under load), or closed loop when no rate is given. Optionally a
//!    **churn plan** runs concurrently, perturbing random nodes through
//!    the admin plane mid-measurement — the live analogue of the
//!    paper's perturbation experiments.
//!
//! Per-request latency is measured client-side (issue to response,
//! through the daemon's retries) and recorded into
//! [`Percentiles`]; client-side deadlines bound the cost of lost
//! datagrams. All clock reads go through the sanctioned [`WallClock`].

use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use mpil::MessageId;
use mpil_id::Id;
use mpil_net::{RequestTracker, RetryPolicy};
use mpil_overlay::NodeIdx;
use mpil_workload::{InsertLookupWorkload, Pacer, Percentiles, WallClock, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::daemon::{
    ChannelControl, ChannelCtrlClient, Daemon, DaemonConfig, DaemonError, DaemonReport, UdpControl,
};
use crate::proto::{CtrlRequest, CtrlResponse};

/// Shortest read timeout handed to a UDP socket (zero is rejected).
const MIN_READ_TIMEOUT: Duration = Duration::from_micros(50);
/// Tokens at or above this mark are admin traffic (churn perturbs,
/// drains), kept out of the request accounting.
const ADMIN_BASE: u64 = 1 << 63;

/// A client's connection to the daemon's control plane.
pub(crate) trait CtrlConnection {
    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the daemon is unreachable.
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()>;

    /// Receives one response frame, waiting at most `timeout`;
    /// `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the daemon is unreachable.
    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>>;
}

impl CtrlConnection for ChannelCtrlClient {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        ChannelCtrlClient::send(self, frame)
    }

    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        ChannelCtrlClient::recv(self, timeout)
    }
}

/// UDP client of a daemon's [`UdpControl`] socket.
#[derive(Debug)]
pub(crate) struct UdpCtrlClient {
    socket: UdpSocket,
    /// The read timeout the socket has now: changing it is a system
    /// call, made only when a different wait is asked for.
    read_timeout: Option<Duration>,
}

impl UdpCtrlClient {
    /// Binds an ephemeral loopback socket and connects it to `addr`.
    ///
    /// # Errors
    ///
    /// Socket `bind`/`connect` failure.
    pub(crate) fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(addr)?;
        Ok(UdpCtrlClient {
            socket,
            read_timeout: None,
        })
    }
}

impl CtrlConnection for UdpCtrlClient {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.socket.send(frame).map(|_| ())
    }

    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        let timeout = timeout.max(MIN_READ_TIMEOUT);
        if self.read_timeout != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        let mut buf = [0u8; 512];
        match self.socket.recv(&mut buf) {
            Ok(len) => Ok(Some(buf[..len].to_vec())),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            // A closed daemon port surfaces as ConnectionRefused on a
            // connected loopback socket; the caller's deadline logic
            // will fail the in-flight requests.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Mid-run churn: every `period`, perturb `count` random nodes for
/// `length` (via the admin plane, concurrent with the measurement).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChurnPlan {
    /// Interval between perturbation volleys.
    pub period: Duration,
    /// Nodes perturbed per volley.
    pub count: u32,
    /// How long each perturbed node stays deaf.
    pub length: Duration,
}

/// Load-generation parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadConfig {
    /// Object table size (announce phase inserts each once).
    pub objects: usize,
    /// Lookup count (cycling over the object table).
    pub lookups: u64,
    /// Live node count of the target daemon (origin indices are drawn
    /// below this).
    pub nodes: usize,
    /// Offered lookup rate per second (open loop); `None` = closed loop.
    pub rate: Option<f64>,
    /// In-flight window of the open-loop lookup phase.
    pub window: usize,
    /// Worker count of closed-loop phases (announce always, lookup
    /// when `rate` is `None`).
    pub workers: usize,
    /// Client-side deadline per request (covers daemon retries plus
    /// transit; lost datagrams are charged to this).
    pub timeout: Duration,
    /// Workload seed (object ids, origins, churn targets).
    pub seed: u64,
    /// Optional churn during the lookup phase.
    pub churn: Option<ChurnPlan>,
    /// Drain budget handed to the daemon at shutdown (embedded runs).
    pub drain: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            objects: 100,
            lookups: 500,
            nodes: 48,
            rate: None,
            window: 256,
            workers: 16,
            timeout: Duration::from_secs(2),
            seed: 1,
            churn: None,
            drain: Duration::from_millis(500),
        }
    }
}

/// A load-generation failure (daemon unreachable, spawn failure).
#[derive(Debug)]
pub(crate) struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError(format!("control i/o: {e}"))
    }
}

/// One phase's results.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests answered positively (replica confirmed / object found).
    pub ok: u64,
    /// Requests answered negatively (`NotFound`, daemon errors).
    pub rejected: u64,
    /// Requests that blew the client-side deadline.
    pub timeouts: u64,
    /// Wall seconds the phase took.
    pub duration_s: f64,
    /// Requests issued per second (the rate actually offered).
    pub offered_per_s: f64,
    /// Positive answers per second.
    pub achieved_per_s: f64,
    /// Latency percentiles over positive answers, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
}

impl PhaseReport {
    /// Positive answers as a percentage of issued requests.
    pub(crate) fn success_pct(&self) -> f64 {
        if self.issued == 0 {
            100.0
        } else {
            self.ok as f64 * 100.0 / self.issued as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"issued\":{},\"ok\":{},\"rejected\":{},\"timeouts\":{},\
             \"success_pct\":{:.3},\"duration_s\":{:.3},\"offered_per_s\":{:.1},\
             \"achieved_per_s\":{:.1},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"p999_ms\":{:.3}}}",
            self.issued,
            self.ok,
            self.rejected,
            self.timeouts,
            self.success_pct(),
            self.duration_s,
            self.offered_per_s,
            self.achieved_per_s,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
        )
    }
}

/// The full load run: both phases plus churn accounting.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadReport {
    /// Announce (insert) phase.
    pub announce: PhaseReport,
    /// Lookup (measurement) phase.
    pub lookup: PhaseReport,
    /// Perturb volleys sent by the churn plan.
    pub churn_volleys: u64,
    /// Individual perturb requests sent.
    pub churn_perturbs: u64,
}

impl LoadReport {
    /// One-line JSON rendering.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"announce\":{},\"lookup\":{},\"churn_volleys\":{},\"churn_perturbs\":{}}}",
            self.announce.to_json(),
            self.lookup.to_json(),
            self.churn_volleys,
            self.churn_perturbs,
        )
    }
}

/// What a phase issues: announce or lookup frames over an op table.
enum PhaseKind<'a> {
    Announce(&'a [(Id, NodeIdx)]),
    /// Lookup over the object table with per-op random origins.
    Lookup {
        objects: &'a [Id],
        rng: SmallRng,
        nodes: usize,
    },
}

impl PhaseKind<'_> {
    fn op(&mut self, index: u64) -> (Id, u32) {
        match self {
            PhaseKind::Announce(ops) => {
                let (object, origin) = ops[index as usize % ops.len()];
                (object, origin.index() as u32)
            }
            PhaseKind::Lookup {
                objects,
                rng,
                nodes,
            } => {
                let object = objects[index as usize % objects.len()];
                (object, rng.gen_range(0..*nodes as u32))
            }
        }
    }

    fn request(&mut self, index: u64) -> CtrlRequest {
        let (object, origin) = self.op(index);
        match self {
            PhaseKind::Announce(_) => CtrlRequest::Announce { object, origin },
            PhaseKind::Lookup { .. } => CtrlRequest::Lookup { object, origin },
        }
    }
}

/// Churn scheduling state across a phase.
struct ChurnState {
    plan: ChurnPlan,
    next_at: Duration,
    rng: SmallRng,
    nodes: usize,
    next_token: u64,
    volleys: u64,
    perturbs: u64,
}

impl ChurnState {
    fn new(plan: ChurnPlan, nodes: usize, seed: u64, start: Duration) -> Self {
        ChurnState {
            plan,
            next_at: start + plan.period,
            rng: SmallRng::seed_from_u64(seed ^ 0xc4b2_9ce5),
            nodes,
            next_token: ADMIN_BASE,
            volleys: 0,
            perturbs: 0,
        }
    }

    fn pump<C: CtrlConnection>(&mut self, conn: &mut C, now: Duration) -> std::io::Result<()> {
        while now >= self.next_at {
            self.next_at += self.plan.period;
            self.volleys += 1;
            for _ in 0..self.plan.count {
                let node = self.rng.gen_range(0..self.nodes as u32);
                let req = CtrlRequest::Perturb {
                    node,
                    millis: self.plan.length.as_millis() as u32,
                };
                conn.send(&req.encode(self.next_token))?;
                self.next_token += 1;
                self.perturbs += 1;
            }
        }
        Ok(())
    }
}

/// Runs one phase to completion and returns its report.
fn run_phase<C: CtrlConnection>(
    conn: &mut C,
    clock: &WallClock,
    mut pacer: Pacer,
    mut kind: PhaseKind<'_>,
    timeout: Duration,
    next_token: &mut u64,
    mut churn: Option<&mut ChurnState>,
) -> Result<PhaseReport, LoadError> {
    let phase_start = clock.elapsed();
    let mut deadlines: RequestTracker<()> = RequestTracker::new(RetryPolicy {
        timeout,
        retries: 0,
    });
    let mut latency = Percentiles::new();
    let mut report = PhaseReport::default();

    while !pacer.finished() {
        // 1. Issue everything the schedule has made due.
        let now_rel = clock.elapsed().saturating_sub(phase_start);
        let due = pacer.due(now_rel);
        for _ in 0..due {
            let req = kind.request(pacer.issued());
            let token = *next_token;
            *next_token += 1;
            conn.send(&req.encode(token))?;
            deadlines.track(MessageId(token), (), clock.elapsed());
            pacer.record_issued(1);
            report.issued += 1;
        }
        // 2. Inject churn on its own schedule.
        if let Some(churn) = churn.as_deref_mut() {
            churn.pump(conn, clock.elapsed())?;
        }
        // 3. Enforce client-side deadlines.
        let now = clock.elapsed();
        while deadlines.pop_expired(now).is_some() {
            pacer.record_completed(1);
            report.timeouts += 1;
        }
        // 4. Sleep until a response arrives or the next thing falls
        //    due: a scheduled send (if the window has room for it), a
        //    churn volley, a client deadline. One response a turn, so a
        //    stream of them never keeps a due send waiting.
        let next_send = pacer
            .next_due_at()
            .filter(|_| pacer.in_flight() < pacer.window())
            .map(|at| phase_start + at);
        let wake_at = [
            next_send,
            churn.as_deref().map(|c| c.next_at),
            deadlines.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min();
        // Nothing to wait for, or something due already: the next turn
        // issues, pumps or expires it.
        let Some(wait) = wake_at
            .map(|at| at.saturating_sub(clock.elapsed()))
            .filter(|wait| !wait.is_zero())
        else {
            continue;
        };
        let Some(raw) = conn.recv(wait)? else {
            continue;
        };
        let Ok((token, resp)) = CtrlResponse::decode(&raw) else {
            continue;
        };
        if token >= ADMIN_BASE {
            continue; // churn/drain acks
        }
        let Some(p) = deadlines.complete(MessageId(token)) else {
            continue; // response after the client-side deadline
        };
        pacer.record_completed(1);
        match resp {
            CtrlResponse::Announced { .. } | CtrlResponse::Found { .. } => {
                report.ok += 1;
                let ms = clock
                    .elapsed()
                    .saturating_sub(p.first_issued_at)
                    .as_secs_f64()
                    * 1e3;
                latency.push(ms);
            }
            _ => report.rejected += 1,
        }
    }

    report.duration_s = clock
        .elapsed()
        .saturating_sub(phase_start)
        .as_secs_f64()
        .max(1e-9);
    report.offered_per_s = report.issued as f64 / report.duration_s;
    report.achieved_per_s = report.ok as f64 / report.duration_s;
    report.p50_ms = latency.percentile(50.0).unwrap_or(0.0);
    report.p99_ms = latency.percentile(99.0).unwrap_or(0.0);
    report.p999_ms = latency.percentile(99.9).unwrap_or(0.0);
    Ok(report)
}

/// Runs the full announce-then-lookup load against a connected daemon.
///
/// # Errors
///
/// [`LoadError`] when the control connection dies.
pub(crate) fn run_load<C: CtrlConnection>(
    conn: &mut C,
    config: &LoadConfig,
) -> Result<LoadReport, LoadError> {
    let clock = WallClock::start();
    let workload = InsertLookupWorkload::generate(WorkloadConfig {
        objects: config.objects,
        nodes: config.nodes,
        fixed_origin: None,
        seed: config.seed,
    });
    let inserts: Vec<(Id, NodeIdx)> = workload.inserts().collect();
    let mut next_token = 0u64;

    let announce = run_phase(
        conn,
        &clock,
        Pacer::closed_loop(config.workers, config.objects as u64),
        PhaseKind::Announce(&inserts),
        timeout_floor(config.timeout),
        &mut next_token,
        None,
    )?;

    let mut churn = config
        .churn
        .map(|plan| ChurnState::new(plan, config.nodes, config.seed, clock.elapsed()));
    let lookup_pacer = match config.rate {
        Some(rate) => Pacer::open_loop(rate, config.window, config.lookups),
        None => Pacer::closed_loop(config.workers, config.lookups),
    };
    let lookup = run_phase(
        conn,
        &clock,
        lookup_pacer,
        PhaseKind::Lookup {
            objects: &workload.objects,
            rng: SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9)),
            nodes: config.nodes,
        },
        timeout_floor(config.timeout),
        &mut next_token,
        churn.as_mut(),
    )?;

    Ok(LoadReport {
        announce,
        lookup,
        churn_volleys: churn.as_ref().map_or(0, |c| c.volleys),
        churn_perturbs: churn.as_ref().map_or(0, |c| c.perturbs),
    })
}

fn timeout_floor(t: Duration) -> Duration {
    t.max(Duration::from_millis(10))
}

/// Asks the daemon how many nodes it serves (a `Stats` round-trip) so
/// remote clients size their origin space to the actual cluster
/// instead of guessing `--nodes` — a mismatch turns every origin past
/// the daemon's range into a `BAD_NODE` reject.
///
/// # Errors
///
/// [`LoadError`] when the daemon does not answer within `timeout`.
pub(crate) fn probe_live_nodes<C: CtrlConnection>(
    conn: &mut C,
    timeout: Duration,
) -> Result<usize, LoadError> {
    conn.send(&CtrlRequest::Stats.encode(ADMIN_BASE))?;
    let clock = WallClock::start();
    while let Some(remaining) = timeout
        .checked_sub(clock.elapsed())
        .filter(|r| !r.is_zero())
    {
        if let Some(raw) = conn.recv(remaining)? {
            if let Ok((ADMIN_BASE, CtrlResponse::Stats(body))) = CtrlResponse::decode(&raw) {
                return Ok(body.live_nodes as usize);
            }
        }
    }
    Err(LoadError(
        "stats probe got no answer (daemon down, or wrong --addr?)".to_string(),
    ))
}

/// Which control plane an embedded run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtrlKind {
    /// Real loopback-UDP datagrams (exercises the full wire path).
    Udp,
    /// In-process channels (deterministic delivery; the CI smoke).
    Channel,
}

/// Spawns a daemon on a background thread, runs the load against it,
/// then drains it and returns both reports. The cluster's data-plane
/// transport comes from `daemon.transport`; `ctrl` picks the control
/// plane.
///
/// # Errors
///
/// [`LoadError`] when the daemon fails to spawn or the run dies.
pub(crate) fn run_embedded(
    daemon: DaemonConfig,
    load: &LoadConfig,
    ctrl: CtrlKind,
) -> Result<(LoadReport, DaemonReport), LoadError> {
    match ctrl {
        CtrlKind::Channel => {
            let (server, mut client) = ChannelControl::pair();
            let handle = std::thread::spawn(move || Daemon::spawn(daemon, server).map(Daemon::run));
            finish_embedded(&mut client, load, handle)
        }
        CtrlKind::Udp => {
            let server = UdpControl::bind(0).map_err(|e| LoadError(format!("ctrl bind: {e}")))?;
            let addr = server
                .local_addr()
                .map_err(|e| LoadError(format!("ctrl addr: {e}")))?;
            let handle = std::thread::spawn(move || Daemon::spawn(daemon, server).map(Daemon::run));
            let mut client =
                UdpCtrlClient::connect(addr).map_err(|e| LoadError(format!("connect: {e}")))?;
            finish_embedded(&mut client, load, handle)
        }
    }
}

type DaemonHandle = std::thread::JoinHandle<Result<DaemonReport, DaemonError>>;

fn finish_embedded<C: CtrlConnection>(
    client: &mut C,
    load: &LoadConfig,
    handle: DaemonHandle,
) -> Result<(LoadReport, DaemonReport), LoadError> {
    let result = run_load(client, load);
    // Always try to drain, even after a failed run, so the thread exits.
    let drain = CtrlRequest::Drain {
        millis: load.drain.as_millis() as u32,
    };
    let _ = client.send(&drain.encode(ADMIN_BASE));
    let daemon_report = match handle.join() {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(LoadError(format!("daemon: {e}"))),
        Err(_) => return Err(LoadError("daemon thread panicked".to_string())),
    };
    Ok((result?, daemon_report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_channel_run_completes_with_high_success() {
        let daemon = DaemonConfig {
            nodes: 24,
            degree: 6,
            seed: 3,
            ..DaemonConfig::default()
        };
        let load = LoadConfig {
            objects: 20,
            lookups: 60,
            nodes: 24,
            workers: 8,
            seed: 3,
            ..LoadConfig::default()
        };
        let (report, daemon_report) =
            run_embedded(daemon, &load, CtrlKind::Channel).expect("embedded run");
        assert_eq!(report.announce.issued, 20);
        assert_eq!(report.lookup.issued, 60);
        assert!(
            report.lookup.success_pct() >= 99.0,
            "healthy cluster must answer lookups ({})",
            report.lookup.to_json()
        );
        assert!(daemon_report.stats.hits >= 59);
        assert!(report.lookup.p99_ms > 0.0, "latency must be measured");
    }

    #[test]
    fn open_loop_rate_is_respected_on_the_wire() {
        let daemon = DaemonConfig {
            nodes: 16,
            degree: 4,
            seed: 4,
            ..DaemonConfig::default()
        };
        let load = LoadConfig {
            objects: 10,
            lookups: 100,
            nodes: 16,
            rate: Some(400.0),
            window: 64,
            seed: 4,
            ..LoadConfig::default()
        };
        let (report, _) = run_embedded(daemon, &load, CtrlKind::Udp).expect("embedded run");
        // 100 lookups at 400/s should take ~0.25 s; allow generous slop
        // for CI but catch a broken scheduler (instant or 10x slow).
        assert!(
            report.lookup.duration_s > 0.15 && report.lookup.duration_s < 5.0,
            "open-loop pacing off: {} s",
            report.lookup.duration_s
        );
        assert!(report.lookup.success_pct() >= 90.0);
    }

    #[test]
    fn stats_probe_reports_the_cluster_size() {
        let daemon = DaemonConfig {
            nodes: 20,
            degree: 6,
            spares: 4,
            seed: 6,
            ..DaemonConfig::default()
        };
        let (server, mut client) = ChannelControl::pair();
        let handle = std::thread::spawn(move || Daemon::spawn(daemon, server).map(Daemon::run));
        let nodes =
            probe_live_nodes(&mut client, Duration::from_secs(5)).expect("probe must answer");
        assert_eq!(nodes, 20, "spares are parked, not live");
        let _ = client.send(&CtrlRequest::Drain { millis: 100 }.encode(ADMIN_BASE));
        handle.join().expect("daemon thread").expect("daemon run");
    }

    #[test]
    fn churn_plan_fires_and_run_survives() {
        let daemon = DaemonConfig {
            nodes: 32,
            degree: 8,
            seed: 5,
            mpil: mpil::MpilConfig::default()
                .with_max_flows(10)
                .with_num_replicas(5),
            ..DaemonConfig::default()
        };
        let load = LoadConfig {
            objects: 20,
            lookups: 200,
            nodes: 32,
            rate: Some(500.0),
            window: 128,
            seed: 5,
            churn: Some(ChurnPlan {
                period: Duration::from_millis(50),
                count: 2,
                length: Duration::from_millis(120),
            }),
            ..LoadConfig::default()
        };
        let (report, daemon_report) =
            run_embedded(daemon, &load, CtrlKind::Channel).expect("embedded run");
        assert!(report.churn_volleys > 0, "churn must actually fire");
        assert!(report.churn_perturbs >= report.churn_volleys);
        assert_eq!(daemon_report.perturbs, report.churn_perturbs);
        let dropped: u64 = daemon_report
            .node_stats
            .iter()
            .map(|s| s.dropped_perturbed)
            .sum();
        assert!(dropped > 0, "perturbed nodes must have dropped frames");
        assert!(
            report.lookup.success_pct() >= 80.0,
            "replicated lookups should mostly ride out churn: {}",
            report.lookup.to_json()
        );
    }
}
