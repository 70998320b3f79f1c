//! The service workloads: one generator thread, one control connection,
//! an embedded `mpild` daemon thread.
//!
//! Everything that paces, times or judges a request lives here, in the
//! benchmark; the program is reached only through `Daemon::spawn/run`,
//! the two control planes and the control-frame codec.

use std::net::{SocketAddr, UdpSocket};
use std::thread::JoinHandle;
use std::time::Duration;

use mpil_id::{Id, ID_BYTES};
use mpil_net::TransportKind;
use mpild::daemon::{
    ChannelControl, ChannelCtrlClient, ControlPlane, Daemon, DaemonConfig, DaemonReport, UdpControl,
};
use mpild::proto::{CtrlRequest, CtrlResponse, StatsBody};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::clock::now_ns;
use crate::hist::{quiet, Histogram};
use crate::pace::OpenLoop;
use crate::span::{Recorder, SpanId, NO_PARENT};

/// Tokens with this bit set are admin traffic (perturb, stats, drain),
/// kept out of the request ledger.
const ADMIN: u64 = 1 << 63;
/// A request unanswered for this long counts as failed.
const CLIENT_TIMEOUT_NS: u64 = 2_000_000_000;
/// Longest single wait for a response; also the floor the program's
/// channel client applies to any wait.
const POLL: Duration = Duration::from_millis(1);
/// The cluster every service workload and probe deploys: one overlay,
/// one set of node ids. `--seed` draws the traffic (objects, origins,
/// churn targets), not the deployment: ten runs of one build on ten
/// 48-node overlays spread (quartile to quartile) 10 % in closed-loop
/// p50 and 27 % in p99; ten runs on one overlay, 3 % and 12 %.
pub const DEPLOYMENT_SEED: u64 = 0x006d_7069_6c64;
/// Traced and untraced slices alternate, this many to a phase.
const TRACE_SLICES: u64 = 10;
/// Shortest slice a phase's measured part is cut into (see
/// `PhaseStats::slices`).
const SLICE_NS: u64 = 2_000_000_000;

/// The benchmark's side of a control connection.
pub trait Ctrl {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()>;
    /// The next response frame, waiting at most `timeout`.
    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>>;
}

impl Ctrl for ChannelCtrlClient {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        ChannelCtrlClient::send(self, frame)
    }

    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        ChannelCtrlClient::recv(self, timeout)
    }
}

/// A loopback-UDP client of the daemon's `UdpControl` socket.
struct UdpClient {
    socket: UdpSocket,
    /// The read timeout currently set, so it is only changed (a system
    /// call) when a different wait is asked for.
    timeout: Duration,
}

impl UdpClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(addr)?;
        socket.set_read_timeout(Some(POLL))?;
        Ok(UdpClient {
            socket,
            timeout: POLL,
        })
    }
}

impl Ctrl for UdpClient {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.socket.send(frame).map(|_| ())
    }

    fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        // Sockets refuse a zero timeout; 50 us is below what the kernel
        // timer resolves anyway.
        let timeout = timeout.max(Duration::from_micros(50));
        if timeout != self.timeout {
            self.socket.set_read_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        let mut buf = [0u8; 512];
        match self.socket.recv(&mut buf) {
            Ok(len) => Ok(Some(buf[..len].to_vec())),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// Which planes a service workload runs on (data and control alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Chan,
    Udp,
}

impl Plane {
    pub fn suffix(self) -> &'static str {
        match self {
            Plane::Chan => "chan",
            Plane::Udp => "udp",
        }
    }
}

/// A daemon running on its own thread.
pub struct Service {
    handle: JoinHandle<Result<DaemonReport, String>>,
    /// Milliseconds `Daemon::spawn` took (overlay generation, mesh,
    /// node threads).
    pub spawn_ms: f64,
}

/// Spawns a daemon on a new thread and connects a client to it.
pub fn start_daemon(plane: Plane, config: DaemonConfig) -> Result<(Service, Client), String> {
    fn launch<C: ControlPlane + 'static>(config: DaemonConfig, ctrl: C) -> Result<Service, String> {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("mpild".into())
            .spawn(move || {
                let t = now_ns();
                let daemon = match Daemon::spawn(config, ctrl) {
                    Ok(d) => d,
                    Err(e) => {
                        let _ = ready_tx.send(Err(e.to_string()));
                        return Err(e.to_string());
                    }
                };
                let _ = ready_tx.send(Ok((now_ns() - t) as f64 / 1e6));
                Ok(daemon.run())
            })
            .map_err(|e| format!("daemon thread: {e}"))?;
        let spawn_ms = ready_rx
            .recv()
            .map_err(|_| "daemon thread died during spawn".to_string())??;
        Ok(Service { handle, spawn_ms })
    }

    match plane {
        Plane::Chan => {
            let (server, client) = ChannelControl::pair();
            let service = launch(config, server)?;
            Ok((service, Client::new(Box::new(client), config.nodes as u32)))
        }
        Plane::Udp => {
            let server = UdpControl::bind(0).map_err(|e| format!("ctrl bind: {e}"))?;
            let addr = server.local_addr().map_err(|e| format!("ctrl addr: {e}"))?;
            let service = launch(config, server)?;
            let client = UdpClient::connect(addr).map_err(|e| format!("ctrl connect: {e}"))?;
            Ok((service, Client::new(Box::new(client), config.nodes as u32)))
        }
    }
}

/// The daemon configuration of every service workload:
/// `DaemonConfig::default()` parameters on `nodes` nodes of `degree`.
pub fn daemon_config(plane: Plane, nodes: usize, degree: usize) -> DaemonConfig {
    DaemonConfig {
        nodes,
        degree,
        seed: DEPLOYMENT_SEED,
        transport: match plane {
            Plane::Chan => TransportKind::Channel,
            Plane::Udp => TransportKind::Udp,
        },
        ..DaemonConfig::default()
    }
}

/// A 64-bit mixer (the splitmix64 finaliser): seeded tables and probe
/// inputs are derived with it rather than stored.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Object `index` of the seeded object table. Ids are derived, not
/// stored, so an announce phase can run as long as the clock allows.
pub fn object_id(seed: u64, index: u64) -> Id {
    let mut bytes = [0u8; ID_BYTES];
    let base = mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index);
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        let word = mix(base.wrapping_add(i as u64 + 1)).to_be_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    Id::from_bytes(bytes)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Announce,
    Lookup,
}

#[derive(Clone, Copy)]
struct Slot {
    /// 0 when free.
    token: u64,
    kind: OpKind,
    /// Where latency is timed from: the send instant (closed loop) or
    /// the due instant (open loop), on the process clock.
    start_ns: u64,
    sent_ns: u64,
    span: SpanId,
}

/// What became of one request.
enum Done {
    Ok { hops: u32 },
    Rejected,
}

/// Periodic perturbation through the admin plane.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    pub period_ns: u64,
    pub nodes_per_volley: u32,
    pub perturb_ms: u32,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Callers that wait for replies: always `in_flight` outstanding.
    Closed { in_flight: usize },
    /// Independent users: Poisson arrivals at `rate` per second, drawn
    /// from the phase's seed.
    Open { rate: f64, cap: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    pub kind: OpKind,
    pub load: Load,
    pub duration_ns: u64,
    /// Stop issuing after this many requests (warm-up phases).
    pub max_ops: u64,
    pub churn: Option<Churn>,
}

/// One phase's client-side account.
pub struct PhaseStats {
    pub issued: u64,
    pub ok: u64,
    pub rejected: u64,
    pub timeouts: u64,
    /// Latency of every positive answer to a request that started after
    /// the first 5 % of the phase.
    pub latency: Histogram,
    /// The rest of the phase after that 5 %, cut into equal slices of
    /// at least two seconds.
    pub slices: Vec<Slice>,
    pub slice_seconds: f64,
    /// How late the open-loop generator sent, per request.
    pub lag: Histogram,
    pub hops_sum: u64,
    /// Positive answers that arrived before the phase ended, by
    /// whether they completed in a traced tenth of it.
    pub done_traced: u64,
    pub done_untraced: u64,
    pub seconds: f64,
    pub churn_perturbs: u64,
}

/// One slice of a phase: every number the phase reports is first taken
/// per slice.
#[derive(Clone, Default)]
pub struct Slice {
    /// Latencies of positive answers to requests that started in it.
    pub latency: Histogram,
    /// Positive answers that arrived in it.
    pub done: u64,
}

impl PhaseStats {
    /// Positive answers per second over the whole phase.
    pub fn per_second(&self) -> f64 {
        (self.done_traced + self.done_untraced) as f64 / self.seconds
    }

    /// The quiet quartile (`hist::quiet`) over the slices of each
    /// slice's `p`-th latency percentile, in ns.
    ///
    /// Why slices and their quiet quartile, not one whole-phase figure:
    /// this box is two vCPUs of a shared host, and when a neighbour is
    /// busy every wake-up in a request's chain of thread hand-offs waits
    /// for a time slice. Ten whole-phase runs of one build then spread,
    /// quartile to quartile, 30-50 % in the median and 70 % in p99 (the
    /// figures the benchmark was first refused for). A neighbour's burst
    /// covers some slices of a run; the quartile on the fast side reads
    /// the ones it left alone. What the program itself does shows in
    /// every slice: a slice is two seconds or longer, so a stall has to
    /// come less often than that to fall outside a slice, and then the
    /// whole-phase figures printed beside these (`*_whole_phase`) and
    /// `bench.lookup_p999_ms` still hold it.
    pub fn quiet_percentile(&self, p: f64) -> Option<f64> {
        self.quiet_latency(|h| h.percentile(p))
    }

    /// The same of each slice's interquartile mean latency.
    pub fn quiet_mid_mean(&self) -> Option<f64> {
        self.quiet_latency(Histogram::mid_mean)
    }

    fn quiet_latency(&self, of: impl Fn(&Histogram) -> Option<f64>) -> Option<f64> {
        let each: Vec<f64> = self.slices.iter().filter_map(|s| of(&s.latency)).collect();
        quiet(&each, true)
    }

    /// The quiet quartile over the slices of positive answers per second.
    pub fn quiet_per_second(&self) -> f64 {
        let each: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.done as f64 / self.slice_seconds)
            .collect();
        quiet(&each, false).unwrap_or(0.0)
    }
}

/// The generator: owns the one control connection and the ledger the
/// accounting checks are made against.
pub struct Client {
    conn: Box<dyn Ctrl>,
    nodes: u32,
    slots: Vec<Slot>,
    free: Vec<u16>,
    next_seq: u64,
    in_flight: usize,
    admin_sent: u64,
    last_stats: Option<StatsBody>,
    // Whole-connection ledger (warm-ups and probes included).
    pub found: u64,
    pub announced: u64,
    pub not_found: u64,
    pub errors: u64,
    pub admin_acked: u64,
    /// Responses whose token matches nothing this client ever sent.
    pub unknown_tokens: u64,
    /// Responses that arrived after the client gave up on the request.
    pub late: u64,
    /// Positive answers of the wrong kind or naming a node that does
    /// not exist.
    pub wrong_answers: u64,
}

impl Client {
    fn new(conn: Box<dyn Ctrl>, nodes: u32) -> Self {
        Client {
            conn,
            nodes,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 1,
            in_flight: 0,
            admin_sent: 0,
            last_stats: None,
            found: 0,
            announced: 0,
            not_found: 0,
            errors: 0,
            admin_acked: 0,
            unknown_tokens: 0,
            late: 0,
            wrong_answers: 0,
        }
    }

    /// Sends request `kind` for object `object` of seed `seed`'s table
    /// through `origin`, its latency timed from `start_ns`.
    fn issue(
        &mut self,
        (kind, seed, object): (OpKind, u64, u64),
        origin: u32,
        start_ns: u64,
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(), String> {
        let id = object_id(seed, object);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                assert!(self.slots.len() < 1 << 16, "in-flight window exceeds 65536");
                self.slots.push(Slot {
                    token: 0,
                    kind,
                    start_ns: 0,
                    sent_ns: 0,
                    span: NO_PARENT,
                });
                (self.slots.len() - 1) as u16
            }
        };
        let token = (self.next_seq << 16) | u64::from(slot);
        self.next_seq += 1;
        let request = match kind {
            OpKind::Announce => CtrlRequest::Announce { object: id, origin },
            OpKind::Lookup => CtrlRequest::Lookup { object: id, origin },
        };
        let span = rec.push("request", start_ns, start_ns, parent, token);
        let send_start = now_ns();
        self.conn
            .send(&request.encode(token))
            .map_err(|e| format!("control send: {e}"))?;
        let sent_ns = now_ns();
        rec.push("ctrl.send", send_start, sent_ns, span, token);
        self.slots[slot as usize] = Slot {
            token,
            kind,
            start_ns,
            sent_ns,
            span,
        };
        self.in_flight += 1;
        Ok(())
    }

    fn send_admin(&mut self, request: CtrlRequest) -> Result<(), String> {
        self.admin_sent += 1;
        self.conn
            .send(&request.encode(ADMIN | self.admin_sent))
            .map_err(|e| format!("control send: {e}"))
    }

    /// Waits up to `timeout` for one frame and books it. Returns the
    /// finished request's slot contents and outcome, if the frame
    /// finished one.
    fn receive(
        &mut self,
        timeout: Duration,
        rec: &mut Recorder,
    ) -> Result<Option<(Slot, Done, u64)>, String> {
        let recv_start = now_ns();
        let Some(frame) = self
            .conn
            .recv(timeout)
            .map_err(|e| format!("control recv: {e}"))?
        else {
            return Ok(None);
        };
        let Ok((token, response)) = CtrlResponse::decode(&frame) else {
            self.unknown_tokens += 1;
            return Ok(None);
        };
        let now = now_ns();
        if token & ADMIN != 0 {
            if (token & !ADMIN) == 0 || (token & !ADMIN) > self.admin_sent {
                self.unknown_tokens += 1;
            } else {
                self.admin_acked += 1;
                if let CtrlResponse::Stats(body) = response {
                    self.last_stats = Some(body);
                }
            }
            return Ok(None);
        }
        // The ledger counts every answer the daemon gave, on time or not,
        // so it can be held against the daemon's own counters.
        match response {
            CtrlResponse::Found { .. } => self.found += 1,
            CtrlResponse::Announced { .. } => self.announced += 1,
            CtrlResponse::NotFound => self.not_found += 1,
            _ => self.errors += 1,
        }
        let idx = (token & 0xffff) as usize;
        let live = self.slots.get(idx).is_some_and(|s| s.token == token);
        if !live {
            if token >> 16 == 0 || token >> 16 >= self.next_seq {
                self.unknown_tokens += 1;
            } else {
                self.late += 1;
            }
            return Ok(None);
        }
        let slot = self.slots[idx];
        self.slots[idx].token = 0;
        self.free.push(idx as u16);
        self.in_flight -= 1;
        let done = match (slot.kind, response) {
            (OpKind::Lookup, CtrlResponse::Found { holder, hops }) if holder < self.nodes => {
                Done::Ok { hops }
            }
            (OpKind::Announce, CtrlResponse::Announced { holder }) if holder < self.nodes => {
                Done::Ok { hops: 0 }
            }
            (_, CtrlResponse::Found { .. } | CtrlResponse::Announced { .. }) => {
                self.wrong_answers += 1;
                Done::Rejected
            }
            _ => Done::Rejected,
        };
        if slot.span != NO_PARENT {
            rec.push("ctrl.recv", recv_start, now, slot.span, token);
            rec.end(slot.span);
        }
        Ok(Some((slot, done, now)))
    }

    /// Gives up on requests older than the client timeout; returns how many.
    fn expire(&mut self, now: u64) -> u64 {
        let mut expired = 0;
        for idx in 0..self.slots.len() {
            let s = self.slots[idx];
            if s.token != 0 && now.saturating_sub(s.sent_ns) > CLIENT_TIMEOUT_NS {
                self.slots[idx].token = 0;
                self.free.push(idx as u16);
                self.in_flight -= 1;
                expired += 1;
            }
        }
        expired
    }

    /// Runs one phase to completion: issues on the plan's schedule for
    /// its duration, then waits out what is still in flight.
    ///
    /// `objects` holds the object indices the phase works on: announce
    /// phases walk them in order and start over at the end, lookup
    /// phases draw uniformly from them.
    pub fn run_phase(
        &mut self,
        plan: &PhasePlan,
        seed: u64,
        objects: &[u64],
        rng: &mut SmallRng,
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<PhaseStats, String> {
        if objects.is_empty() {
            return Err("phase has no objects to work on".into());
        }
        let t0 = now_ns();
        let end = t0 + plan.duration_ns;
        let mut sched = match plan.load {
            Load::Open { rate, cap } => Some(OpenLoop::poisson(
                rate,
                plan.duration_ns,
                cap,
                seed ^ 0xa441_7a15,
            )),
            Load::Closed { .. } => None,
        };
        let mut stats = PhaseStats {
            issued: 0,
            ok: 0,
            rejected: 0,
            timeouts: 0,
            latency: Histogram::default(),
            slices: Vec::new(),
            slice_seconds: 0.0,
            lag: Histogram::default(),
            hops_sum: 0,
            done_traced: 0,
            done_untraced: 0,
            seconds: plan.duration_ns as f64 / 1e9,
            churn_perturbs: 0,
        };
        let warm = t0 + plan.duration_ns / 20;
        let slices = ((end - warm) / SLICE_NS).max(1);
        let slice_ns = ((end - warm) / slices).max(1);
        let slice_of = |at: u64| (((at - warm) / slice_ns).min(slices - 1)) as usize;
        stats.slices = vec![Slice::default(); slices as usize];
        stats.slice_seconds = slice_ns as f64 / 1e9;
        let trace_slice_ns = (plan.duration_ns / TRACE_SLICES).max(1);
        let tracing = rec.on;
        let mut next_volley = plan.churn.map(|c| t0 + c.period_ns);
        let mut last_expiry_scan = t0;

        loop {
            let now = now_ns();
            let issuing = now < end && stats.issued < plan.max_ops;
            if issuing {
                // Spans are recorded in every other slice, so the traced
                // and untraced halves of one phase can be compared.
                rec.on = tracing && ((now - t0) / trace_slice_ns).is_multiple_of(2);
                loop {
                    let start_ns = match (&mut sched, plan.load) {
                        (Some(s), _) => match s.poll(now_ns() - t0, self.in_flight) {
                            Some(due) => {
                                stats.lag.record(due.lag_ns);
                                t0 + due.due_ns
                            }
                            None => break,
                        },
                        (None, Load::Closed { in_flight }) if self.in_flight < in_flight => {
                            now_ns()
                        }
                        _ => break,
                    };
                    if stats.issued >= plan.max_ops || start_ns >= end {
                        break;
                    }
                    let object = match plan.kind {
                        OpKind::Announce => objects[(stats.issued % objects.len() as u64) as usize],
                        OpKind::Lookup => objects[rng.gen_range(0..objects.len())],
                    };
                    let origin = rng.gen_range(0..self.nodes);
                    self.issue((plan.kind, seed, object), origin, start_ns, rec, parent)?;
                    stats.issued += 1;
                }
                if let (Some(churn), Some(at)) = (plan.churn, next_volley) {
                    if now >= at {
                        next_volley = Some(at + churn.period_ns);
                        for _ in 0..churn.nodes_per_volley {
                            let node = rng.gen_range(0..self.nodes);
                            self.send_admin(CtrlRequest::Perturb {
                                node,
                                millis: churn.perturb_ms,
                            })?;
                            stats.churn_perturbs += 1;
                        }
                    }
                }
            } else {
                if self.in_flight == 0 {
                    break;
                }
            }

            // Wait for one response, but never past the next due send.
            let wait = match sched.as_ref().and_then(OpenLoop::next_due_ns) {
                Some(due) if issuing => {
                    Duration::from_nanos((t0 + due).saturating_sub(now_ns())).min(POLL)
                }
                _ => POLL,
            };
            if let Some((slot, done, at)) = self.receive(wait, rec)? {
                match done {
                    Done::Ok { hops } => {
                        stats.ok += 1;
                        stats.hops_sum += u64::from(hops);
                        if at <= end {
                            if ((at - t0) / trace_slice_ns).is_multiple_of(2) {
                                stats.done_traced += 1;
                            } else {
                                stats.done_untraced += 1;
                            }
                        }
                        if at >= warm && at < end {
                            stats.slices[slice_of(at)].done += 1;
                        }
                        if slot.start_ns >= warm {
                            let latency = at.saturating_sub(slot.start_ns);
                            stats.latency.record(latency);
                            stats.slices[slice_of(slot.start_ns)]
                                .latency
                                .record(latency);
                        }
                    }
                    Done::Rejected => stats.rejected += 1,
                }
            }
            if now - last_expiry_scan > 20_000_000 {
                last_expiry_scan = now;
                stats.timeouts += self.expire(now);
            }
        }
        rec.on = tracing;
        Ok(stats)
    }

    /// One request with nothing else in flight; its latency in ns, or
    /// `None` if it was not answered positively.
    pub fn one_shot(
        &mut self,
        kind: OpKind,
        seed: u64,
        object: u64,
        origin: u32,
    ) -> Result<Option<u64>, String> {
        let mut rec = Recorder::new(false);
        let start = now_ns();
        self.issue((kind, seed, object), origin, start, &mut rec, NO_PARENT)?;
        while self.in_flight > 0 {
            if let Some((_, done, at)) = self.receive(POLL, &mut rec)? {
                return Ok(matches!(done, Done::Ok { .. }).then_some(at - start));
            }
            if self.expire(now_ns()) > 0 {
                break;
            }
        }
        Ok(None)
    }

    /// A `Stats` round trip: the daemon's counters and how long the
    /// round trip took, in ns.
    pub fn stats(&mut self) -> Result<(StatsBody, u64), String> {
        let mut rec = Recorder::new(false);
        self.last_stats = None;
        let start = now_ns();
        self.send_admin(CtrlRequest::Stats)?;
        while now_ns() - start < CLIENT_TIMEOUT_NS {
            self.receive(POLL, &mut rec)?;
            if let Some(body) = self.last_stats.take() {
                return Ok((body, now_ns() - start));
            }
        }
        Err("daemon did not answer a Stats request within 2 s".into())
    }

    /// Sends `Drain`, waits for the daemon thread to return, and
    /// reports its final account and the milliseconds the drain took.
    pub fn drain(mut self, service: Service) -> Result<(DaemonReport, f64, Client), String> {
        let start = now_ns();
        self.send_admin(CtrlRequest::Drain { millis: 500 })?;
        let report = service
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        let drain_ms = (now_ns() - start) as f64 / 1e6;
        // The drain's own `Ok` (and anything else still queued) is read
        // so the admin ledger closes.
        let mut rec = Recorder::new(false);
        while self.admin_acked < self.admin_sent && now_ns() - start < CLIENT_TIMEOUT_NS {
            // An error here is the closed connection of a daemon that
            // has exited: nothing more will arrive.
            if self.receive(POLL, &mut rec).is_err() {
                break;
            }
        }
        Ok((report, drain_ms, self))
    }

    pub fn admin_sent(&self) -> u64 {
        self.admin_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_ids_are_seeded_and_distinct() {
        let a: Vec<Id> = (0..1000).map(|i| object_id(7, i)).collect();
        let b: Vec<Id> = (0..1000).map(|i| object_id(7, i)).collect();
        assert_eq!(a, b, "same seed, same table");
        assert_ne!(object_id(7, 0), object_id(8, 0), "seed matters");
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no repeated id");
    }
}
