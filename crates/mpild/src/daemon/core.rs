//! Everything the daemon decides, as a state machine with no clock and
//! no socket: `(now, input) → effects`.
//!
//! [`Core`] owns admission, the hedge delay, the request tracker, the
//! backlog, the entry cycle, the drain state and the report. It learns
//! the time from its caller, one `now` per call, and acts on the world
//! through one seam, [`World`]: the live cluster and control plane under
//! [`Daemon`](super::Daemon), a scripted fake under the tests, which
//! drive the same decisions from a seed on a virtual clock.

use std::collections::VecDeque;
use std::time::Duration;

use mpil::{MessageId, MessageKind};
use mpil_id::Id;
use mpil_net::{ClientEvent, NodeStats, RequestTracker, TransportKind};
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use super::admission::{admit_cost, Admission, MAX_BACKLOG};
use super::hedge::{HedgeDelay, FIRST_FLOWS};
use super::DaemonConfig;
use crate::proto::{err_code, CtrlRequest, CtrlResponse, StatsBody};

/// What a [`Core`] acts on: the cluster it submits operations to and
/// the clients it answers.
pub trait World {
    /// Client address type, as requests arrive with and answers go to.
    type Addr: Clone;

    /// Injects an operation of `flows` flows through `origin` without
    /// waiting for its outcome; the id is the one the operation's events
    /// will carry. `None` when the transport refuses the frame.
    fn submit(
        &mut self,
        kind: MessageKind,
        origin: NodeIdx,
        object: Id,
        flows: u32,
    ) -> Option<MessageId>;

    /// Whether `node` is provisioned but not in service.
    fn is_parked(&self, node: NodeIdx) -> bool;

    /// Brings a parked node into service.
    fn unpark(&mut self, node: NodeIdx);

    /// Makes `node` deaf for `duration`.
    fn perturb(&mut self, node: NodeIdx, duration: Duration);

    /// Ends a perturbation of `node` now.
    fn heal(&mut self, node: NodeIdx);

    /// Sends `resp` to the client at `to` under `token`; `false` when it
    /// could not be sent (the client may simply be gone).
    fn respond(&mut self, to: &Self::Addr, token: u64, resp: CtrlResponse) -> bool;
}

/// What the daemon was doing for a tracked request.
#[derive(Debug)]
struct Ticket<A> {
    addr: A,
    token: u64,
    kind: MessageKind,
    object: Id,
    origin: NodeIdx,
}

/// The final account of a daemon's life, returned by
/// [`Daemon::run`](super::Daemon::run).
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
    /// whole [`RetryPolicy::timeout`](mpil_net::RetryPolicy::timeout)
    /// (`stats.retries` counts these and the late ones alike).
    pub hedges: u64,
    /// Requests turned away because the admission backlog was full.
    pub shed: u64,
    /// Requests answered `TRANSPORT`: the cluster's transport refused an
    /// attempt of theirs, the first or a later one.
    pub transport_errors: u64,
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
        let replies: u64 = self.node_stats.iter().map(|s| s.replies).sum();
        let stores: u64 = self.node_stats.iter().map(|s| s.stores).sum();
        let dropped_perturbed: u64 = self.node_stats.iter().map(|s| s.dropped_perturbed).sum();
        let dropped_at_drain: u64 = self.node_stats.iter().map(|s| s.dropped_at_drain).sum();
        format!(
            "{{\"uptime_s\":{:.3},\"announces\":{},\"hits\":{},\"lookup_timeouts\":{},\
             \"announce_timeouts\":{},\"retries\":{},\"live_nodes\":{},\"parked\":{},\
             \"joins\":{},\"perturbs\":{},\"heals\":{},\"bad_requests\":{},\
             \"send_errors\":{},\"aborted_at_drain\":{},\"hedges\":{},\"shed\":{},\
             \"transport_errors\":{},\"wakeups\":{},\"shards\":{},\"node_forwards\":{},\
             \"node_replies\":{},\"node_stores\":{},\"node_dropped_perturbed\":{},\
             \"node_dropped_at_drain\":{}}}",
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
            self.transport_errors,
            self.wakeups,
            self.shards,
            forwards,
            replies,
            stores,
            dropped_perturbed,
            dropped_at_drain,
        )
    }
}

fn refusal(code: u8) -> CtrlResponse {
    CtrlResponse::Err { code }
}

/// The daemon's policy: what to submit, when to give up, whom to answer.
///
/// A caller hands it every input with the time it was taken up
/// ([`Core::on_request`], [`Core::on_event`], [`Core::on_closed`]),
/// calls [`Core::on_wake`] after each batch of them and whenever
/// [`Core::next_wake`] falls due, and stops at [`Core::finished`].
pub struct Core<W: World> {
    world: W,
    transport: TransportKind,
    /// The flows of a full-width attempt: every announce's and every
    /// hedge's.
    max_flows: u32,
    fallback_drain: Duration,
    tracker: RequestTracker<Ticket<W::Addr>>,
    hedge_delay: HedgeDelay,
    /// Where a lookup goes in next when it got no answer through the
    /// node this is indexed by: the nodes in one seeded cycle, so that
    /// a request's attempts never come back to an entry they tried
    /// before every other one has been.
    next_entry: Vec<NodeIdx>,
    admission: Admission,
    /// Accepted requests waiting for admission budget, oldest first.
    backlog: VecDeque<Ticket<W::Addr>>,
    parked: u32,
    report: DaemonReport,
    /// When the drain gives up on what is still in flight; `Some` once
    /// a drain was requested or the control plane closed.
    drain_at: Option<Duration>,
}

impl<W: World> Core<W> {
    /// A core at time `now` over `world`, whose last `config.spares`
    /// nodes are parked. The entry cycle is drawn from `rng`.
    pub fn new(config: &DaemonConfig, world: W, rng: &mut SmallRng, now: Duration) -> Self {
        let total = config.nodes + config.spares;
        let mut cycle: Vec<NodeIdx> = (0..total as u32).map(NodeIdx::new).collect();
        cycle.shuffle(rng);
        let mut next_entry = cycle.clone();
        for (at, node) in cycle.iter().enumerate() {
            next_entry[node.index()] = cycle[(at + 1) % total];
        }
        Core {
            world,
            transport: config.transport,
            max_flows: config.mpil.max_flows,
            fallback_drain: config.fallback_drain,
            tracker: RequestTracker::new(config.retry),
            hedge_delay: HedgeDelay::default(),
            next_entry,
            admission: Admission::new(now),
            backlog: VecDeque::new(),
            parked: config.spares as u32,
            report: DaemonReport::default(),
            drain_at: None,
        }
    }

    /// The world, for a caller that scripts it.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// A request frame from the client at `from`.
    pub fn on_request(&mut self, now: Duration, from: &W::Addr, frame: &[u8]) {
        let (token, served) = match CtrlRequest::decode(frame) {
            Ok((token, req)) => (token, self.serve(now, from, token, req)),
            // Token 0: the sender's framing is broken, there is no
            // token to echo.
            Err(_) => (0, Err(err_code::BAD_REQUEST)),
        };
        match served {
            Ok(Some(resp)) => self.respond(from, token, resp),
            Ok(None) => {}
            Err(code) => {
                self.report.bad_requests += 1;
                self.respond(from, token, refusal(code));
            }
        }
    }

    /// Serves `req`: the answer, if it has one now (`None` for a
    /// data-plane request that was accepted and is answered when its
    /// outcome is known), or the code a bad request is refused with.
    fn serve(
        &mut self,
        now: Duration,
        from: &W::Addr,
        token: u64,
        req: CtrlRequest,
    ) -> Result<Option<CtrlResponse>, u8> {
        // Past the drain point only stats/drain are served; data and
        // admin requests are turned away so the in-flight set can only
        // shrink.
        if self.drain_at.is_some() && !matches!(req, CtrlRequest::Stats | CtrlRequest::Drain { .. })
        {
            return Ok(Some(refusal(err_code::UNAVAILABLE)));
        }
        match req {
            CtrlRequest::Announce { object, origin } => {
                return self.accept(now, from, token, MessageKind::Insert, object, origin);
            }
            CtrlRequest::Lookup { object, origin } => {
                return self.accept(now, from, token, MessageKind::Lookup, object, origin);
            }
            CtrlRequest::Join { node } => {
                let node = self.node(node)?;
                if !self.world.is_parked(node) {
                    return Err(err_code::BAD_NODE);
                }
                self.world.unpark(node);
                self.parked = self.parked.saturating_sub(1);
                self.report.joins += 1;
            }
            CtrlRequest::Perturb { node, millis } => {
                let node = self.node(node)?;
                self.world
                    .perturb(node, Duration::from_millis(u64::from(millis)));
                self.report.perturbs += 1;
            }
            CtrlRequest::Heal { node } => {
                let node = self.node(node)?;
                self.world.heal(node);
                self.report.heals += 1;
            }
            CtrlRequest::Stats => return Ok(Some(CtrlResponse::Stats(self.stats_body(now)))),
            CtrlRequest::Drain { millis } => {
                // Of two drains the one that ends first stands.
                let until = now + Duration::from_millis(u64::from(millis));
                self.drain_at = Some(self.drain_at.map_or(until, |at| at.min(until)));
            }
        }
        Ok(Some(CtrlResponse::Ok))
    }

    /// The node a request names by index, if the cluster has it.
    fn node(&self, index: u32) -> Result<NodeIdx, u8> {
        if (index as usize) < self.next_entry.len() {
            Ok(NodeIdx::new(index))
        } else {
            Err(err_code::BAD_NODE)
        }
    }

    /// Accepts a data-plane request, whose entry node must exist and be
    /// in service: it joins the admission backlog and is submitted as
    /// soon as the budget allows, which on a daemon that is not
    /// overloaded is now.
    fn accept(
        &mut self,
        now: Duration,
        from: &W::Addr,
        token: u64,
        kind: MessageKind,
        object: Id,
        origin: u32,
    ) -> Result<Option<CtrlResponse>, u8> {
        let origin = self.node(origin)?;
        if self.world.is_parked(origin) {
            return Err(err_code::UNAVAILABLE);
        }
        if self.backlog.len() >= MAX_BACKLOG {
            self.report.shed += 1;
            return Ok(Some(refusal(err_code::UNAVAILABLE)));
        }
        self.backlog.push_back(Ticket {
            addr: from.clone(),
            token,
            kind,
            object,
            origin,
        });
        self.admit(now);
        Ok(None)
    }

    /// A store-ack or lookup reply from the cluster.
    pub fn on_event(&mut self, now: Duration, event: ClientEvent) {
        let (ClientEvent::Reply { msg_id, .. } | ClientEvent::StoreAck { msg_id, .. }) = event;
        // Later flows of the same operation, and its other attempts,
        // produce more events; only the first resolves the ticket.
        let Some(p) = self.tracker.complete(msg_id) else {
            return;
        };
        let resp = match event {
            ClientEvent::Reply { holder, hops, .. } => {
                self.report.stats.hits += 1;
                self.hedge_delay.sample(now.saturating_sub(p.issued_at));
                CtrlResponse::Found {
                    holder: holder.index() as u32,
                    hops,
                }
            }
            ClientEvent::StoreAck { holder, .. } => {
                self.report.stats.announces += 1;
                CtrlResponse::Announced {
                    holder: holder.index() as u32,
                }
            }
        };
        self.respond(&p.token.addr, p.token.token, resp);
    }

    /// The control plane will deliver no more requests: from here on
    /// the daemon is draining (nothing new is accepted, nothing is
    /// re-submitted), on the fallback budget unless a `Drain` request
    /// named one.
    pub fn on_closed(&mut self, now: Duration) {
        self.drain_at.get_or_insert(now + self.fallback_drain);
    }

    /// What every turn ends with, and all there is to do when
    /// [`Core::next_wake`] falls due: re-submits what has run out of
    /// patience, fails what has run out of budget, then admits from the
    /// backlog.
    pub fn on_wake(&mut self, now: Duration) {
        self.report.wakeups += 1;
        self.expire(now);
        self.admit(now);
    }

    /// The earliest instant at which there is something to do without
    /// an input arriving: an attempt running out of patience, admission
    /// opening to a waiting backlog, the drain budget running out.
    /// `None` when only an input can give the core work. It may name an
    /// instant already past, and is to be asked again after every call
    /// that takes a `now`.
    pub fn next_wake(&mut self) -> Option<Duration> {
        let admit_at = (!self.backlog.is_empty()).then(|| self.admission.reopens_at());
        [self.tracker.next_deadline(), admit_at, self.drain_at]
            .into_iter()
            .flatten()
            .min()
    }

    /// Whether the drain is over at `now`: begun, and either nothing is
    /// left in flight or its budget has run out.
    pub fn finished(&self, now: Duration) -> bool {
        self.drain_at
            .is_some_and(|at| now >= at || (self.tracker.is_idle() && self.backlog.is_empty()))
    }

    /// What is left at `now` of the drain budget, for the cluster's own
    /// drain to use.
    pub fn drain_left(&self, now: Duration) -> Duration {
        self.drain_at
            .map_or(Duration::ZERO, |at| at.saturating_sub(now))
    }

    /// Ends the core at `now`: gives up on whatever is still unserved
    /// and hands back the world with the final account (all of it but
    /// what only the cluster knows, `shards` and `node_stats`).
    pub fn finish(mut self, now: Duration) -> (W, DaemonReport) {
        for pending in self.tracker.abort_all() {
            self.give_up(&pending.token, true);
        }
        while let Some(ticket) = self.backlog.pop_front() {
            self.give_up(&ticket, true);
        }
        self.report.stats = self.stats_body(now);
        self.report.uptime_s = now.as_secs_f64();
        (self.world, self.report)
    }

    fn stats_body(&self, now: Duration) -> StatsBody {
        StatsBody {
            live_nodes: self.next_entry.len() as u32 - self.parked,
            parked: self.parked,
            uptime_ms: now.as_millis() as u64,
            ..self.report.stats
        }
    }

    fn respond(&mut self, addr: &W::Addr, token: u64, resp: CtrlResponse) {
        if !self.world.respond(addr, token, resp) {
            self.report.send_errors += 1;
        }
    }

    /// Submits from the head of the backlog while admission is open.
    fn admit(&mut self, now: Duration) {
        self.admission.accrue(now);
        while self.admission.is_open() {
            let Some(ticket) = self.backlog.pop_front() else {
                return;
            };
            if let Some(msg_id) = self.submit(&ticket, 0) {
                let patience = self.patience(ticket.kind, 0);
                self.tracker.track_for(msg_id, ticket, now, patience);
            }
        }
    }

    /// Re-submits what has run out of patience and fails what has run
    /// out of budget. Nothing is re-submitted past the drain point.
    fn expire(&mut self, now: Duration) {
        while let Some((old_id, mut pending)) = self.tracker.pop_expired(now) {
            let left = self.tracker.budget_left(&pending, now);
            if left.is_zero() || self.drain_at.is_some() {
                self.give_up(&pending.token, false);
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
            if let Some(new_id) = self.submit(&pending.token, pending.attempt + 1) {
                if now.saturating_sub(pending.issued_at) < self.tracker.policy().timeout {
                    self.report.hedges += 1;
                }
                let patience = self.patience(kind, pending.attempt + 1).min(left);
                self.tracker.hedge(new_id, old_id, pending, now, patience);
            }
        }
        self.report.stats.retries = self.tracker.retried();
    }

    /// Attempt number `attempt` (0 the first) of `ticket`'s request,
    /// through `ticket.origin`: spends what it costs and submits it, a
    /// lookup's first attempt with [`FIRST_FLOWS`] flows and everything
    /// else with all of them. A request whose attempt the transport
    /// refuses is answered so, and that is the end of it.
    fn submit(&mut self, ticket: &Ticket<W::Addr>, attempt: u32) -> Option<MessageId> {
        self.admission
            .spend(admit_cost(self.transport, ticket.kind));
        let flows = match (ticket.kind, attempt) {
            (MessageKind::Lookup, 0) => FIRST_FLOWS.min(self.max_flows),
            _ => self.max_flows,
        };
        let msg_id = self
            .world
            .submit(ticket.kind, ticket.origin, ticket.object, flows);
        if msg_id.is_none() {
            self.report.transport_errors += 1;
            self.respond(&ticket.addr, ticket.token, refusal(err_code::TRANSPORT));
        }
        msg_id
    }

    /// Answers a request the daemon stops working for: its own budget
    /// has run out or, `aborted`, the drain's.
    fn give_up(&mut self, ticket: &Ticket<W::Addr>, aborted: bool) {
        let stats = &mut self.report.stats;
        let (resp, timeouts) = match ticket.kind {
            MessageKind::Lookup => (CtrlResponse::NotFound, &mut stats.lookup_timeouts),
            MessageKind::Insert => (refusal(err_code::TIMEOUT), &mut stats.announce_timeouts),
        };
        if aborted {
            self.report.aborted_at_drain += 1;
        } else {
            *timeouts += 1;
        }
        self.respond(&ticket.addr, ticket.token, resp);
    }

    /// How long attempt number `attempt` of a request may stay
    /// unanswered: an announce's one flat period, a lookup's for as long
    /// as lookups are measured to take.
    fn patience(&self, kind: MessageKind, attempt: u32) -> Duration {
        let cap = self.tracker.policy().timeout;
        match kind {
            MessageKind::Insert => cap,
            MessageKind::Lookup => self.hedge_delay.patience(attempt, cap),
        }
    }

    /// The in-service node after `origin` on the entry cycle; `origin`
    /// itself when every other node is parked.
    fn another_entry(&self, origin: NodeIdx) -> NodeIdx {
        let mut node = self.next_entry[origin.index()];
        while node != origin && self.world.is_parked(node) {
            node = self.next_entry[node.index()];
        }
        node
    }
}
