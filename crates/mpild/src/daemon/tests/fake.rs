//! The daemon's core on a virtual clock: a scripted [`World`] that logs
//! what the core does to it, and a driver that plays the part of the
//! shell with a `now` the test sets. No thread, no socket, no sleep.
//!
//! A submodule of the policy tests in `src/daemon/mod.rs`, and by
//! `#[path]` of the property test in `tests/core_props.rs`: the
//! including module brings the crate's own names into scope, and
//! neither uses all of this.
#![allow(dead_code, reason = "shared by two test targets; neither uses all of it")]

use std::time::Duration;

use mpil::{MessageId, MessageKind};
use mpil_id::Id;
use mpil_net::ClientEvent;
use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{Core, CtrlRequest, CtrlResponse, DaemonConfig, DaemonReport, World};

/// One attempt the core submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    pub at: Duration,
    pub id: MessageId,
    pub kind: MessageKind,
    pub origin: NodeIdx,
    pub object: Id,
    pub flows: u32,
}

/// One response the core sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub at: Duration,
    pub to: u32,
    pub token: u64,
    pub resp: CtrlResponse,
    /// Whether the client was there to hear it.
    pub delivered: bool,
}

/// A cluster and a client that do what the test says and remember what
/// the core did.
#[derive(Debug, Default)]
pub struct FakeWorld {
    /// The driver's clock, stamped on what is logged.
    pub now: Duration,
    pub parked: Vec<bool>,
    /// The transport refuses every submit while this is set.
    pub refuse_submits: bool,
    /// No response can be sent while this is set.
    pub client_gone: bool,
    pub attempts: Vec<Attempt>,
    pub answers: Vec<Answer>,
    pub perturbed: Vec<(NodeIdx, Duration)>,
    pub healed: Vec<NodeIdx>,
}

impl World for FakeWorld {
    type Addr = u32;

    fn submit(
        &mut self,
        kind: MessageKind,
        origin: NodeIdx,
        object: Id,
        flows: u32,
    ) -> Option<MessageId> {
        assert!(!self.parked[origin.index()], "{origin:?} is parked");
        if self.refuse_submits {
            return None;
        }
        let id = MessageId(self.attempts.len() as u64 + 1);
        self.attempts.push(Attempt {
            at: self.now,
            id,
            kind,
            origin,
            object,
            flows,
        });
        Some(id)
    }

    fn is_parked(&self, node: NodeIdx) -> bool {
        self.parked[node.index()]
    }

    fn unpark(&mut self, node: NodeIdx) {
        self.parked[node.index()] = false;
    }

    fn perturb(&mut self, node: NodeIdx, duration: Duration) {
        self.perturbed.push((node, duration));
    }

    fn heal(&mut self, node: NodeIdx) {
        self.healed.push(node);
    }

    fn respond(&mut self, to: &u32, token: u64, resp: CtrlResponse) -> bool {
        self.answers.push(Answer {
            at: self.now,
            to: *to,
            token,
            resp,
            delivered: !self.client_gone,
        });
        !self.client_gone
    }
}

/// The address every request of [`VirtualDaemon::request`] comes from.
pub const CLIENT: u32 = 7;

/// A [`Core`] over a [`FakeWorld`], driven turn by turn like the shell
/// drives it: every input is followed by `on_wake` at the same instant.
pub struct VirtualDaemon {
    pub core: Core<FakeWorld>,
    pub now: Duration,
}

impl VirtualDaemon {
    /// A daemon at time zero, its spares parked, its entry cycle drawn
    /// from `config.seed`.
    pub fn new(config: &DaemonConfig) -> Self {
        let mut parked = vec![false; config.nodes];
        parked.resize(config.nodes + config.spares, true);
        let world = FakeWorld {
            parked,
            ..FakeWorld::default()
        };
        let mut rng = SmallRng::seed_from_u64(config.seed);
        VirtualDaemon {
            core: Core::new(config, world, &mut rng, Duration::ZERO),
            now: Duration::ZERO,
        }
    }

    pub fn world(&mut self) -> &mut FakeWorld {
        self.core.world_mut()
    }

    /// Moves the clock to `now` and ends a turn there. Nothing due on
    /// the way is looked at: that is [`VirtualDaemon::advance_to`].
    pub fn wake_at(&mut self, now: Duration) {
        assert!(now >= self.now, "time runs forward");
        self.now = now;
        self.world().now = now;
        self.core.on_wake(now);
    }

    /// Runs the clock up to `until`, waking the core at every instant
    /// it asks to be woken at on the way, and at `until`.
    pub fn advance_to(&mut self, until: Duration) {
        while !self.core.finished(self.now) {
            match self.core.next_wake() {
                Some(at) if at < until => self.wake_at(at.max(self.now)),
                _ => break,
            }
        }
        self.wake_at(until);
    }

    /// A request from `from`, now.
    pub fn request_from(&mut self, from: u32, token: u64, req: CtrlRequest) {
        self.core.on_request(self.now, &from, &req.encode(token));
        self.core.on_wake(self.now);
    }

    /// A request from [`CLIENT`], now.
    pub fn request(&mut self, token: u64, req: CtrlRequest) {
        self.request_from(CLIENT, token, req);
    }

    /// The event that answers `attempt`, now: a reply to a lookup, a
    /// store-ack to an announce, from the node it went in through.
    pub fn answer(&mut self, attempt: &Attempt) {
        let (msg_id, object, holder) = (attempt.id, attempt.object, attempt.origin);
        let event = match attempt.kind {
            MessageKind::Lookup => ClientEvent::Reply {
                msg_id,
                object,
                holder,
                hops: 1,
            },
            MessageKind::Insert => ClientEvent::StoreAck {
                msg_id,
                object,
                holder,
            },
        };
        self.core.on_event(self.now, event);
        self.core.on_wake(self.now);
    }

    /// The control plane closes, now.
    pub fn close(&mut self) {
        self.core.on_closed(self.now);
        self.core.on_wake(self.now);
    }

    /// The responses sent under `token` so far.
    pub fn answers_to(&mut self, token: u64) -> Vec<Answer> {
        let answers = &self.world().answers;
        answers
            .iter()
            .filter(|a| a.token == token)
            .copied()
            .collect()
    }

    /// Runs the clock until the core says it has finished, then ends it.
    pub fn run_to_finish(mut self) -> (FakeWorld, DaemonReport) {
        while !self.core.finished(self.now) {
            let Some(at) = self.core.next_wake() else {
                unreachable!("a drain has a deadline");
            };
            self.wake_at(at.max(self.now));
        }
        self.core.finish(self.now)
    }
}
