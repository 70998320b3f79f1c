//! Property test of the daemon's core, [`mpild::daemon::Core`], on a
//! virtual clock: random interleavings of requests, cluster events (on
//! time, late, duplicated, for ids never issued, for an earlier attempt
//! of a hedged request), refused submits, a vanishing client, admin
//! operations, stalls of the host, and a drain or a closed control
//! plane at a random instant. No thread and no sleep: a failing case is
//! a seed and a list of operations.
//!
//! Whatever the interleaving: every request is answered exactly once,
//! at its sender's address, and the ones the core answers itself at the
//! instant they arrive; the report's accounting sums, counter by
//! counter, to the answers that were sent; no attempt goes in through a
//! parked node (the fake refuses to take one); a lookup's first attempt
//! carries `min(FIRST_FLOWS, max_flows)` flows and every other attempt,
//! an announce's first included, all `max_flows`; first attempts go in
//! no faster than the admission rate and one burst, and not while the
//! unanswered attempts inside their hold carry `WINDOW` flows, and the
//! backlog goes in first in, first out; of several drains the earliest
//! deadline stands; and a drain that ends before its deadline
//! ends with nothing left to abort, so nothing stays behind in the
//! tracker or the backlog.

use std::time::Duration;

use mpil::{MessageId, MessageKind};
use mpil_id::Id;
use mpil_net::{ClientEvent, RetryPolicy, TransportKind};
use mpil_overlay::NodeIdx;
use mpild::daemon::{
    admit_cost, Core, DaemonConfig, DaemonReport, World, ADMIT_BURST, FIRST_FLOWS, HEDGE_FLOOR,
    MAX_BACKLOG, WINDOW,
};
use mpild::proto::{err_code, CtrlRequest, CtrlResponse};
use proptest::prelude::*;

#[path = "../src/daemon/tests/fake.rs"]
mod fake;

use fake::VirtualDaemon;

#[derive(Debug, Clone)]
enum Op {
    /// Time passes, the core woken at every instant it asks for.
    Pass(Duration),
    /// The host stalls: the clock jumps and the core is woken late.
    Stall(Duration),
    /// So many lookups at one instant, through the node of that index.
    Lookups(usize, u32),
    Announce(u32),
    /// The cluster answers the attempt so far back from the latest.
    AnswerRecent(usize),
    /// The cluster answers some attempt, however old or often answered.
    AnswerAny(usize),
    /// An event under an id the cluster never gave out.
    AnswerUnknown(u64),
    RefuseSubmits(bool),
    ClientGone(bool),
    Admin(CtrlRequest),
    Garbage(Vec<u8>),
    Close,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Any index at all: `arb_case` folds it onto the cluster drawn.
    let node = any::<u32>;
    let micros = |range: std::ops::Range<u64>| range.prop_map(Duration::from_micros);
    let time = || {
        prop_oneof![
            micros(0..3_000).prop_map(Op::Pass),
            micros(0..3_000).prop_map(Op::Pass),
            micros(0..60_000).prop_map(Op::Pass),
            micros(0..400_000).prop_map(Op::Stall),
        ]
    };
    let request = || {
        prop_oneof![
            node().prop_map(|origin| Op::Lookups(1, origin)),
            node().prop_map(|origin| Op::Lookups(1, origin)),
            node().prop_map(|origin| Op::Lookups(1, origin)),
            node().prop_map(Op::Announce),
            node().prop_map(Op::Announce),
            (2usize..300, node()).prop_map(|(n, origin)| Op::Lookups(n, origin)),
        ]
    };
    let answer = || {
        prop_oneof![
            (0usize..4).prop_map(Op::AnswerRecent),
            (0usize..4).prop_map(Op::AnswerRecent),
            (0usize..4).prop_map(Op::AnswerRecent),
            (0usize..4).prop_map(Op::AnswerRecent),
            any::<usize>().prop_map(Op::AnswerAny),
            any::<u64>().prop_map(Op::AnswerUnknown),
        ]
    };
    // The rare ones: a drain begins some forty operations in, and one
    // case in two has a flood that outruns the backlog.
    let other = prop_oneof![
        (0u8..4).prop_map(|n| Op::RefuseSubmits(n == 0)),
        (0u8..4).prop_map(|n| Op::ClientGone(n == 0)),
        node().prop_map(|node| Op::Admin(CtrlRequest::Join { node })),
        (node(), 0u32..500)
            .prop_map(|(node, millis)| Op::Admin(CtrlRequest::Perturb { node, millis })),
        node().prop_map(|node| Op::Admin(CtrlRequest::Heal { node })),
        Just(Op::Admin(CtrlRequest::Stats)),
        (0u32..200).prop_map(|millis| Op::Admin(CtrlRequest::Drain { millis })),
        Just(Op::Close),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Op::Garbage),
        (MAX_BACKLOG..MAX_BACKLOG + 300, node()).prop_map(|(n, origin)| Op::Lookups(n, origin)),
    ];
    prop_oneof![
        time(),
        time(),
        request(),
        request(),
        request(),
        answer(),
        answer(),
        answer(),
        other,
    ]
}

/// A small cluster under a short retry policy, and the operations on it.
fn arb_case() -> impl Strategy<Value = (DaemonConfig, Vec<Op>)> {
    let config = (
        (1usize..12, 0usize..4, any::<u64>(), any::<bool>()),
        (5u64..80, 0u32..4, 0u64..100, 1u32..12),
    )
        .prop_map(
            |((nodes, spares, seed, udp), (timeout_ms, retries, fallback_ms, max_flows))| {
                let defaults = DaemonConfig::default();
                DaemonConfig {
                    nodes,
                    spares,
                    seed,
                    transport: if udp {
                        TransportKind::Udp
                    } else {
                        TransportKind::Channel
                    },
                    mpil: defaults.mpil.with_max_flows(max_flows),
                    retry: RetryPolicy {
                        timeout: Duration::from_millis(timeout_ms),
                        retries,
                    },
                    fallback_drain: Duration::from_millis(fallback_ms),
                    ..defaults
                }
            },
        );
    // Node indices go two past the end: a request may name a node that
    // is not there.
    (config, proptest::collection::vec(arb_op(), 0..80)).prop_map(|(config, mut ops)| {
        let total = (config.nodes + config.spares) as u32;
        for op in &mut ops {
            match op {
                Op::Lookups(_, node)
                | Op::Announce(node)
                | Op::Admin(
                    CtrlRequest::Join { node }
                    | CtrlRequest::Perturb { node, .. }
                    | CtrlRequest::Heal { node },
                ) => *node %= total + 2,
                _ => {}
            }
        }
        (config, ops)
    })
}

/// What the answer to a request has to look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// This, at the instant the request arrived.
    Now(CtrlResponse),
    /// The counters, at the instant the request arrived.
    Stats,
    /// An accepted data-plane request: one of its kind's outcomes.
    Outcome(MessageKind),
}

/// The test's side of a run: what it asked, and what has to come of it.
struct Model {
    parked: Vec<bool>,
    drain_at: Option<Duration>,
    /// Per token, in order: when it was asked, and what for.
    asked: Vec<(Duration, Expect)>,
    bad_requests: u64,
    /// How many attempts had been made when the drain began.
    attempts_before_drain: usize,
    /// Per attempt, how many attempts had been made when it was first
    /// answered (`usize::MAX`: never).
    answered_after: Vec<usize>,
}

impl Model {
    /// The cluster answers `attempt`, now.
    fn answer(&mut self, sim: &mut VirtualDaemon, attempt: &fake::Attempt) {
        let made = sim.world().attempts.len();
        self.answered_after.resize(made, usize::MAX);
        let nth = attempt.id.0 as usize - 1;
        self.answered_after[nth] = self.answered_after[nth].min(made);
        sim.answer(attempt);
    }

    /// Sends `req` under the next token and notes what to expect of it.
    fn request(&mut self, sim: &mut VirtualDaemon, req: CtrlRequest) {
        let refused = |code| Expect::Now(CtrlResponse::Err { code });
        let bad = |model: &mut Model, code| {
            model.bad_requests += 1;
            refused(code)
        };
        let exists = |model: &Model, node: u32| (node as usize) < model.parked.len();
        let draining = self.drain_at.is_some();
        let expect = match req {
            CtrlRequest::Stats => Expect::Stats,
            CtrlRequest::Drain { millis } => {
                let until = sim.now + Duration::from_millis(u64::from(millis));
                self.drain_at = Some(self.drain_at.map_or(until, |at| at.min(until)));
                Expect::Now(CtrlResponse::Ok)
            }
            _ if draining => refused(err_code::UNAVAILABLE),
            CtrlRequest::Announce { origin, .. } | CtrlRequest::Lookup { origin, .. } => {
                if !exists(self, origin) {
                    bad(self, err_code::BAD_NODE)
                } else if self.parked[origin as usize] {
                    bad(self, err_code::UNAVAILABLE)
                } else if matches!(req, CtrlRequest::Lookup { .. }) {
                    Expect::Outcome(MessageKind::Lookup)
                } else {
                    Expect::Outcome(MessageKind::Insert)
                }
            }
            CtrlRequest::Join { node } => {
                if exists(self, node) && self.parked[node as usize] {
                    self.parked[node as usize] = false;
                    Expect::Now(CtrlResponse::Ok)
                } else {
                    bad(self, err_code::BAD_NODE)
                }
            }
            CtrlRequest::Perturb { node, .. } | CtrlRequest::Heal { node } => {
                if exists(self, node) {
                    Expect::Now(CtrlResponse::Ok)
                } else {
                    bad(self, err_code::BAD_NODE)
                }
            }
        };
        let token = self.asked.len() as u64;
        self.asked.push((sim.now, expect));
        sim.request_from(address_of(token), token, req);
    }
}

/// Three clients take turns.
fn address_of(token: u64) -> u32 {
    (token % 3) as u32
}

/// Every request has its own object, named after its token.
fn object_of(token: u64) -> Id {
    Id::from_low_u64(token)
}

fn token_of(object: Id) -> u64 {
    let bytes = object.to_bytes();
    let (_, low) = bytes.split_at(bytes.len() - 8);
    u64::from_be_bytes(low.try_into().expect("eight bytes"))
}

fn play(config: DaemonConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut sim = VirtualDaemon::new(&config);
    let mut model = Model {
        parked: sim.world().parked.clone(),
        drain_at: None,
        asked: Vec::new(),
        bad_requests: 0,
        attempts_before_drain: usize::MAX,
        answered_after: Vec::new(),
    };
    for op in ops {
        // The shell stops feeding a core that has finished.
        if sim.core.finished(sim.now) {
            break;
        }
        match op {
            Op::Pass(time) => sim.advance_to(sim.now + time),
            Op::Stall(time) => sim.wake_at(sim.now + time),
            Op::Lookups(n, origin) => {
                for _ in 0..n {
                    let object = object_of(model.asked.len() as u64);
                    model.request(&mut sim, CtrlRequest::Lookup { object, origin });
                }
            }
            Op::Announce(origin) => {
                let object = object_of(model.asked.len() as u64);
                model.request(&mut sim, CtrlRequest::Announce { object, origin });
            }
            Op::AnswerRecent(back) => {
                let attempts = &sim.world().attempts;
                if let Some(&attempt) = attempts.iter().rev().nth(back) {
                    model.answer(&mut sim, &attempt);
                }
            }
            Op::AnswerAny(nth) => {
                let attempts = &sim.world().attempts;
                if let Some(&attempt) = attempts.get(nth % attempts.len().max(1)) {
                    model.answer(&mut sim, &attempt);
                }
            }
            Op::AnswerUnknown(id) => {
                let event = ClientEvent::Reply {
                    msg_id: MessageId(id | 1 << 63),
                    object: object_of(id),
                    holder: NodeIdx::new(0),
                    hops: 1,
                };
                sim.core.on_event(sim.now, event);
            }
            Op::RefuseSubmits(refuse) => sim.world().refuse_submits = refuse,
            Op::ClientGone(gone) => sim.world().client_gone = gone,
            Op::Admin(req) => model.request(&mut sim, req),
            Op::Garbage(frame) => {
                // Not one byte of it a valid version: answered under
                // token 0, which the tally below leaves out.
                if frame.first() != Some(&mpild::proto::CTRL_VERSION) {
                    model.bad_requests += 1;
                    sim.core.on_request(sim.now, &u32::MAX, &frame);
                }
            }
            Op::Close => {
                model
                    .drain_at
                    .get_or_insert(sim.now + config.fallback_drain);
                sim.close();
            }
        }
        if let Some(at) = model.drain_at {
            prop_assert_eq!(sim.core.drain_left(sim.now), at.saturating_sub(sim.now));
            let attempts = sim.world().attempts.len();
            model.attempts_before_drain = model.attempts_before_drain.min(attempts);
        }
    }
    if model.drain_at.is_none() {
        model.drain_at = Some(sim.now + config.fallback_drain);
        model.attempts_before_drain = sim.world().attempts.len();
        sim.close();
    }
    // Left alone, the core finishes by the deadline (a stall may have
    // carried the clock past it already).
    let latest = sim.now.max(model.drain_at.unwrap_or(sim.now));
    let (world, report) = sim.run_to_finish();
    prop_assert!(world.now <= latest, "the drain outlasted its budget");
    check(&config, &model, &world, &report)
}

fn check(
    config: &DaemonConfig,
    model: &Model,
    world: &fake::FakeWorld,
    report: &DaemonReport,
) -> Result<(), TestCaseError> {
    let ended_at = world.now;
    let drain_at = model.drain_at.unwrap_or(ended_at);

    // Every request answered exactly once, as expected of it; the tally
    // of what was answered is the report's.
    let mut answers = vec![0u32; model.asked.len()];
    let (mut found, mut announced, mut given_up, mut transport, mut shed) = (0, 0, 0, 0, 0);
    for answer in &world.answers {
        if answer.to == u32::MAX {
            prop_assert_eq!(
                (answer.token, answer.resp),
                (
                    0,
                    CtrlResponse::Err {
                        code: err_code::BAD_REQUEST
                    }
                )
            );
            continue;
        }
        let token = answer.token as usize;
        prop_assert!(token < model.asked.len(), "an answer nobody asked for");
        prop_assert_eq!(answer.to, address_of(answer.token));
        answers[token] += 1;
        let (asked_at, expect) = model.asked[token];
        match (expect, answer.resp) {
            (Expect::Now(resp), got) => prop_assert_eq!((answer.at, got), (asked_at, resp)),
            (Expect::Stats, CtrlResponse::Stats(_)) => prop_assert_eq!(answer.at, asked_at),
            (Expect::Outcome(MessageKind::Lookup), CtrlResponse::Found { .. }) => found += 1,
            (Expect::Outcome(MessageKind::Insert), CtrlResponse::Announced { .. }) => {
                announced += 1;
            }
            (Expect::Outcome(MessageKind::Lookup), CtrlResponse::NotFound) => given_up += 1,
            (Expect::Outcome(MessageKind::Insert), CtrlResponse::Err { code })
                if code == err_code::TIMEOUT =>
            {
                given_up += 1;
            }
            (Expect::Outcome(_), CtrlResponse::Err { code }) if code == err_code::TRANSPORT => {
                transport += 1;
            }
            (Expect::Outcome(_), CtrlResponse::Err { code }) if code == err_code::UNAVAILABLE => {
                prop_assert_eq!(answer.at, asked_at, "shed on arrival");
                shed += 1;
            }
            (expect, got) => prop_assert!(false, "token {token}: {got:?} to {expect:?}"),
        }
        prop_assert!(answer.at >= asked_at);
    }
    let unanswered: Vec<_> = (0..answers.len()).filter(|&t| answers[t] != 1).collect();
    prop_assert!(unanswered.is_empty(), "not exactly once: {unanswered:?}");
    let s = &report.stats;
    prop_assert_eq!(
        (s.hits, s.announces, report.transport_errors, report.shed),
        (found, announced, transport, shed),
        "{}",
        report.to_json()
    );
    prop_assert_eq!(
        s.lookup_timeouts + s.announce_timeouts + report.aborted_at_drain,
        given_up,
        "{}",
        report.to_json()
    );
    let accepted = model
        .asked
        .iter()
        .filter(|(_, e)| matches!(e, Expect::Outcome(_)));
    prop_assert_eq!(
        accepted.count() as u64,
        found + announced + given_up + transport + shed
    );
    prop_assert_eq!(report.bad_requests, model.bad_requests);
    let undelivered = world.answers.iter().filter(|a| !a.delivered).count();
    prop_assert_eq!(report.send_errors, undelivered as u64);
    if ended_at < drain_at {
        prop_assert_eq!(report.aborted_at_drain, 0, "it ended with work in flight");
    }
    prop_assert_eq!(
        (s.live_nodes, s.parked),
        (
            model.parked.iter().filter(|&&p| !p).count() as u32,
            model.parked.iter().filter(|&&p| p).count() as u32
        )
    );

    // An attempt is its request's first or a re-submission of it, and
    // nothing is re-submitted once the drain has begun. Only a lookup's
    // first attempt goes in narrow.
    let mut firsts: Vec<usize> = Vec::new();
    let mut seen = vec![false; model.asked.len()];
    let full = config.mpil.max_flows;
    for (nth, attempt) in world.attempts.iter().enumerate() {
        let token = token_of(attempt.object) as usize;
        let first = !std::mem::replace(&mut seen[token], true);
        let flows = match (attempt.kind, first) {
            (MessageKind::Lookup, true) => FIRST_FLOWS.min(full),
            _ => full,
        };
        prop_assert_eq!(attempt.flows, flows, "attempt {} of token {}", nth, token);
        if first {
            firsts.push(nth);
        } else {
            prop_assert!(
                nth < model.attempts_before_drain,
                "re-submitted in the drain"
            );
        }
    }
    prop_assert_eq!(
        s.retries,
        (world.attempts.len() - firsts.len()) as u64,
        "every re-submission is an attempt"
    );
    prop_assert!(report.hedges <= s.retries);

    // The budget, over every interval at once: a bucket that holds one
    // burst, fills with time and pays for first attempts alone (the
    // daemon's pays for re-submissions too, so it is never the fuller
    // one) has something in it whenever an attempt is let in.
    let burst = ADMIT_BURST.as_nanos() as i128;
    let (mut budget, mut accrued_at) = (burst, Duration::ZERO);
    for &nth in &firsts {
        let attempt = &world.attempts[nth];
        budget = burst.min(budget + (attempt.at - accrued_at).as_nanos() as i128);
        accrued_at = attempt.at;
        prop_assert!(budget > 0, "let in at {:?} on a spent budget", attempt.at);
        budget -= admit_cost(config.transport, attempt.kind).as_nanos() as i128;
    }

    // The window. An attempt holds its places for at least the shorter of
    // the hedge floor and the period unless it is answered first, so the
    // attempts inside that span and unanswered when a first attempt goes
    // in hold some of the places held then: fewer flows than the window.
    // And the backlog is let in in the order it was accepted, which is
    // the order of the tokens.
    let least_hold = HEDGE_FLOOR.min(config.retry.timeout);
    let answered_after = |k: usize| model.answered_after.get(k).copied().unwrap_or(usize::MAX);
    let mut oldest = 0;
    for &nth in &firsts {
        let at = world.attempts[nth].at;
        while world.attempts[oldest].at + least_hold <= at {
            oldest += 1;
        }
        let held: u64 = (oldest..nth)
            .filter(|&k| answered_after(k) > nth)
            .map(|k| u64::from(world.attempts[k].flows))
            .sum();
        prop_assert!(
            held < WINDOW,
            "attempt {} went in with {} flows held",
            nth,
            held
        );
    }
    let tokens: Vec<u64> = firsts
        .iter()
        .map(|&nth| token_of(world.attempts[nth].object))
        .collect();
    prop_assert!(
        tokens.windows(2).all(|w| w[0] < w[1]),
        "not first in, first out"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_is_answered_once_and_the_accounting_sums((config, ops) in arb_case()) {
        play(config, ops)?;
    }
}
