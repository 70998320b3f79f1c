//! The [`Network`] discrete-event kernel.

use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::availability::Availability;
use crate::latency::LatencyModel;
use crate::pool::PayloadPool;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// An event handed to the protocol driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M, T> {
    /// A message arrived at an online node.
    Message {
        /// Sender.
        from: NodeIdx,
        /// Receiver (online at arrival).
        to: NodeIdx,
        /// Protocol payload.
        msg: M,
    },
    /// A timer fired at a node. Timers fire whether or not the node is
    /// online — the protocol decides what an offline node's timer means
    /// (our protocols check [`Network::is_online`] and usually skip work,
    /// re-arming the timer).
    Timer {
        /// The node the timer belongs to.
        node: NodeIdx,
        /// Protocol timer payload.
        timer: T,
    },
}

/// Counters the kernel maintains for every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`Network::send`].
    pub sent: u64,
    /// Messages delivered to an online receiver.
    pub delivered: u64,
    /// Messages dropped because the receiver was offline at arrival.
    pub dropped_offline: u64,
    /// Messages dropped by random link loss
    /// ([`Network::set_loss_probability`]).
    pub dropped_loss: u64,
    /// Timers fired.
    pub timers_fired: u64,
}

/// A deterministic discrete-event network of `n` nodes.
///
/// The kernel owns virtual time, the event queue, a seeded RNG, an
/// [`Availability`] model and a [`LatencyModel`]. Protocol crates drive
/// the loop:
///
/// ```
/// use mpil_overlay::NodeIdx;
/// use mpil_sim::{AlwaysOn, ConstantLatency, Event, Network, SimDuration};
///
/// let mut net: Network<&'static str, ()> = Network::new(
///     2,
///     Box::new(AlwaysOn),
///     Box::new(ConstantLatency(SimDuration::from_millis(10))),
///     42,
/// );
/// net.send(NodeIdx::new(0), NodeIdx::new(1), "hello");
/// match net.next().expect("one event queued") {
///     Event::Message { from, to, msg } => {
///         assert_eq!((from.index(), to.index(), msg), (0, 1, "hello"));
///     }
///     _ => unreachable!(),
/// }
/// assert_eq!(net.now(), mpil_sim::SimTime::from_millis(10));
/// ```
pub struct Network<M, T = ()> {
    n: usize,
    now: SimTime,
    queue: TimerWheel<Event<M, T>>,
    availability: Box<dyn Availability>,
    latency: Box<dyn LatencyModel>,
    loss_probability: f64,
    rng: SmallRng,
    stats: NetStats,
    /// Spill storage for [`crate::PayloadBuf`] message payloads (see the
    /// [`crate::pool`] module): the kernel owns the free list so every
    /// protocol layer draws from — and returns to — the same pool.
    payloads: PayloadPool<NodeIdx>,
}

impl<M, T> Network<M, T> {
    /// Creates a network of `n` nodes.
    pub fn new(
        n: usize,
        availability: Box<dyn Availability>,
        latency: Box<dyn LatencyModel>,
        seed: u64,
    ) -> Self {
        Network {
            n,
            now: SimTime::ZERO,
            queue: TimerWheel::new(),
            availability,
            latency,
            loss_probability: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            stats: NetStats::default(),
            payloads: PayloadPool::new(),
        }
    }

    /// Sets the independent per-message loss probability (failure
    /// injection; Castro et al.'s dependability study varies exactly
    /// this knob). Zero (the default) disables loss.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss_probability = p;
    }

    /// The current link-loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Kernel counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The deterministic simulation RNG (for protocol-level choices).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The kernel's payload spill pool. Engines pass it to every
    /// [`crate::PayloadBuf`] operation and recycle handled payloads
    /// back into it, keeping the steady-state message plane
    /// allocation-free.
    pub fn payload_pool(&mut self) -> &mut PayloadPool<NodeIdx> {
        &mut self.payloads
    }

    /// Is `node` online right now?
    pub fn is_online(&self, node: NodeIdx) -> bool {
        self.availability.is_online(node, self.now)
    }

    /// Is `node` online at `at`?
    pub fn is_online_at(&self, node: NodeIdx, at: SimTime) -> bool {
        self.availability.is_online(node, at)
    }

    /// Swaps the availability model (e.g. static stage 1 → flapping
    /// stage 2). Takes effect immediately.
    pub fn set_availability(&mut self, availability: Box<dyn Availability>) {
        self.availability = availability;
    }

    /// Sends `msg` from `from` to `to`; it arrives after the model's
    /// latency, and is dropped then if the receiver is offline.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn send(&mut self, from: NodeIdx, to: NodeIdx, msg: M) {
        assert!(from.index() < self.n, "sender {from} out of range");
        assert!(to.index() < self.n, "receiver {to} out of range");
        self.stats.sent += 1;
        if self.loss_probability > 0.0 {
            use rand::Rng;
            if self.rng.gen::<f64>() < self.loss_probability {
                self.stats.dropped_loss += 1;
                return;
            }
        }
        let delay = self.latency.latency(from, to, &mut self.rng);
        self.push(self.now + delay, Event::Message { from, to, msg });
    }

    /// Schedules `timer` to fire at `node` after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn schedule(&mut self, node: NodeIdx, delay: SimDuration, timer: T) {
        assert!(node.index() < self.n, "node {node} out of range");
        self.push(self.now + delay, Event::Timer { node, timer });
    }

    fn push(&mut self, at: SimTime, event: Event<M, T>) {
        self.queue.push(at.as_micros(), event);
    }

    /// Pops the next deliverable event, advancing the clock. Messages to
    /// offline receivers are counted and skipped. Returns `None` when the
    /// queue is empty.
    ///
    /// Not an [`Iterator`]: popping needs `&mut self` *and* interleaved
    /// protocol reactions, so the kernel exposes a plain method.
    #[expect(clippy::should_implement_trait, reason = "reactions interleave with the pops")]
    pub fn next(&mut self) -> Option<Event<M, T>> {
        self.next_before(SimTime::from_micros(u64::MAX))
    }

    /// Like [`Network::next`], but only pops events at or before
    /// `deadline`; if the next event is later, the clock advances to
    /// `deadline` and `None` is returned (the event stays queued).
    pub fn next_before(&mut self, deadline: SimTime) -> Option<Event<M, T>> {
        while let Some((at, event)) = self.queue.pop_before(deadline.as_micros()) {
            self.now = SimTime::from_micros(at);
            if self.deliverable(&event) {
                return Some(event);
            }
        }
        self.idle_until(deadline);
        None
    }

    /// Nothing is due by `deadline`: the clock moves there (a deadline of
    /// `u64::MAX` µs means "until the queue drains" and moves nothing).
    fn idle_until(&mut self, deadline: SimTime) {
        if deadline > self.now && deadline.as_micros() != u64::MAX {
            self.now = deadline;
            self.queue.set_now(deadline.as_micros());
        }
    }

    /// Counts one event due now as delivered or fired, or a message to
    /// an offline receiver as dropped (then `false`).
    fn deliverable(&mut self, event: &Event<M, T>) -> bool {
        match *event {
            Event::Message { to, .. } if !self.availability.is_online(to, self.now) => {
                self.stats.dropped_offline += 1;
                false
            }
            Event::Message { .. } => {
                self.stats.delivered += 1;
                true
            }
            Event::Timer { .. } => {
                self.stats.timers_fired += 1;
                true
            }
        }
    }

    /// Hands over one tick's worth of deliverable events (at or before
    /// `deadline`) in `out`, clearing it first. Returns `false` — with
    /// the clock advanced exactly as [`Network::next_before`] — when no
    /// event is due by the deadline.
    ///
    /// One call never spans two distinct event times, so a caller
    /// dispatching the batch in order observes the identical global
    /// `(time, seq)` sequence as repeated [`Network::next_before`] calls;
    /// same-tick sends issued while dispatching are picked up by the next
    /// call, again in seq order. The tick is not copied: the wheel swaps
    /// its buffer with `out`'s, so `out` comes back in a different
    /// allocation, and one above the wheel's keep cap is freed. Messages
    /// to offline receivers are then counted and removed in place (the
    /// availability model is a pure function of node and time); a tick
    /// that held nothing else is passed over for the next one.
    pub fn next_batch_before(&mut self, deadline: SimTime, out: &mut Vec<Event<M, T>>) -> bool {
        out.clear();
        while let Some(at) = self.queue.take_tick(deadline.as_micros(), out) {
            self.now = SimTime::from_micros(at);
            out.retain(|event| self.deliverable(event));
            if !out.is_empty() {
                return true;
            }
        }
        self.idle_until(deadline);
        false
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<M, T> std::fmt::Debug for Network<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.n)
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{AlwaysOn, Flapping, FlappingConfig};
    use crate::latency::{ConstantLatency, UniformLatency};
    use rand::rngs::SmallRng;

    fn node(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    fn basic(n: usize) -> Network<u32, u32> {
        Network::new(
            n,
            Box::new(AlwaysOn),
            Box::new(ConstantLatency(SimDuration::from_millis(5))),
            1,
        )
    }

    #[test]
    fn messages_arrive_in_latency_order() {
        let mut net = basic(3);
        net.send(node(0), node(1), 10);
        net.send(node(0), node(2), 20);
        let e1 = net.next().unwrap();
        let e2 = net.next().unwrap();
        assert!(matches!(e1, Event::Message { msg: 10, .. }));
        assert!(matches!(e2, Event::Message { msg: 20, .. }));
        assert_eq!(net.now(), SimTime::from_millis(5));
        assert!(net.next().is_none());
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut net = basic(2);
        for i in 0..10 {
            net.send(node(0), node(1), i);
        }
        for i in 0..10 {
            match net.next().unwrap() {
                Event::Message { msg, .. } => assert_eq!(msg, i),
                _ => panic!("expected message"),
            }
        }
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let mut net = basic(1);
        net.schedule(node(0), SimDuration::from_secs(3), 7);
        net.schedule(node(0), SimDuration::from_secs(1), 9);
        assert!(matches!(net.next(), Some(Event::Timer { timer: 9, .. })));
        assert_eq!(net.now(), SimTime::from_secs(1));
        assert!(matches!(net.next(), Some(Event::Timer { timer: 7, .. })));
        assert_eq!(net.now(), SimTime::from_secs(3));
        assert_eq!(net.stats().timers_fired, 2);
    }

    #[test]
    fn offline_receivers_drop_messages() {
        let mut rng = SmallRng::seed_from_u64(0);
        // p = 1, idle 0-length is not allowed; use 1s:1000000s so the node
        // is offline from its first offline segment for practically ever.
        let cfg = FlappingConfig {
            idle: SimDuration::from_micros(1),
            offline: SimDuration::from_secs(1_000_000),
            probability: 1.0,
            start: SimTime::ZERO,
        };
        let f = Flapping::new(cfg, 2, 3, &mut rng);
        let mut net: Network<u32, ()> = Network::new(
            2,
            Box::new(f),
            Box::new(ConstantLatency(SimDuration::from_secs(10))),
            2,
        );
        net.send(node(0), node(1), 1);
        assert!(net.next().is_none());
        assert_eq!(net.stats().dropped_offline, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn next_before_respects_deadline() {
        let mut net = basic(2);
        net.send(node(0), node(1), 1); // arrives at 5ms
        assert!(net.next_before(SimTime::from_millis(2)).is_none());
        assert_eq!(net.now(), SimTime::from_millis(2));
        assert_eq!(net.pending(), 1);
        assert!(net.next_before(SimTime::from_millis(10)).is_some());
        assert_eq!(net.now(), SimTime::from_millis(5));
    }

    #[test]
    fn next_before_advances_clock_on_empty_queue() {
        let mut net = basic(1);
        assert!(net.next_before(SimTime::from_secs(9)).is_none());
        assert_eq!(net.now(), SimTime::from_secs(9));
    }

    #[test]
    fn stats_count_sends_and_deliveries() {
        let mut net = basic(2);
        net.send(node(0), node(1), 1);
        net.send(node(1), node(0), 2);
        while net.next().is_some() {}
        let s = net.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped_offline, 0);
    }

    #[test]
    fn uniform_latency_keeps_causality() {
        let mut net: Network<u32, ()> = Network::new(
            2,
            Box::new(AlwaysOn),
            Box::new(UniformLatency::new(
                SimDuration::from_millis(1),
                SimDuration::from_millis(100),
            )),
            7,
        );
        for i in 0..50 {
            net.send(node(0), node(1), i);
        }
        let mut last = SimTime::ZERO;
        while net.next().is_some() {
            assert!(net.now() >= last, "clock must be monotone");
            last = net.now();
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_node_panics() {
        let mut net = basic(2);
        net.send(node(0), node(5), 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut net = basic(2);
        net.set_loss_probability(1.0);
        for i in 0..20 {
            net.send(node(0), node(1), i);
        }
        assert!(net.next().is_none());
        let s = net.stats();
        assert_eq!(s.sent, 20);
        assert_eq!(s.dropped_loss, 20);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn zero_loss_drops_nothing() {
        let mut net = basic(2);
        net.set_loss_probability(0.0);
        for i in 0..20 {
            net.send(node(0), node(1), i);
        }
        while net.next().is_some() {}
        assert_eq!(net.stats().dropped_loss, 0);
        assert_eq!(net.stats().delivered, 20);
    }

    #[test]
    fn partial_loss_is_seed_deterministic() {
        let run = |seed| {
            let mut net: Network<u32, ()> = Network::new(
                2,
                Box::new(AlwaysOn),
                Box::new(ConstantLatency(SimDuration::from_millis(1))),
                seed,
            );
            net.set_loss_probability(0.5);
            for i in 0..100 {
                net.send(node(0), node(1), i);
            }
            let mut got = Vec::new();
            while let Some(Event::Message { msg, .. }) = net.next() {
                got.push(msg);
            }
            (got, net.stats().dropped_loss)
        };
        let (a, la) = run(3);
        let (b, lb) = run(3);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        // Roughly half lost (binomial, wide tolerance).
        assert!((20..=80).contains(&(la as i64)), "lost {la} of 100");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_rejected() {
        let mut net = basic(1);
        net.set_loss_probability(1.5);
    }

    /// Forty nodes flapping (offline 20 ms of every 50 with probability
    /// 0.5), each with one message in flight and one timer armed.
    fn flapping_net() -> Network<u32, u32> {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = FlappingConfig {
            idle: SimDuration::from_millis(30),
            offline: SimDuration::from_millis(20),
            probability: 0.5,
            start: SimTime::ZERO,
        };
        let mut net = Network::new(
            40,
            Box::new(Flapping::new(cfg, 40, 11, &mut rng)),
            Box::new(ConstantLatency(SimDuration::from_millis(5))),
            3,
        );
        for i in 0..40 {
            net.send(node(i), node((i * 7 + 1) % 40), i);
            net.schedule(node(i), SimDuration::from_millis(u64::from(i % 4)), i);
        }
        net
    }

    /// Reacts to one event as a protocol would: a delivered message is
    /// answered; a fired timer is re-armed, one time in three with zero
    /// delay, and sends a message; until 12 000 sends are spent.
    fn react(net: &mut Network<u32, u32>, event: &Event<u32, u32>, sends: &mut u32) {
        let (at, x) = match *event {
            Event::Message { to, msg, .. } => (to, msg),
            Event::Timer { node: at, timer } => {
                if timer < 3_000 {
                    let delay = SimDuration::from_millis(u64::from(timer % 3));
                    net.schedule(at, delay, timer + 40);
                }
                (at, timer)
            }
        };
        if *sends < 12_000 {
            *sends += 1;
            net.send(at, node((x * 13 + at.index() as u32) % 40), x + 1);
        }
    }

    #[test]
    fn batch_drain_matches_single_event_order() {
        let deadline = SimTime::from_secs(60);
        let run_single = || {
            let mut net = flapping_net();
            let (mut sends, mut trace) = (0, Vec::new());
            while let Some(e) = net.next_before(deadline) {
                react(&mut net, &e, &mut sends);
                trace.push((net.now().as_micros(), e));
            }
            (trace, net.now(), net.stats())
        };
        let run_batched = || {
            let mut net = flapping_net();
            let (mut sends, mut trace, mut widest) = (0, Vec::new(), 0);
            let mut batch = Vec::new();
            while net.next_batch_before(deadline, &mut batch) {
                widest = widest.max(batch.len());
                for e in batch.drain(..) {
                    react(&mut net, &e, &mut sends);
                    trace.push((net.now().as_micros(), e));
                }
            }
            assert!(widest > 1, "no tick held more than one event");
            (trace, net.now(), net.stats())
        };
        let single = run_single();
        assert!(single.0.len() >= 10_000, "only {} events", single.0.len());
        assert!(single.2.dropped_offline > 0 && single.2.timers_fired > 0);
        assert_eq!(single, run_batched());
    }

    /// Two nodes, offline from their first microsecond for ~11.6 days.
    fn offline_forever() -> Network<u32, u32> {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = FlappingConfig {
            idle: SimDuration::from_micros(1),
            offline: SimDuration::from_secs(1_000_000),
            probability: 1.0,
            start: SimTime::ZERO,
        };
        let f = Flapping::new(cfg, 2, 3, &mut rng);
        Network::new(
            2,
            Box::new(f),
            Box::new(ConstantLatency(SimDuration::from_secs(10))),
            2,
        )
    }

    #[test]
    fn batch_drain_skips_offline_receivers() {
        let mut net = offline_forever();
        net.send(node(0), node(1), 1);
        net.send(node(0), node(1), 2);
        net.schedule(node(0), SimDuration::from_secs(10), 7);
        let mut batch = Vec::new();
        assert!(net.next_batch_before(SimTime::from_micros(u64::MAX), &mut batch));
        // The two messages are dropped (receiver offline); the timer fires.
        assert_eq!(
            batch,
            vec![Event::Timer {
                node: node(0),
                timer: 7
            }]
        );
        assert_eq!(net.stats().dropped_offline, 2);
        assert!(!net.next_batch_before(SimTime::from_micros(u64::MAX), &mut batch));
    }

    #[test]
    fn batch_drain_passes_over_a_tick_of_offline_receivers() {
        let mut net = offline_forever();
        net.send(node(0), node(1), 1);
        net.send(node(0), node(1), 2);
        net.schedule(node(0), SimDuration::from_secs(20), 7);
        let mut batch = Vec::new();
        assert!(!net.next_batch_before(SimTime::from_secs(5), &mut batch));
        assert_eq!(net.now(), SimTime::from_secs(5));
        // The 10 s tick holds only drops; the call goes on to the timer's.
        assert!(net.next_batch_before(SimTime::from_micros(u64::MAX), &mut batch));
        assert_eq!(net.now(), SimTime::from_secs(20));
        assert_eq!(
            batch,
            vec![Event::Timer {
                node: node(0),
                timer: 7
            }]
        );
        assert_eq!(net.stats().dropped_offline, 2);
        // A last tick of drops only leaves nothing to hand over.
        net.send(node(0), node(1), 3);
        assert!(!net.next_batch_before(SimTime::from_micros(u64::MAX), &mut batch));
        assert!(batch.is_empty());
        assert_eq!(net.now(), SimTime::from_secs(30));
        assert_eq!(net.stats().dropped_offline, 3);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut net: Network<u32, ()> = Network::new(
                4,
                Box::new(AlwaysOn),
                Box::new(UniformLatency::new(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(50),
                )),
                seed,
            );
            for i in 0..20 {
                net.send(node(i % 4), node((i + 1) % 4), i);
            }
            let mut trace = Vec::new();
            while let Some(Event::Message { msg, .. }) = net.next() {
                trace.push((net.now().as_micros(), msg));
            }
            trace
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
