//! The [`Network`] discrete-event kernel.

use mpil_overlay::NodeIdx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::availability::Availability;
use crate::latency::LatencyModel;
use crate::pool::PayloadPool;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Popped, TimerWheel};

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

enum Item<M, T> {
    Msg { from: NodeIdx, to: NodeIdx, msg: M },
    Timer { node: NodeIdx, timer: T },
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
    queue: TimerWheel<Item<M, T>>,
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
        self.push(self.now + delay, Item::Msg { from, to, msg });
    }

    /// Schedules `timer` to fire at `node` after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn schedule(&mut self, node: NodeIdx, delay: SimDuration, timer: T) {
        assert!(node.index() < self.n, "node {node} out of range");
        self.push(self.now + delay, Item::Timer { node, timer });
    }

    fn push(&mut self, at: SimTime, item: Item<M, T>) {
        self.queue.push(at.as_micros(), item);
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
        loop {
            let item = match self.queue.pop_before(deadline.as_micros()) {
                Popped::Empty => {
                    if deadline > self.now && deadline.as_micros() != u64::MAX {
                        self.now = deadline;
                        self.queue.set_now(deadline.as_micros());
                    }
                    return None;
                }
                Popped::Later => {
                    if deadline > self.now {
                        self.now = deadline;
                        self.queue.set_now(deadline.as_micros());
                    }
                    return None;
                }
                Popped::Event { at, item } => {
                    debug_assert!(at >= self.now.as_micros(), "time went backwards");
                    self.now = SimTime::from_micros(at);
                    item
                }
            };
            if let Some(event) = self.deliver(item) {
                return Some(event);
            }
            // Offline drop: keep draining.
        }
    }

    /// Delivers one popped item at the current clock, or counts the drop
    /// and returns `None` when the receiver is offline.
    fn deliver(&mut self, item: Item<M, T>) -> Option<Event<M, T>> {
        match item {
            Item::Msg { from, to, msg } => {
                if self.availability.is_online(to, self.now) {
                    self.stats.delivered += 1;
                    Some(Event::Message { from, to, msg })
                } else {
                    self.stats.dropped_offline += 1;
                    None
                }
            }
            Item::Timer { node, timer } => {
                self.stats.timers_fired += 1;
                Some(Event::Timer { node, timer })
            }
        }
    }

    /// Drains one tick's worth of deliverable events (at or before
    /// `deadline`) into `out`, clearing it first. Returns `false` — with
    /// the clock advanced exactly as [`Network::next_before`] — when no
    /// event is due by the deadline.
    ///
    /// One call never spans two distinct event times, so a caller
    /// dispatching the batch in order observes the identical global
    /// `(time, seq)` sequence as repeated [`Network::next_before`] calls;
    /// same-tick sends issued while dispatching are picked up by the next
    /// call, again in seq order. The point is amortization: the batch
    /// comes out of the wheel's current-tick buffer with no per-event
    /// scheduler traffic, and `out`'s allocation is the caller's to
    /// reuse across ticks.
    pub fn next_batch_before(&mut self, deadline: SimTime, out: &mut Vec<Event<M, T>>) -> bool {
        out.clear();
        let Some(first) = self.next_before(deadline) else {
            return false;
        };
        out.push(first);
        while let Some(item) = self.queue.pop_current() {
            if let Some(event) = self.deliver(item) {
                out.push(event);
            }
        }
        true
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

    #[test]
    fn batch_drain_matches_single_event_order() {
        let run_single = || {
            let mut net = basic(3);
            for i in 0..12 {
                net.send(node(i % 3), node((i + 1) % 3), i);
            }
            net.schedule(node(0), SimDuration::from_millis(5), 99);
            let mut trace = Vec::new();
            while let Some(e) = net.next_before(SimTime::from_secs(1)) {
                trace.push((net.now().as_micros(), e));
            }
            (trace, net.now(), net.stats())
        };
        let run_batched = || {
            let mut net = basic(3);
            for i in 0..12 {
                net.send(node(i % 3), node((i + 1) % 3), i);
            }
            net.schedule(node(0), SimDuration::from_millis(5), 99);
            let mut trace = Vec::new();
            let mut batch = Vec::new();
            while net.next_batch_before(SimTime::from_secs(1), &mut batch) {
                for e in batch.drain(..) {
                    trace.push((net.now().as_micros(), e));
                }
            }
            (trace, net.now(), net.stats())
        };
        assert_eq!(run_single(), run_batched());
    }

    #[test]
    fn batch_drain_skips_offline_receivers() {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = FlappingConfig {
            idle: SimDuration::from_micros(1),
            offline: SimDuration::from_secs(1_000_000),
            probability: 1.0,
            start: SimTime::ZERO,
        };
        let f = Flapping::new(cfg, 2, 3, &mut rng);
        let mut net: Network<u32, u32> = Network::new(
            2,
            Box::new(f),
            Box::new(ConstantLatency(SimDuration::from_secs(10))),
            2,
        );
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
