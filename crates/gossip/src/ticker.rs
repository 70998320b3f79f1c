//! The per-node gossip timer the epidemic engine runs its rounds on.
//!
//! Every node fires once per gossip period on its own grid (staggered
//! uniformly over one period). Offline fires are protocol no-ops and
//! availability models are pure functions of `(node, time)`, so a chain
//! is armed at the first grid point where its node is *online* and the
//! offline ones are skipped without a wheel round-trip each — under
//! heavy churn nearly half of all events. Two things keep that exact:
//! chains armed under a model that has since been swapped are
//! superseded by an epoch ([`GossipTicker::rearm`]), and the same-tick
//! order pre-skipping can permute is put back before dispatch
//! ([`restore_tick_order`]).

use mpil_overlay::NodeIdx;
use mpil_sim::{Event, SimDuration, SimTime};
use rand::Rng;

use crate::epidemic::{Epidemic, Msg, Timer};

type Cx<'a> = mpil_sim::Cx<'a, Epidemic>;

/// Cap on how many offline grid points one [`GossipTicker::arm`] pass
/// may pre-skip. It bounds the arming scan when a node stays offline
/// for a very long stretch (e.g. `probability = 1.0`): the capped fire
/// lands on an offline grid point and is an ordinary no-op fire that
/// resumes skipping.
const MAX_GOSSIP_SKIP: u32 = 1024;

/// The gossip timer chains of all nodes.
#[derive(Debug)]
pub(crate) struct GossipTicker {
    period: SimDuration,
    /// Bumped by [`GossipTicker::rearm`]; timers armed under an older
    /// epoch are superseded chains and must fire as no-ops.
    epoch: u32,
    /// Per node: the next gossip grid point not yet fired *or*
    /// pre-skipped under the current availability model — the re-arm
    /// anchor when the model is swapped mid-skip.
    next_grid: Vec<SimTime>,
}

impl GossipTicker {
    pub(crate) fn new(nodes: usize, period: SimDuration) -> Self {
        GossipTicker {
            period,
            epoch: 0,
            next_grid: vec![SimTime::ZERO; nodes],
        }
    }

    /// Starts every node's chain, staggered uniformly over one period.
    pub(crate) fn start(&mut self, cx: &mut Cx<'_>) {
        let period = self.period.as_micros();
        for i in 0..self.next_grid.len() as u32 {
            let delay = SimDuration::from_micros(cx.rng().gen_range(0..period));
            let start = cx.now() + delay;
            self.arm(cx, NodeIdx::new(i), start);
        }
    }

    /// Is a fire armed under `epoch` part of a live chain?
    pub(crate) fn is_current(&self, epoch: u32) -> bool {
        epoch == self.epoch
    }

    /// Arms `node`'s next fire one period from now (the tail of every
    /// live fire).
    pub(crate) fn arm_next(&mut self, cx: &mut Cx<'_>, node: NodeIdx) {
        let start = cx.now() + self.period;
        self.arm(cx, node, start);
    }

    /// Arms `node`'s next fire at the first gossip grid point at or
    /// after `start` where the node is online.
    fn arm(&mut self, cx: &mut Cx<'_>, node: NodeIdx, start: SimTime) {
        self.next_grid[node.index()] = start;
        let mut at = start;
        let mut skipped = 0;
        while skipped < MAX_GOSSIP_SKIP && !cx.is_online_at(node, at) {
            at += self.period;
            skipped += 1;
        }
        let delay = SimDuration::from_micros(at.as_micros() - cx.now().as_micros());
        cx.schedule(node, delay, Timer::Gossip { epoch: self.epoch });
    }

    /// The availability model was swapped. Grid points in the past were
    /// evaluated under exactly the model a per-period no-op fire would
    /// have seen; from now on the *new* model decides, so every
    /// in-flight chain is superseded (epoch bump) and each node re-armed
    /// from its next unfired grid point.
    pub(crate) fn rearm(&mut self, cx: &mut Cx<'_>) {
        self.epoch += 1;
        let now = cx.now();
        for i in 0..self.next_grid.len() {
            let mut t = self.next_grid[i];
            while t <= now {
                // Already fired (or pre-skipped under the model that
                // was live then); the chain continues on its grid.
                t += self.period;
            }
            self.arm(cx, NodeIdx::new(i as u32), t);
        }
    }
}

/// Restores the baseline intra-tick dispatch order after gossip-timer
/// pre-skipping.
///
/// The kernel breaks same-tick ties by push order. Without skipping,
/// every gossip chain re-pushes once per period — the largest horizon
/// of any event class — so within a tick the baseline order is always:
/// gossip timers first, ascending node index (colliding chains share a
/// stagger start and were first pushed in node order, and per-period
/// re-pushes preserve that order inductively). Pre-skipped chains push
/// at their last *real* fire instead, which can permute colliding
/// fires; this in-place, allocation-free insertion sort (stable, and
/// O(len) on the already-ordered common case) puts the tick back into
/// the baseline order.
pub(crate) fn restore_tick_order(batch: &mut [Event<Msg, Timer>]) {
    let key = |ev: &Event<Msg, Timer>| match ev {
        Event::Timer {
            node,
            timer: Timer::Gossip { .. },
        } => (false, node.index()),
        _ => (true, 0),
    };
    for i in 1..batch.len() {
        let mut j = i;
        while j > 0 && key(&batch[j - 1]) > key(&batch[j]) {
            batch.swap(j - 1, j);
            j -= 1;
        }
    }
}
