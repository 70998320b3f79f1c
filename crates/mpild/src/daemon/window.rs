//! Admission control's first bound: a window of the flows in the
//! cluster (the second, the budget, is `Admission`). Time is an
//! argument here, never read.

use std::collections::VecDeque;
use std::time::Duration;

use fxhash::FxHashMap;
use mpil::MessageId;

/// First attempts go in only while the attempts holding a place in the
/// cluster carry fewer flows than this. That is room for 128 lookups'
/// narrow first attempts ([`FIRST_FLOWS`](super::FIRST_FLOWS) flows
/// each), so a closed loop of 48 (the benchmark's) never waits for it
/// on a healthy cluster, or for 25 announces at the default ten flows.
/// Counted in attempts, a window of 64 (with no budget beside it) let
/// 64 announces in at once.
/// Every stored replica owes the client a store-ack, about five an
/// announce, and a shard sends those of every announce it was handed
/// before the client's reader runs again. On a loopback-UDP daemon
/// pinned to one CPU, with 512 announces waiting, the client socket's
/// default receive buffer overflowed: 880 re-submissions and up to 96
/// announce timeouts in 8 s. At 25 announces there were none.
pub const WINDOW: u64 = 256;
/// Requests waiting for admission beyond this many are turned away with
/// `UNAVAILABLE` instead of queued.
pub const MAX_BACKLOG: usize = 4096;

/// The attempts in the cluster and their flows: what admission counts.
///
/// An attempt holds a place for each of its flows from the instant it
/// is submitted until it is answered or has been in for `hold`, the
/// patience of a first attempt: by then its flows have answered or died
/// at a local maximum. The daemon lets a first attempt in only while
/// the window has room (and the budget allows), and re-submissions take
/// their places without waiting for them. So what is admitted follows the work the cluster
/// is doing, whatever it costs: a cluster that answers fast frees its
/// places fast, one that slows down holds them until the hold, and the
/// excess waits in the daemon's backlog in arrival order. A request is
/// never counted for longer than one hold per attempt, so lookups of
/// absent objects, which stay tracked for their whole budget, do not
/// close the window on the rest.
#[derive(Debug, Default)]
pub(super) struct Window {
    /// Attempts by the instant they went in, oldest first; the front is
    /// always held, released ones behind it are skipped when they reach
    /// it.
    entered: VecDeque<(Duration, u64)>,
    /// The attempts in `entered` that still hold their places, and
    /// their flows.
    held: FxHashMap<u64, u32>,
    /// The flows of `held`.
    flows: u64,
}

impl Window {
    /// Attempt `id` went in at `now` with `flows` flows.
    pub(super) fn enter(&mut self, id: MessageId, now: Duration, flows: u32) {
        self.entered.push_back((now, id.0));
        self.held.insert(id.0, flows);
        self.flows += u64::from(flows);
    }

    /// Attempt `id` was answered; an attempt that holds no place is
    /// ignored.
    pub(super) fn release(&mut self, id: MessageId) {
        self.free(id.0);
        self.skip_released();
    }

    /// Frees the places held for `hold` or longer at `now`.
    pub(super) fn expire(&mut self, now: Duration, hold: Duration) {
        while let Some(&(at, id)) = self.entered.front() {
            if at + hold > now {
                break;
            }
            self.entered.pop_front();
            self.free(id);
            self.skip_released();
        }
    }

    fn free(&mut self, id: u64) {
        if let Some(flows) = self.held.remove(&id) {
            self.flows -= u64::from(flows);
        }
    }

    fn skip_released(&mut self) {
        while self
            .entered
            .front()
            .is_some_and(|(_, id)| !self.held.contains_key(id))
        {
            self.entered.pop_front();
        }
    }

    pub(super) fn is_full(&self) -> bool {
        self.flows >= WINDOW
    }

    /// When the oldest held place is freed if nothing answers it first.
    pub(super) fn frees_at(&self, hold: Duration) -> Option<Duration> {
        self.entered.front().map(|&(at, _)| at + hold)
    }
}
