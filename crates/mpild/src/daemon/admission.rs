//! Admission control: the budget of estimated work the daemon may
//! submit per second, and what each operation costs of it. Time is an
//! argument here, never read.

use std::time::Duration;

use mpil::MessageKind;
use mpil_net::TransportKind;

/// Admission budget that may be spent at once after an idle stretch.
pub const ADMIT_BURST: Duration = Duration::from_millis(3);
/// Budget a closed admission waits for before it opens again.
pub(super) const ADMIT_WAVE: Duration = Duration::from_micros(1500);
/// Requests waiting for admission beyond this many are turned away with
/// `UNAVAILABLE` instead of queued.
pub const MAX_BACKLOG: usize = 4096;

/// The admission budget one operation takes: one second of budget
/// accrues per second, so this is the reciprocal of the rate at which
/// a daemon serving nothing else admits that operation (12 500 announces
/// or 17 500 lookups a second on loopback UDP, 18 100 or 25 000 on
/// channels).
///
/// Each figure is what the operation costs the whole process (control
/// plane, daemon, every forward, reply and acknowledgement, and the
/// client beside them) on ONE saturated core, times a margin of 1.5 or
/// more. Re-measured on the sharded data plane, pinned to one core of
/// the two-vCPU box `benchmark/run.sh` was calibrated on (so: one
/// shard), 48 nodes, `DaemonConfig::default()` parameters, a closed
/// loop of 48 and this table zeroed: 47 µs an announce and 29 µs a
/// lookup on UDP (21 300 and 34 700 a second), 29 and 15 µs on
/// channels (34 800 and 67 500 a second); `svc-udp-churn` itself reads
/// 51 µs an announce. A lookup was then 16 forwards, all of them
/// in-process on one shard, and four replies; an announce is 28
/// forwards and five acknowledgements, and what is left of either cost
/// is the datagrams to and from the client and the thread hand-offs
/// behind them. A lookup is now about 3 forwards and 2 replies (its
/// first attempt carries [`FIRST_FLOWS`](super::FIRST_FLOWS) flows, and
/// only a hedge all of them), yet the four figures stand: lookups on
/// the benchmark's `svc-udp-churn` are admission-bound, so a new lookup
/// figure moves that workload's rate and latency with it, and pricing
/// them from measured service times belongs with a daemon that measures
/// its own. The
/// margins taken are 1.6 (UDP announce), 2.0 (UDP lookup), 1.9 and 2.7:
/// the host takes 10 to 30 % away for minutes at a time on that box,
/// and an admitted rate has to be one the slow minutes also serve, or
/// it follows the host instead of this table. The UDP lookup figure
/// stood at the announce's 80 for as long as a lookup whose entry node
/// was deaf waited out one flat 150 ms period: 1 250 lookups are
/// admitted during a 100 ms deaf spell, so every caller of a closed
/// loop of 48 was parked on that wait within 40 ms of a churn volley,
/// and how fast they got parked, not this table, set the rate (at 70,
/// `lookup_per_s` of three `svc-udp-churn` runs spread over 600 a
/// second). Hedged lookups park nobody and the rate is the admitted
/// rate (ten seeds at 57 spread 46 a second). A closed loop waits
/// in-flight ÷ admitted rate for each lookup, and hedges spend budget
/// on 3 % of them: 57 is the largest figure at which that loop's
/// typical latency is clear of what it read at 80 with its callers
/// parked (2.81 ms against 2.89; 58 reads 2.84 to 2.86).
pub fn admit_cost(transport: TransportKind, kind: MessageKind) -> Duration {
    Duration::from_micros(match (transport, kind) {
        (TransportKind::Udp, MessageKind::Insert) => 80,
        (TransportKind::Udp, MessageKind::Lookup) => 57,
        (TransportKind::Channel, MessageKind::Insert) => 55,
        (TransportKind::Channel, MessageKind::Lookup) => 40,
    })
}

/// Admission control: paces what the daemon submits to the cluster so
/// that the data plane is offered less than it can serve.
///
/// A cluster offered more than it can serve queues the excess where
/// nobody sees it (node sockets, which drop what does not fit, and then
/// timeouts turn into retries, which add load), and its throughput is
/// whatever the host's speed is that minute. Held below saturation it
/// answers in its own latency, the excess waits in the daemon's backlog
/// in arrival order, and throughput is the admitted rate. Below the
/// admitted rate this costs nothing: the budget is there, and a request
/// is submitted the moment it is read.
///
/// The budget accrues with time, up to [`ADMIT_BURST`], and every
/// submission spends [`admit_cost`] of it (retries too, without waiting
/// for it). Admission closes when the budget is spent and opens again
/// once [`ADMIT_WAVE`] has accrued, so a backlog is let in a wave at a
/// time: operations that enter the cluster together share wake-ups at
/// the nodes (a fifth less CPU per announce than one timer wake-up per
/// operation), and the daemon sleeps a wave's worth between them.
#[derive(Debug)]
pub(super) struct Admission {
    budget_ns: i64,
    accrued_at: Duration,
    open: bool,
}

impl Admission {
    pub(super) fn new(now: Duration) -> Self {
        Admission {
            budget_ns: ADMIT_BURST.as_nanos() as i64,
            accrued_at: now,
            open: true,
        }
    }

    pub(super) fn accrue(&mut self, now: Duration) {
        let elapsed = now.saturating_sub(self.accrued_at).as_nanos() as i64;
        self.accrued_at = now;
        self.budget_ns = self
            .budget_ns
            .saturating_add(elapsed)
            .min(ADMIT_BURST.as_nanos() as i64);
        if self.budget_ns >= ADMIT_WAVE.as_nanos() as i64 {
            self.open = true;
        }
    }

    pub(super) fn is_open(&self) -> bool {
        self.open
    }

    pub(super) fn spend(&mut self, cost: Duration) {
        self.budget_ns -= cost.as_nanos() as i64;
        if self.budget_ns <= 0 {
            self.open = false;
        }
    }

    /// When a closed admission opens again.
    pub(super) fn reopens_at(&self) -> Duration {
        let short = ADMIT_WAVE.as_nanos() as i64 - self.budget_ns;
        self.accrued_at + Duration::from_nanos(short.max(0) as u64)
    }
}
