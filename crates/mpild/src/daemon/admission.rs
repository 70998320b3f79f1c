//! Admission control's second bound: the budget of estimated work the
//! daemon may submit per second, and what each operation costs of it
//! (the first, the window, is `Window`). Time is an argument here,
//! never read.

use std::time::Duration;

use mpil::MessageKind;
use mpil_net::TransportKind;

/// Admission budget that may be spent at once after an idle stretch.
pub const ADMIT_BURST: Duration = Duration::from_millis(3);
/// Budget a closed admission waits for before it opens again.
pub(super) const ADMIT_WAVE: Duration = Duration::from_micros(1500);

/// The admission budget one operation takes: one second of budget
/// accrues per second, so this is the reciprocal of the rate at which
/// a daemon serving nothing else admits that operation (12 500 announces
/// or 33 300 lookups a second on loopback UDP, 18 100 or 25 000 on
/// channels).
///
/// Each figure is what the operation costs the whole process (control
/// plane, daemon, every forward, reply and acknowledgement, and the
/// client beside them) on ONE saturated core, times a margin. A closed
/// loop that is never kept waiting runs that core flat out, and then
/// its rate and latency are the host's speed that minute: on the
/// two-vCPU box `benchmark/run.sh` was calibrated on, pinned to one
/// core (so: one shard), 48 nodes, `DaemonConfig::default()` parameters
/// and the window the only bound, `svc-udp-churn` read 48 500 to
/// 62 600 lookups a second and 14 700 to 22 600 announces, and
/// `svc-chan-churn` 38 900 to 50 200 announces, in runs minutes apart
/// (and 33 000 to 45 000 lookups in a slow hour). With this table every
/// run reads its rate. A lookup is about 3 forwards and 2 replies (its
/// first attempt carries [`FIRST_FLOWS`](super::FIRST_FLOWS) flows, and
/// only a hedge all of them), an announce 28 forwards and five
/// acknowledgements; what is left of either cost is the datagrams to
/// and from the client and the thread hand-offs behind them. The
/// margins over the slowest of those runs are 1.2 (UDP announce), 1.5
/// (UDP lookup; 1.0 in the slow hour) and 2.1 (channel announce): the
/// host takes 10 to 30 % away for minutes at a time on that box, and
/// an admitted rate has to be one the slow minutes also serve, or it
/// follows the host instead of this table. A closed loop waits
/// in-flight ÷ admitted rate for each lookup: 48 callers at 30 µs are
/// answered in about 1.35 ms (at the 57 µs this figure was priced at
/// for ten-flow lookups, 2.86 ms). No closed loop measures the channel
/// lookup figure (its benchmark workload offers 500 a second).
pub fn admit_cost(transport: TransportKind, kind: MessageKind) -> Duration {
    Duration::from_micros(match (transport, kind) {
        (TransportKind::Udp, MessageKind::Insert) => 80,
        (TransportKind::Udp, MessageKind::Lookup) => 30,
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
