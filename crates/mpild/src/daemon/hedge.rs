//! How long a lookup attempt is left unanswered before a second one
//! leaves through another entry node: an estimate kept from the reply
//! times the daemon's core shows it.

use std::time::Duration;

/// The shortest a lookup's first attempt is left unanswered before a
/// second one leaves through another entry node. Measured on the
/// two-vCPU box as hedges per 1 000 lookups with no churn, when every
/// hedge is a question asked twice for nothing: a closed loop of 48 on
/// loopback UDP at the admitted rate, where a lookup let in at the back
/// of a 3 ms burst waits for the fifty ahead of it, hedges 70 at 1 ms,
/// 5 to 6 at 2 ms and 1.4 at 3 ms; the quiet open loop of
/// `scripts/ci.sh` (250 a second) up to 7 at 1 ms and none at 2 or 3 ms,
/// a stall of the host aside (one hedge in one run of ten). The estimate
/// reads 0.7 to 1.0 ms on both: `srtt + 4 · rttvar` takes one hump for
/// granted and a burst gives the reply times two. So on a healthy
/// cluster it is the floor that holds, and the estimate takes over when
/// replies slow down.
pub(super) const HEDGE_FLOOR: Duration = Duration::from_millis(3);

/// How long a lookup attempt is worth waiting for, from how long the
/// answered ones took: the retransmission timer of RFC 6298 (Jacobson
/// and Karels), `srtt + 4 · rttvar` over the submit-to-reply times of
/// lookups, kept in two integers.
///
/// The paper protects a lookup with several flows and several replicas
/// but exempts the querying node from perturbation; a client of the
/// daemon names its entry node, and when that node is deaf no flow
/// leaves at all. Waiting for longer than a healthy attempt takes buys
/// nothing, so the daemon does not: it sends a second attempt in by
/// another door and listens for both.
#[derive(Debug, Default)]
pub(super) struct HedgeDelay {
    /// Smoothed reply time; 0 until the first sample.
    srtt_ns: u64,
    /// Smoothed deviation of the samples from `srtt_ns`.
    rttvar_ns: u64,
}

impl HedgeDelay {
    pub(super) fn sample(&mut self, rtt: Duration) {
        let rtt_ns = (rtt.as_nanos() as u64).max(1);
        if self.srtt_ns == 0 {
            self.srtt_ns = rtt_ns;
            self.rttvar_ns = rtt_ns / 2;
        } else {
            self.rttvar_ns = (3 * self.rttvar_ns + self.srtt_ns.abs_diff(rtt_ns)) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) / 8;
        }
    }

    /// The patience of a lookup's attempt number `attempt` (0 the
    /// first): the estimate in whole milliseconds, no less than
    /// [`HEDGE_FLOOR`], doubled for every attempt before this one, and
    /// never more than `cap`, which it also is while there is nothing
    /// to estimate from.
    pub(super) fn patience(&self, attempt: u32, cap: Duration) -> Duration {
        if self.srtt_ns == 0 {
            return cap;
        }
        let estimate_ns = self.srtt_ns + 4 * self.rttvar_ns;
        let first = Duration::from_millis(estimate_ns.div_ceil(1_000_000)).max(HEDGE_FLOOR);
        first.saturating_mul(1 << attempt.min(20)).min(cap)
    }
}
