//! How a lookup is staged: a narrow first attempt, and how long it is
//! left unanswered before a full-width one leaves through another entry
//! node, an estimate kept from the reply times the daemon's core shows
//! it.

use std::time::Duration;

/// The flows a lookup's first attempt carries (at most `max_flows`);
/// every later attempt, its hedges, carries all `max_flows`, as every
/// announce does. The paper buys perturbation resistance with flows
/// sent up front; the daemon has a second line of defence the paper's
/// one-shot lookups lacked, the hedge, so it spends the rest of the
/// budget only on the lookups whose first flows are late.
///
/// Measured with `mpil::step` on the daemon's own topology
/// (`random_regular(48, 8)` at the deployment seed, 256 objects
/// announced twice at 10 flows and 3 replicas, 100 000 lookups a row):
/// first attempts of 1, 2, 3, 4 and 10 flows answer 99.989, 99.980,
/// 99.991, 100 and 100 % of lookups on a quiet overlay, at 2.3, 4.7,
/// 7.3, 9.8 and 20.8 messages each; with 4 of the 48 nodes deaf in 40 %
/// of lookups they answer 92.7, 95.5, 96.1, 96.4 and 96.5 %. Two is
/// the knee under churn: one flow doubles the share that needs a hedge,
/// and every flow past two buys less than 0.6 % of lookups. On the
/// benchmark's churned service workloads this took `msgs_per_lookup`
/// from 20.1 to 5.2 at 100 % success. The test below pins the quiet
/// half of the measurement.
pub const FIRST_FLOWS: u32 = 2;

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
/// another door, with all the flows the first one held back
/// ([`FIRST_FLOWS`]), and listens for both.
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

#[cfg(test)]
mod tests {
    use mpil::StaticEngine;
    use mpil_id::Id;
    use mpil_overlay::{generators, NodeIdx};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::FIRST_FLOWS;
    use crate::daemon::DaemonConfig;

    /// The quiet half of [`FIRST_FLOWS`]' measurement, on the overlay a
    /// default daemon spawns: a narrow first attempt answers nearly every
    /// lookup for a fraction of a full-width one's forwards (it reads
    /// 99.969 % at 3.0 forwards a lookup, against 100 % at 16.7). A
    /// routing change that makes it miss more fails here instead of
    /// hedging more without a word.
    #[test]
    fn a_narrow_first_attempt_answers_nearly_every_quiet_lookup() {
        let config = DaemonConfig::default();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let topo =
            generators::random_regular(config.nodes, config.degree, &mut rng).expect("topology");
        let mut engine = StaticEngine::new(&topo, config.mpil, config.seed);
        let nodes = config.nodes as u32;
        let objects: Vec<Id> = (0..256).map(|_| Id::random(&mut rng)).collect();
        // Two announces of every object, the second from fresh origins.
        for _ in 0..2 {
            for &object in &objects {
                engine.insert(NodeIdx::new(rng.gen_range(0..nodes)), object);
            }
        }
        let mut look_up = |flows: u32, lookups: u32| {
            engine.set_config(config.mpil.with_max_flows(flows));
            let (mut found, mut forwards) = (0u32, 0u64);
            for _ in 0..lookups {
                let object = objects[rng.gen_range(0..objects.len())];
                let report = engine.lookup(NodeIdx::new(rng.gen_range(0..nodes)), object);
                found += u32::from(report.success);
                forwards += report.messages;
            }
            let per_lookup = forwards as f64 / f64::from(lookups);
            (f64::from(found) / f64::from(lookups), per_lookup)
        };
        let (narrow_found, narrow_forwards) = look_up(FIRST_FLOWS, 100_000);
        let (full_found, full_forwards) = look_up(config.mpil.max_flows, 10_000);
        assert!(
            narrow_found >= 0.999,
            "{FIRST_FLOWS} flows answer {narrow_found}"
        );
        assert!(
            narrow_forwards <= 4.0,
            "{FIRST_FLOWS} flows forward {narrow_forwards} times a lookup"
        );
        assert!(full_found >= narrow_found, "{full_found} at full width");
        assert!(
            full_forwards >= 15.0,
            "full width forwards {full_forwards} times a lookup"
        );
    }
}
