//! The paths-limiting algorithm (Section 4.3 of the paper).
//!
//! When a node must forward to several tied candidates, the message's
//! remaining `max_flows` quota bounds how many it may actually use and is
//! subdivided among the forwarded copies:
//!
//! 1. `m = min(#candidates, max_flows + given_flows)`, where
//!    `given_flows` is 0 at the original sender and 1 elsewhere (a relay
//!    already *has* one flow; only extras are charged);
//! 2. forward to `m` candidates;
//! 3. each copy carries `(max_flows − m + given_flows) / m`, with the
//!    residue distributed one-by-one round-robin.

use rand::seq::SliceRandom;
use rand::Rng;

/// The outcome of the paths-limiting computation at one node.
///
/// The plan is four numbers, not a list: copy `i` carries
/// [`child_quota(i)`](Self::child_quota), `base` plus one for each of
/// the first `residue` copies, so a forwarding step dealing its quota
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForwardPlan {
    /// How many candidates to forward to.
    pub m: u32,
    /// Quota every forwarded copy carries at least.
    pub base: u32,
    /// How many of the copies, the first ones, carry `base + 1`
    /// (`residue < m`).
    pub residue: u32,
    /// Flows newly created by this forwarding step (`m - given_flows`);
    /// what Table 3 of the paper sums into the "actual number of flows".
    pub flows_created: u32,
}

impl ForwardPlan {
    /// The quota of forwarded copy `i` (`i < m`): the residue is dealt
    /// one by one from the first copy on.
    #[inline]
    pub fn child_quota(&self, i: u32) -> u32 {
        self.base + u32::from(i < self.residue)
    }
}

/// Picks which `m` of the tied candidates a node actually forwards to:
/// all of them when the plan covers the whole tie set, otherwise a
/// uniformly random subset of `m`.
///
/// Every engine (static, dynamic, live) must select this way; the
/// shared helper exists because `partial_shuffle` places its selection
/// at the **tail** of the slice, which individual call sites have
/// gotten wrong by truncating to the head.
pub(crate) fn select_candidates<T, R: Rng + ?Sized>(
    mut candidates: Vec<T>,
    m: usize,
    rng: &mut R,
) -> Vec<T> {
    if m >= candidates.len() {
        return candidates;
    }
    candidates.partial_shuffle(rng, m);
    let boundary = candidates.len() - m;
    candidates.split_off(boundary)
}

/// Computes the forwarding plan for one node.
///
/// * `quota` — the `max_flows` field of the received message;
/// * `given_flows` — 0 at the original sender, 1 at relays;
/// * `candidates` — the number of tied best-metric candidates.
///
/// Returns a plan with `m == 0` when nothing may be forwarded (no
/// candidates, or an originator with zero quota).
///
/// The invariant the algorithm maintains (verified by the property tests):
/// the total number of flows an operation ever creates is at most the
/// originator's `max_flows`, because quota is conserved: the copies'
/// quotas sum to `quota + given_flows − m`. (A `quota` of `u32::MAX`,
/// which no sender writes, saturates instead of wrapping.)
///
/// # Panics
///
/// Panics if `given_flows` is not 0 or 1.
pub fn plan_forwarding(quota: u32, given_flows: u32, candidates: usize) -> ForwardPlan {
    assert!(given_flows <= 1, "given_flows is 0 (origin) or 1 (relay)");
    let budget = quota.saturating_add(given_flows);
    let m = (candidates as u64).min(u64::from(budget)) as u32;
    if m == 0 {
        return ForwardPlan::default();
    }
    // Quota left to distribute among the m copies.
    let remaining = budget - m;
    ForwardPlan {
        m,
        base: remaining / m,
        residue: remaining % m,
        flows_created: m - given_flows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas(p: &ForwardPlan) -> Vec<u32> {
        (0..p.m).map(|i| p.child_quota(i)).collect()
    }

    #[test]
    fn origin_single_candidate_consumes_one_flow() {
        // Paper's Figure 6: origin 0001 with max_flows=2 forwards to one
        // node; max_flows becomes 1.
        let p = plan_forwarding(2, 0, 1);
        assert_eq!(p.m, 1);
        assert_eq!(quotas(&p), vec![1]);
        assert_eq!(p.flows_created, 1);
    }

    #[test]
    fn relay_single_candidate_preserves_quota() {
        // Figure 6: 1001 (a relay) forwards to one node with max_flows=1;
        // the copy still carries 1.
        let p = plan_forwarding(1, 1, 1);
        assert_eq!(p.m, 1);
        assert_eq!(quotas(&p), vec![1]);
        assert_eq!(p.flows_created, 0);
    }

    #[test]
    fn relay_split_consumes_quota() {
        // Figure 6: 1110 (a relay, max_flows=1) has two tied candidates;
        // it forwards to both, each copy carrying 0.
        let p = plan_forwarding(1, 1, 2);
        assert_eq!(p.m, 2);
        assert_eq!(quotas(&p), vec![0, 0]);
        assert_eq!(p.flows_created, 1);
    }

    #[test]
    fn zero_quota_relay_still_forwards_single_path() {
        let p = plan_forwarding(0, 1, 3);
        assert_eq!(p.m, 1);
        assert_eq!(quotas(&p), vec![0]);
        assert_eq!(p.flows_created, 0);
    }

    #[test]
    fn zero_quota_origin_sends_nothing() {
        let p = plan_forwarding(0, 0, 3);
        assert_eq!(p.m, 0);
        assert!(quotas(&p).is_empty());
    }

    #[test]
    fn residue_distributed_round_robin() {
        // Origin, quota 10, 3 candidates: m=3, remaining=7, base=2,
        // residue=1 -> quotas [3,2,2].
        let p = plan_forwarding(10, 0, 3);
        assert_eq!(p.m, 3);
        assert_eq!(quotas(&p), vec![3, 2, 2]);
        assert_eq!(p.flows_created, 3);
    }

    #[test]
    fn relay_with_many_candidates_caps_at_budget() {
        // Relay, quota 2, 10 candidates: budget 3 -> m=3, remaining 0.
        let p = plan_forwarding(2, 1, 10);
        assert_eq!(p.m, 3);
        assert_eq!(quotas(&p), vec![0, 0, 0]);
        assert_eq!(p.flows_created, 2);
    }

    #[test]
    fn quota_is_conserved() {
        for quota in 0..20u32 {
            for given in 0..=1u32 {
                for cands in 0..25usize {
                    let p = plan_forwarding(quota, given, cands);
                    if p.m == 0 {
                        continue;
                    }
                    let distributed: u32 = quotas(&p).iter().sum();
                    assert_eq!(
                        distributed + p.m,
                        quota + given,
                        "quota {quota} given {given} cands {cands}"
                    );
                    assert_eq!(p.flows_created, p.m - given);
                }
            }
        }
    }

    #[test]
    fn no_candidates_no_plan() {
        let p = plan_forwarding(10, 1, 0);
        assert_eq!(p.m, 0);
        assert_eq!(p.flows_created, 0);
    }

    #[test]
    #[should_panic(expected = "given_flows")]
    fn rejects_bad_given_flows() {
        let _ = plan_forwarding(1, 2, 1);
    }
}
